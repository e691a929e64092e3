"""Stored trace and delivery digests of both engines on a fixed scenario.

The digests were recorded before the array network core lost its
object-graph twin, the simulator its calendar-queue backend and rrSTR its
reduction-ratio and tree memos.  Every traced frame of the default engine
AND of the contended MAC engine must still hash to the same values; a
behaviour change anywhere below the engine shows up here.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.adversary import (
    DROPPER,
    JAMMER,
    SPOOFER,
    SUPPRESSOR,
    AdversarySchedule,
    AdversarySpec,
)
from repro.engine import (
    EngineConfig,
    batch_digest,
    delivery_digest,
    run_contended_tasks,
    run_task,
)
from repro.geometry import Point
from repro.linklayer import LinkLayerConfig
from repro.network import RadioConfig, build_network
from repro.network.topology import uniform_random_topology
from repro.routing import GMPProtocol, GRDProtocol, SMTProtocol

TRACING = EngineConfig(collect_traces=True)

DEFAULT_BATCH_DIGEST = (
    "3279374b022b65a8b398e9c7f53c1ce13f2b50e63748897a2d1858f9d11e9a51"
)
DEFAULT_DELIVERY_DIGESTS = (
    "797132b017148ce8b2b442a9542d5fda1ffb950ce1d1f643005283f014bd45a4",
    "b07fdd126da39f37e19f9bd250a085b11dfee5a7b02bdc9e7b47fba4b09ee416",
    "3548fcb5d5d4000d305e7247f93015402d7b1b2e4e23f8cfc84a137a53e812f4",
    "368ce462149ac762204da3b7fb5a82a8f0a3c7d3bc5b49d98c8387b56248105f",
    "4da69c7de60efe4b909add8f36f21713892187086a88f607d510de4ef1e09006",
    "b9cfe124af95a972d9a4d8eab2a60a4a6c5d814cdb623facd8c1ae5492b9b8a0",
    "7695a0f6f5692704ba2ad312277f01cfcbf13109b41bd90de714e0ceb871fa25",
    "019f8ba53794f7ef4a66536a0105bace4359406635ec5f291dd75a8eeeeaa36e",
)
DEFAULT_TRANSMISSIONS = (17, 11, 13, 17, 13, 10, 14, 13)

CONTENDED_BATCH_DIGEST = (
    "f4adf56770e6071bc22b4b86d65538d4896c96386fa3b6ba943f007a91a57da8"
)
CONTENDED_DELIVERY_DIGESTS = (
    "7146d3e3dabf9edde8018a5c378195059ced16b23ea032e15f0e2246bc9c79ca",
    "3e219899320bacdbc402f11744610ba85483b0818507d3b3532e5d3dd7ebc09e",
    "ada1b9d7b7e1ad758928d9957d5c672533f64fb05b4d36dc2354fb1c5088749c",
    "44a217d9c9f06c8c29698f2bf2d512e5e3434bbcaacef383a9d4e13162b8894a",
)


def _tasks(count: int, nodes: int, seed: int):
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(count):
        picks = rng.choice(nodes, size=8, replace=False)
        tasks.append((int(picks[0]), [int(p) for p in picks[1:]]))
    return tasks


def _build(seed: int = 19, nodes: int = 300):
    rng = np.random.default_rng(seed)
    points = uniform_random_topology(nodes, 1000.0, 1000.0, rng)
    return build_network(points, RadioConfig())


def test_default_engine_digests_match_pins():
    network = _build()
    protocol = GMPProtocol()
    results = [
        run_task(network, protocol, source, dests, config=TRACING, task_id=i)
        for i, (source, dests) in enumerate(_tasks(8, 300, 31))
    ]
    assert batch_digest(results) == DEFAULT_BATCH_DIGEST
    assert tuple(delivery_digest(r) for r in results) == DEFAULT_DELIVERY_DIGESTS
    assert tuple(r.transmissions for r in results) == DEFAULT_TRANSMISSIONS


def test_contended_engine_digests_match_pins():
    sessions = [
        (task_id, source, dests)
        for task_id, (source, dests) in enumerate(_tasks(4, 300, 77))
    ]
    results = run_contended_tasks(
        _build(), sessions, GMPProtocol, config=TRACING
    )
    assert batch_digest(results) == CONTENDED_BATCH_DIGEST
    assert (
        tuple(delivery_digest(r) for r in results) == CONTENDED_DELIVERY_DIGESTS
    )


# ---------------------------------------------------------------------------
# Config matrix.  Each case pins, for both engines, the batch digest plus the
# per-result fields the digest leaves out or summarizes: ``duration_s``,
# ``dropped_ttl`` and the digest-excluded ``perf`` mapping (``adv.*`` on the
# ideal engine; ``mac.*``/``link.*``/``adv.*`` on the contended one), the
# last as a SHA-256 of its canonical JSON.

MATRIX_SESSIONS = (
    (176, (113, 106, 133, 15, 96, 13)),
    (60, (148, 9, 120, 193, 175, 34)),
    (52, (83, 20, 129, 109, 22, 40)),
    (61, (185, 127, 102, 175, 167, 163)),
)
MATRIX_STARTS = (0.0, 0.002, 0.004, 0.006)
#: Relays of the benign routes, never a source.
FAILED = frozenset({7, 84})
CAST = AdversarySchedule(
    specs=(
        AdversarySpec(84, DROPPER, drop_rate=0.5),
        AdversarySpec(71, SPOOFER),
        AdversarySpec(2, SUPPRESSOR),
    ),
    seed=5,
)
JAM = AdversarySchedule(specs=(AdversarySpec(16, JAMMER),), seed=5)
QUIET = LinkLayerConfig(beacons=False)

#: ``case id -> (protocol, network, EngineConfig kwargs)``.
IDEAL_CASES = {
    "baseline": (GMPProtocol, "random", {}),
    "loss_and_failures": (
        GMPProtocol,
        "random",
        dict(link_loss_rate=0.25, loss_seed=3, failed_node_ids=FAILED),
    ),
    "processing_delay": (GMPProtocol, "random", dict(processing_delay_s=1e-3)),
    "unicast": (GMPProtocol, "random", dict(transmission_model="unicast")),
    "broadcast": (GRDProtocol, "random", dict(transmission_model="broadcast")),
    "header_overhead": (GMPProtocol, "random", dict(charge_header_overhead=True)),
    "header_overhead_per_copy": (
        GRDProtocol,
        "random",
        dict(charge_header_overhead=True),
    ),
    "ttl": (GMPProtocol, "random", dict(max_path_length=4)),
    "adversaries": (GMPProtocol, "random", dict(adversary=CAST)),
    "smt_partitioned": (SMTProtocol, "partitioned", {}),
}
CONTENDED_CASES = {
    "baseline": (GMPProtocol, "random", {}),
    "baseline_no_beacons": (GMPProtocol, "random", dict(link=QUIET)),
    "loss_and_failures": (
        GMPProtocol,
        "random",
        dict(link_loss_rate=0.25, loss_seed=3, failed_node_ids=FAILED),
    ),
    "processing_delay": (GMPProtocol, "random", dict(processing_delay_s=1e-3)),
    "per_copy": (GRDProtocol, "random", {}),
    "header_overhead": (GMPProtocol, "random", dict(charge_header_overhead=True)),
    "header_overhead_per_copy": (
        GRDProtocol,
        "random",
        dict(charge_header_overhead=True),
    ),
    "ttl": (GMPProtocol, "random", dict(max_path_length=4)),
    "adversaries": (GMPProtocol, "random", dict(adversary=CAST)),
    "adversaries_no_beacons": (
        GMPProtocol,
        "random",
        dict(adversary=CAST, link=QUIET),
    ),
    "jammer": (GMPProtocol, "random", dict(adversary=JAM)),
    "smt_partitioned": (SMTProtocol, "partitioned", {}),
}

#: ``(engine, case id) -> (batch digest, durations, dropped_ttl, perf hash)``,
#: recorded before the two engines shared one forwarding core.
MATRIX_PINS = {
    ('ideal', 'baseline'): (
        'c1735e75397b64a5dfabda37245dd79f9fe6d05786ae44beba7270ee1ea38386',
        (0.006143999999999999, 0.01024, 0.006143999999999999, 0.0051199999999999996),
        (0, 0, 0, 0),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('ideal', 'loss_and_failures'): (
        'e8b5f54adacbeadb7f6e8e7015e082ef5f65aa44e5ff42702521dc256ad63880',
        (0.006143999999999999, 0.004096, 0.003072, 0.002048),
        (0, 0, 0, 0),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('ideal', 'processing_delay'): (
        'c37a24d05dbd556a20fcd561220c2a90026be542eb6e5c3b0517dfd4f4950136',
        (
            0.012143999999999999,
            0.020239999999999994,
            0.012143999999999999,
            0.010119999999999999,
        ),
        (0, 0, 0, 0),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('ideal', 'unicast'): (
        '9a96c78ae058b595dc8d493428a61817b7437dfa60864c1031c3bf350e389836',
        (0.006143999999999999, 0.01024, 0.006143999999999999, 0.0051199999999999996),
        (0, 0, 0, 0),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('ideal', 'broadcast'): (
        '274458609a84d70bb417ef595473616a9db5b98118d32d6be8d5fadbdf88d4ea',
        (0.006143999999999999, 0.008192, 0.0051199999999999996, 0.0051199999999999996),
        (0, 0, 0, 0),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('ideal', 'header_overhead'): (
        '75074eeb7510a5b96c659ccc004b40af91d522e64e6258177ea8b87d522fce27',
        (0.011008, 0.018944, 0.01024, 0.008832000000000001),
        (0, 0, 0, 0),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('ideal', 'header_overhead_per_copy'): (
        'af8186a0b1d22a6772f4dc3fe8d1e3706ecf203c185349f2d0fb0771a9108866',
        (0.00864, 0.01152, 0.007200000000000001, 0.007200000000000001),
        (0, 0, 0, 0),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('ideal', 'ttl'): (
        'c9ebc98e4a1b2ccdb991104926e1ad596b6a80ee4020cc7f769f13aa6e4cddc6',
        (0.004096, 0.004096, 0.004096, 0.004096),
        (2, 1, 1, 1),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('ideal', 'adversaries'): (
        '91847cdfc67cdc3595d7d06de4e821810fdb990dc60b9ef6415978c2bf14d4b1',
        (0.007167999999999999, 0.01024, 0.006143999999999999, 0.004096),
        (0, 0, 0, 0),
        'a064384126c0d8b1f169af4224370b9b789985e984960627c24917a35cb2f3fe',
    ),
    ('ideal', 'smt_partitioned'): (
        'dddd2f51051fa871e36d490969afd8dc830da03a5b225e3ebbe52b4353ecb8d8',
        (0.0, 0.002048, 0.0, 0.002048),
        (0, 0, 0, 0),
        'f941396140911b25bb57bb73145aa6b5fc9c7954a7511fada4baac97bf9ad6d0',
    ),
    ('contended', 'baseline'): (
        '51c61cc865c4ce82a764ad4923f5049b64162bf2a587e34c07b78901968fec07',
        (0.011508, 0.04985399999999998, 0.04184199999999999, 0.024082000000000013),
        (0, 0, 0, 0),
        '428e9addb634a7dcae69703b49e28241c8498b2118ccd109e2e15b5cfd04aaa0',
    ),
    ('contended', 'baseline_no_beacons'): (
        '5e6f66f1c7c27dd0d8a89630962e6169304621cb8ab54d685ca8594ec105e070',
        (0.011508, 0.039824000000000005, 0.027404000000000015, 0.022786000000000015),
        (0, 0, 0, 0),
        '476a8d92843b85a65495c46754758032589b4c3ecf9411cec0df6c6b3d216ce8',
    ),
    ('contended', 'loss_and_failures'): (
        'f26c8731b77ba71d8c5c174791620498948417a933828234958b7199f393ea56',
        (0.007349999999999998, 0.015602, 0.0255, 0.03760399999999999),
        (0, 0, 0, 0),
        '8e398bb0379d8015b6067944607848bf54931c0f6adb79143132722f037f2507',
    ),
    ('contended', 'processing_delay'): (
        '9cdf937f8803703a73d622ab12485e492a6e981b3248f509b66626ba259b0162',
        (
            0.017122000000000005,
            0.054885999999999976,
            0.04511799999999999,
            0.039155999999999996,
        ),
        (0, 0, 0, 0),
        '9383634f51e7d378904b7f8133dbd029644ac0842d3b379d34fcac8920346395',
    ),
    ('contended', 'per_copy'): (
        '4a63130e24b57444bb0b31b5d6fdb7d3bcc6498a96d8d75fed557a71b16cb91c',
        (
            0.09387799999999985,
            0.08158799999999991,
            0.08992599999999987,
            0.04361799999999997,
        ),
        (0, 0, 0, 0),
        'b5c148a4251c4e13d22dbbe31543c8d58558eddd57852629a0ae7bc03ea7daad',
    ),
    ('contended', 'header_overhead'): (
        'bd127547631f899e17065d072d522be9ebbd0e518a45c47192bfa51252f89942',
        (0.033687999999999996, 0.006641999999999999, 0.06043599999999999, 0.045714),
        (0, 0, 0, 0),
        'a129254498772c22708ae442407c55feaed00fb7030de131ba57df5fe3237c45',
    ),
    ('contended', 'header_overhead_per_copy'): (
        '4d3dee51c9c101a3ee3c6c6b02722fd331922fd1a894b85a276b8a989f5f8798',
        (
            0.07474399999999995,
            0.11705199999999986,
            0.10395668803233775,
            0.10691068803233773,
        ),
        (0, 0, 0, 0),
        '706bbe13673ae23193b23f82a310ef0a26bdd6224946412c7bddacdb9b43b0a2',
    ),
    ('contended', 'ttl'): (
        '9eff678fae199541ecdad865f44cabc925a12523e5262d9ed2f6c84e4e6b9229',
        (
            0.006319999999999998,
            0.013846000000000002,
            0.019498000000000005,
            0.013702000000000004,
        ),
        (2, 1, 1, 1),
        '9894c007f8c95bacd0ae71b2cce41ef848d8d4e07f7c99b0e8e6036e1634223f',
    ),
    ('contended', 'adversaries'): (
        'bffc1cc87f914bf263b7abb6fe27a4011aba55bf33df53ebaccf92e394aa571e',
        (
            0.009083999999999998,
            0.03075200000000001,
            0.020292000000000004,
            0.016426000000000003,
        ),
        (0, 0, 0, 0),
        'd546da4c14f02b0683e9e2f4fb77b6643f56ff97914cb59a3ead280de604ab25',
    ),
    ('contended', 'adversaries_no_beacons'): (
        '86f24fe1c7f520a4827699fdcff5ad1f46fb9dca288696e532da5f8843c0f899',
        (
            0.009083999999999998,
            0.03213800000000001,
            0.013188000000000002,
            0.02265000000000001,
        ),
        (0, 0, 0, 0),
        '202b4061da92869cfb3103e5ab2d4c7208a6ef4e8e86d30a728023026532938c',
    ),
    ('contended', 'jammer'): (
        '1463c28435f0882df8a9f512b696a0ba7c31914431b0f0b524395a9cd8ee0c10',
        (0.00933, 0.0, 0.020507983729494604, 0.014159983729494603),
        (0, 0, 0, 0),
        'ddda218c7d92dd8331c75226f9be14e37142aa263ab7bef483ab7dc857e5e599',
    ),
    ('contended', 'smt_partitioned'): (
        'a5757c48ef8ed71a2405b20e6105777cee61f1f18bfcf057873477d2717d848e',
        (0.0, 0.003827999999999999, 0.0, 0.0023999999999999994),
        (0, 0, 0, 0),
        'f944db8c68bd77d87e0d4f61dc653215e989e53ead2cdf1f7a161b5bb2574d66',
    ),
}


def _matrix_network(kind: str):
    if kind == "random":
        rng = np.random.default_rng(19)
        points = uniform_random_topology(200, 800.0, 800.0, rng)
        return build_network(points, RadioConfig())
    # Two 100-node islands 2 km apart: SMT's KMB tree cannot span them.
    left = uniform_random_topology(100, 400.0, 400.0, np.random.default_rng(3))
    right = uniform_random_topology(100, 400.0, 400.0, np.random.default_rng(4))
    points = list(left) + [Point(p.x + 2400.0, p.y) for p in right]
    return build_network(points, RadioConfig())


def _matrix_sessions(kind: str):
    if kind == "random":
        return MATRIX_SESSIONS
    # Sources on the left island, destinations on both.
    return ((0, (5, 150)), (10, (20, 30)), (40, (120, 180, 60)), (70, (1,)))


def _observe(engine: str, case: str):
    factory, kind, kwargs = (
        IDEAL_CASES if engine == "ideal" else CONTENDED_CASES
    )[case]
    network = _matrix_network(kind)
    sessions = _matrix_sessions(kind)
    if engine == "ideal":
        config = EngineConfig(collect_traces=True, **kwargs)
        protocol = factory()
        results = [
            run_task(network, protocol, source, dests, config=config, task_id=i)
            for i, (source, dests) in enumerate(sessions)
        ]
    else:
        config = EngineConfig(
            transmission_model="contended", collect_traces=True, **kwargs
        )
        results = run_contended_tasks(
            network,
            [(i, source, dests) for i, (source, dests) in enumerate(sessions)],
            factory,
            config=config,
            start_times=MATRIX_STARTS,
        )
    perf = json.dumps([r.perf for r in results], sort_keys=True)
    return (
        batch_digest(results),
        tuple(r.duration_s for r in results),
        tuple(r.dropped_ttl for r in results),
        hashlib.sha256(perf.encode()).hexdigest(),
    )


@pytest.mark.parametrize(
    "engine,case",
    [("ideal", case) for case in IDEAL_CASES]
    + [("contended", case) for case in CONTENDED_CASES],
)
def test_config_matrix_matches_pins(engine, case):
    assert _observe(engine, case) == MATRIX_PINS[(engine, case)]
