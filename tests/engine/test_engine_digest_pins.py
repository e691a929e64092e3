"""Stored trace and delivery digests of both engines on a fixed scenario.

The digests were recorded before the array network core lost its
object-graph twin, the simulator its calendar-queue backend and rrSTR its
reduction-ratio and tree memos.  Every traced frame of the default engine
AND of the contended MAC engine must still hash to the same values; a
behaviour change anywhere below the engine shows up here.
"""

import numpy as np

from repro.engine import (
    EngineConfig,
    batch_digest,
    delivery_digest,
    run_contended_tasks,
    run_task,
)
from repro.network import RadioConfig, build_network
from repro.network.topology import uniform_random_topology
from repro.routing import GMPProtocol

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
        _build(), sessions, GMPProtocol, collect_trace=True
    )
    assert batch_digest(results) == CONTENDED_BATCH_DIGEST
    assert (
        tuple(delivery_digest(r) for r in results) == CONTENDED_DELIVERY_DIGESTS
    )
