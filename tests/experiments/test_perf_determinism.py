"""Bit-identity guarantees of the perf work: parallel fan-out and caching.

Two contracts from the perf layer are load-bearing for reproducibility:

* any worker count produces byte-identical results (trace digests equal);
* a warm Fermat-point memo changes nothing about simulation output.
"""

import numpy as np

from repro.engine import EngineConfig, batch_digest, run_task
from repro.experiments.config import PaperConfig, SMOKE_SCALE
from repro.experiments.figures import figure15, run_group_size_sweep
from repro.network import RadioConfig, build_network
from repro.network.topology import uniform_random_topology
from repro.perf.cache import clear_caches
from repro.routing import GMPProtocol

TRACING = EngineConfig(collect_traces=True)


def _sweep_digest(sweep) -> str:
    """Digest of every task result (traces included) in canonical order."""
    flat = []
    for label in sorted(sweep.results):
        for k in sorted(sweep.results[label]):
            flat.extend(sweep.results[label][k])
    return batch_digest(flat)


class TestParallelBitIdentity:
    def test_group_size_sweep_digest_equal_1_vs_4_workers(self):
        config = PaperConfig(node_count=250)
        serial = run_group_size_sweep(
            config, SMOKE_SCALE, engine_config=TRACING, workers=1
        )
        parallel = run_group_size_sweep(
            config, SMOKE_SCALE, engine_config=TRACING, workers=4
        )
        assert _sweep_digest(serial) == _sweep_digest(parallel)

    def test_figure15_identical_for_any_worker_count(self):
        config = PaperConfig(node_count=250)
        serial = figure15(config, SMOKE_SCALE, workers=1)
        parallel = figure15(config, SMOKE_SCALE, workers=4)
        assert serial.series == parallel.series


class TestCachePurity:
    def test_gmp_results_identical_cold_and_warm(self):
        rng = np.random.default_rng(23)
        points = uniform_random_topology(300, 1000.0, 1000.0, rng)
        network = build_network(points, RadioConfig())
        task_rng = np.random.default_rng(57)
        tasks = []
        for _ in range(10):
            picks = task_rng.choice(300, size=9, replace=False)
            tasks.append((int(picks[0]), [int(p) for p in picks[1:]]))

        def run_all():
            protocol = GMPProtocol()
            return [
                run_task(
                    network,
                    protocol,
                    source,
                    dests,
                    config=TRACING,
                    task_id=index,
                )
                for index, (source, dests) in enumerate(tasks)
            ]

        clear_caches()
        cold = run_all()
        warm = run_all()
        assert batch_digest(cold) == batch_digest(warm)
        hops = [r.delivered_hops for r in cold]
        assert hops == [r.delivered_hops for r in warm]
