"""Self-tests of the benchmark code on tiny workloads.

    python3 -m pytest perfbench/test_perfbench.py -q

They run in seconds and are outside the repository's tier-1 test paths.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _tiny(name: str) -> workloads.Workload:
    workload = workloads.make_workload(name, SEED, tiny=True)
    measure.setup(workload)
    return workload


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_round_repeats_its_digest(name: str) -> None:
    digests = []
    for _ in range(2):
        workload = _tiny(name)
        try:
            digests.append(workload.round(0))
        finally:
            workload.close()
    assert digests[0] == digests[1]
    assert digests[0][0] == workload.round_size()


def test_corrupted_pin_counts_failures() -> None:
    workload = _tiny("figures1k")
    tally = measure.Tally()
    measure.run_rounds(workload, 0, 0.0, {0: "0" * 64}, tally)
    assert tally.attempted == workload.round_size()
    assert tally.failed == tally.attempted
    assert "does not match pinned" in tally.errors[0]


def test_round_exception_counts_failures() -> None:
    class Broken(workloads.Figures1k):
        def round(self, index: int):  # type: ignore[override]
            raise RuntimeError("boom")

    workload = Broken(SEED, tiny=True)
    measure.setup(workload)
    tally = measure.Tally()
    measure.run_rounds(workload, 0, 0.0, {}, tally)
    assert (tally.attempted, tally.failed) == (workload.round_size(),) * 2
    assert "boom" in tally.errors[0]


def test_warm_up_is_checked_but_not_timed() -> None:
    workload = workloads.make_workload("figures1k", SEED, tiny=True)
    tally, metrics = measure.end_to_end(workload, 0.0, {})
    size = workload.round_size()
    # One warm-up round, then the one timed round the peak RSS waits for.
    assert [index for index, _, _ in tally.digests] == [0, 1]
    assert tally.attempted == 2 * size and tally.failed == 0
    timed_s = tally.digests[1][2]
    assert metrics["tasks_per_s"] == pytest.approx(size / timed_s)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_self_times_fit_the_wall(name: str) -> None:
    workload = workloads.make_workload(name, SEED, tiny=True)
    try:
        tally, metrics, stages = measure.per_layer(workload, 0.0, {})
    finally:
        workload.close()
    assert tally.failed == 0
    own = spans.self_seconds(stages)
    assert own, "no spans recorded"
    assert all(seconds >= -1e-9 for seconds in own.values()), own
    # Pool workers run alongside the parent: each adds up to one wall.
    processes = 1 if workload.workers == 1 else 1 + workload.workers
    assert sum(own.values()) <= metrics["trace.wall_s"] * processes + 1e-6
    assert all(name in metrics for name in _per_layer_names())
    # The tracer puts every wrapped entry point back.
    for owner, attribute, _ in spans.TARGETS:
        assert not hasattr(owner.__dict__[attribute], "__wrapped__")


def _per_layer_names() -> list:
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


def test_run_refuses_a_tree_without_the_program(tmp_path) -> None:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for entry in os.listdir(HERE):
        if entry.endswith((".py", ".json")):
            (bench / entry).write_bytes(open(os.path.join(HERE, entry), "rb").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
