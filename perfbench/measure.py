"""Closed-loop measurement of one workload: setup, rounds, checks, metrics.

:func:`end_to_end` is what one untraced benchmark invocation reports:

* **setup** — the deployment is built ``setup_repeats`` times and
  ``setup_s`` is the median build plus the one-off publish to the
  shared-memory plane (``sessions10k`` only);
* **warm-up** — the first ``WARMUP_ROUNDS`` rounds run untimed, so
  one-off costs of a fresh process (lazy imports, first pool start) stay
  out of the rate; their outputs are still checked;
* **rounds** — round ``i`` starts when round ``i - 1`` has returned, and
  no round starts once the run's seconds are spent.  ``tasks_per_s`` is
  the task runs of the timed rounds over the seconds spent in them, so a
  sweep of ``n`` task runs takes ``n / tasks_per_s`` after its setup;
* **checks** — every round's digest is compared with the one pinned for
  ``(workload, seed, round)`` when there is one, and every task result is
  checked for invariants that hold on any seed.  A round that raises or
  mismatches counts all its task runs as failed; the run goes on.

:func:`per_layer` is the traced invocation: the spans of :mod:`spans` are
installed for the setup and the first half of the rounds, and removed for
the second half, whose rate is the untraced reference the tracing overhead
is measured against.  The two halves run different rounds, so on
workloads whose rounds differ much in cost the overhead is approximate.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.perf.counters import GLOBAL_COUNTERS
from repro.perf.shm import peak_published_bytes

from spans import Tracer, stage
from workloads import Workload

#: Untimed rounds before the timed ones.
WARMUP_ROUNDS = 1

#: Rounds (warm-up included) after which the peak resident set is read.
#: The geometry caches grow with every round, so a peak read at the end of
#: the run would grow with the number of rounds a faster program fits into
#: the same seconds.
RSS_ROUNDS = 2

#: Perf caches whose hits and misses the traced run reports.
CACHES = ("fermat_point", "reduction_ratio", "rrstr_tree")

Clock = Callable[[], float]


@dataclass
class Tally:
    """Operations attempted and failed, plus what each round produced."""

    attempted: int = 0
    failed: int = 0
    #: ``(round index, digest, seconds)`` of every round that returned.
    digests: List[Tuple[int, str, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Seconds spent inside rounds.
    busy: float = 0.0

    def mark(self) -> Tuple[int, float]:
        """Where the tally stands now, for :meth:`rate_since`."""
        return self.attempted, self.busy

    def rate_since(self, mark: Tuple[int, float] = (0, 0.0)) -> float:
        """Task runs attempted per second of round time since ``mark``."""
        attempted, busy = mark
        return (self.attempted - attempted) / (self.busy - busy)


def run_rounds(
    workload: Workload,
    first: int,
    seconds: float,
    pins: Mapping[int, str],
    tally: Tally,
    clock: Clock = time.perf_counter,
    rounds: Optional[int] = None,
) -> int:
    """Run rounds from index ``first`` until ``seconds`` have passed.

    At least one round always runs, and at most ``rounds`` when given.
    Returns the next round index.
    """
    start = clock()
    index = first
    while True:
        begin = clock()
        size = workload.round_size()
        digest = None
        try:
            done, digest = workload.round(index)
        except Exception:  # a failed round is counted, reported, and survived
            tally.attempted += size
            tally.failed += size
            tally.errors.append(f"round {index} raised:\n{traceback.format_exc()}")
        else:
            tally.attempted += done
            pinned = pins.get(index)
            if pinned is not None and pinned != digest:
                tally.failed += done
                tally.errors.append(
                    f"round {index}: digest {digest} does not match pinned {pinned}"
                )
        end = clock()
        if digest is not None:
            tally.digests.append((index, digest, end - begin))
        tally.busy += end - begin
        index += 1
        if end - start >= seconds or index - first == rounds:
            return index


def setup(workload: Workload, clock: Clock = time.perf_counter) -> float:
    """Build the deployment ``setup_repeats`` times, publish once; seconds."""
    samples = []
    for _ in range(workload.setup_repeats):
        gc.collect()  # no garbage of the previous sample is collected in this one
        begin = clock()
        workload.setup()
        samples.append(clock() - begin)
    begin = clock()
    workload.publish()
    return statistics.median(samples) + (clock() - begin)


def peak_rss_mib(workers: int) -> float:
    """Peak resident set of this process, plus its largest pool worker.

    A worker's peak includes the shared segments it mapped, which the
    parent's peak already holds, so those bytes are taken out of the
    worker's figure: the plane is counted once.  This process starts no
    other children, so ``RUSAGE_CHILDREN`` sees only pool workers.
    """
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workers <= 1:
        return parent
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    shared = peak_published_bytes() / (1024.0 * 1024.0)
    return parent + max(worker - shared, 0.0)


def end_to_end(
    workload: Workload,
    seconds: float,
    pins: Mapping[int, str],
    clock: Clock = time.perf_counter,
) -> Tuple[Tally, Dict[str, float]]:
    """The untraced run: ``setup_s``, ``tasks_per_s`` and ``peak_rss_mib``."""
    tally = Tally()
    setup_s = setup(workload, clock)
    index = run_rounds(workload, 0, 0.0, pins, tally, clock, rounds=WARMUP_ROUNDS)
    warm = tally.mark()
    start = clock()
    index = run_rounds(
        workload, index, seconds, pins, tally, clock, rounds=RSS_ROUNDS - WARMUP_ROUNDS
    )
    rss = peak_rss_mib(workload.workers)
    left = seconds - (clock() - start)
    if left > 0:
        run_rounds(workload, index, left, pins, tally, clock)
    metrics = {
        "setup_s": setup_s,
        "tasks_per_s": tally.rate_since(warm),
        "peak_rss_mib": rss,
    }
    return tally, metrics


def per_layer(
    workload: Workload,
    seconds: float,
    pins: Mapping[int, str],
    clock: Clock = time.perf_counter,
) -> Tuple[Tally, Dict[str, float], Dict[str, float]]:
    """The traced run: per-layer metrics and the raw span stages.

    Returns the tally, the metrics, and the counter delta of the traced
    half (its ``stage.bench.*`` keys are the spans).
    """
    tally = Tally()
    tracer = Tracer(clock)
    before = GLOBAL_COUNTERS.snapshot()
    tracer.install()
    try:
        begin = clock()
        setup(workload, clock)
        next_index = run_rounds(workload, 0, seconds / 2.0, pins, tally, clock)
        wall = clock() - begin
        link = dict(workload.link_totals)
    finally:
        tracer.uninstall()
    stages = GLOBAL_COUNTERS.delta_since(before)
    traced_rate = tally.rate_since()
    traced = tally.mark()
    run_rounds(workload, next_index, seconds / 2.0, pins, tally, clock)
    untraced_rate = tally.rate_since(traced)
    metrics = layer_metrics(stages, link, workload.workers)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead"] = untraced_rate / traced_rate - 1.0
    return tally, metrics, stages


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    stages: Mapping[str, float], link: Mapping[str, float], workers: int
) -> Dict[str, float]:
    """Per-layer metrics out of a traced counter delta and link totals."""

    def cum(layer: str) -> float:
        return stage(f"{layer}.cum", stages)

    def own(layer: str) -> float:
        return stage(f"{layer}.self", stages)

    def calls(layer: str) -> float:
        return stage(f"{layer}.calls", stages)

    frames = link.get("data_frames", 0.0)
    out = {
        "network.build_s": cum("network.build"),
        "steiner.rrstr_s": cum("steiner.rrstr"),
        "steiner.rrstr_calls": calls("steiner.rrstr"),
        "steiner.refine_s": cum("steiner.refine"),
        "steiner.kmb_s": cum("steiner.kmb"),
        "steiner.kmb_calls": calls("steiner.kmb"),
        "routing.handle_calls": calls("routing.handle") + calls("routing.pbm"),
        "routing.handle_self_s": own("routing.handle") + own("routing.pbm"),
        "routing.next_hop_s": cum("routing.next_hop") + cum("routing.perimeter"),
        "routing.pbm_s": cum("routing.pbm"),
        "routing.perimeter_hops": stage("routing.perimeter_hops", stages),
        "engine.self_s": own("engine"),
        "engine.digest_s": cum("engine.digest"),
        "simkit.events": stage("simkit.events", stages),
        "simkit.self_s": own("simkit"),
        "linklayer.frames": frames,
        "linklayer.retry_ratio": _ratio(link.get("retransmissions", 0.0), frames),
        "linklayer.collision_ratio": _ratio(link.get("collisions", 0.0), frames),
        "perf.pool_busy_s": cum("perf.pool_busy"),
        "perf.pool_efficiency": _ratio(
            cum("perf.pool_busy"), workers * cum("perf.stream")
        ),
        "perf.shm_publish_s": cum("perf.shm_publish"),
        "perf.shm_bytes": float(peak_published_bytes()),
        "sessions.fold_s": cum("sessions.fold"),
    }
    for cache in CACHES:
        hits = stages.get(f"{cache}.hits", 0.0)
        misses = stages.get(f"{cache}.misses", 0.0)
        out[f"perf.hit_ratio.{cache}"] = _ratio(hits, hits + misses)
        out[f"perf.hits.{cache}"] = hits
        out[f"perf.misses.{cache}"] = misses
    return out


def load_pins(
    table: Mapping[str, Mapping[str, List[str]]], name: str, seed: int
) -> Dict[int, str]:
    """The pinned round digests of ``(name, seed)``; empty when there are none."""
    return dict(enumerate(table.get(name, {}).get(str(seed), [])))
