"""The benchmark's four workloads, each a closed loop of deterministic rounds.

A workload owns one deployment, built by :meth:`Workload.setup` from the
run seed, and produces *rounds*: round ``i`` is a pure function of
``(seed, i)`` that runs a fixed batch of task runs back to back and returns
their count plus one SHA-256 digest over every simulated outcome.  The
runner starts round ``i + 1`` only when round ``i`` has finished, and stops
starting rounds once its time is up; a round's digest is what the pinned
digests check, so a change that moves any simulated statistic fails the
benchmark.

Every workload calls only public entry points of the ``repro`` package:
deployments through :func:`repro.experiments.sweep.make_network` /
``cached_network``, tasks through
:func:`repro.sessions.workload.generate_tasks` or
:class:`repro.sessions.arrivals.SessionWorkload`, protocols through
:func:`repro.experiments.sweep.build_protocol`, and execution through
``repro.engine.runner``, ``repro.sessions.runner`` and their digests.
Entry points are looked up on their module at call time, so the span
wrappers of :mod:`spans` see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Dict, Iterable, List, Optional, Tuple

import repro.engine.digest as engine_digest
import repro.engine.runner as engine_runner
import repro.experiments.sweep as sweep
import repro.sessions.runner as session_runner
from repro.engine import EngineConfig, TaskResult
from repro.experiments.config import PaperConfig
from repro.experiments.scale import scaled_config
from repro.network.graph import WirelessNetwork
from repro.perf.shm import SharedNetworkPlane
from repro.experiments.sessions import ARRIVAL_MODELS, SESSION_GROUPS
from repro.sessions.arrivals import SessionWorkload, exponential_starts
from repro.sessions.workload import generate_tasks
from repro.simkit.rng import RandomStreams, derive_seed

#: The paper's six protocols, PBM at three lambdas (the quick preset's).
PAPER_SPECS: Tuple[Tuple[object, ...], ...] = (
    ("GMP",),
    ("GMPnr",),
    ("LGS",),
    ("SMT",),
    ("GRD",),
    ("PBM", 0.0),
    ("PBM", 0.3),
    ("PBM", 0.6),
)

#: The distributed protocols the scale, sessions and contention sweeps run.
DISTRIBUTED_SPECS: Tuple[Tuple[object, ...], ...] = (("GMP",), ("LGS",), ("GRD",))


class RoundError(AssertionError):
    """A round's outputs broke an invariant every correct run keeps."""


def check_result(result: TaskResult, max_hops: int) -> None:
    """Raise :class:`RoundError` unless ``result`` is internally consistent.

    These hold for every protocol on every seed, so they check outputs on
    seeds that have no pinned digest: each delivered node was requested,
    each delivery took between 1 and ``max_hops`` hops, and nothing was
    delivered without a transmission.
    """
    requested = set(result.destination_ids)
    for node, hops in result.delivered_hops.items():
        if node not in requested:
            raise RoundError(f"task {result.task_id}: delivered to unrequested {node}")
        if not 1 <= hops <= max_hops:
            raise RoundError(f"task {result.task_id}: {hops} hops to {node}")
    if result.delivered_hops and result.transmissions < 1:
        raise RoundError(f"task {result.task_id}: delivered without transmitting")
    if result.energy_joules < 0.0 or result.duration_s < 0.0:
        raise RoundError(f"task {result.task_id}: negative energy or duration")


def digest_lines(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class Size:
    """The dimensions a workload scales with (full size, or tiny for tests)."""

    node_count: int
    group_sizes: Tuple[int, ...]
    sessions: int = 0


class Workload:
    """Base class: one deployment, deterministic rounds, optional pool."""

    name = ""
    #: Pool workers; 1 runs every round serially in this process.
    workers = 1
    #: Setup samples per run; setup_s is their median.
    setup_repeats = 21
    full = Size(0, ())
    tiny = Size(0, ())

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = int(seed)
        self.size = self.tiny if tiny else self.full
        self.streams = RandomStreams(self.seed)
        self.link_totals: Dict[str, float] = {}

    def setup(self) -> None:
        """Build (or rebuild) the deployment; the runner times each call."""
        raise NotImplementedError

    def publish(self) -> None:
        """Hand the built deployment to the workers (timed once, after setup)."""

    def round(self, index: int) -> Tuple[int, str]:
        """Run round ``index``; return ``(task runs, digest)``."""
        raise NotImplementedError

    def round_size(self) -> int:
        """Task runs in every round (counted as failed when one raises)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""


class _SerialBatch(Workload):
    """Shared shape of ``figures1k`` and ``scale50k``: one task per k, all specs."""

    specs: Tuple[Tuple[object, ...], ...] = ()

    def config(self) -> PaperConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.network = None  # drop the previous sample before building anew
        cfg = self.config()
        self.network = sweep.make_network(cfg, 0)
        self.engine = EngineConfig(max_path_length=cfg.max_path_length)

    def round_size(self) -> int:
        return len(self.size.group_sizes) * len(self.specs)

    def round(self, index: int) -> Tuple[int, str]:
        lines: List[str] = []
        for k in self.size.group_sizes:
            (task,) = generate_tasks(
                self.network,
                1,
                k,
                self.streams.stream(f"bench-{self.name}", index, k),
                first_task_id=index * 1000 + k,
            )
            for spec in self.specs:
                result = engine_runner.run_task(
                    self.network,
                    sweep.build_protocol(spec),
                    task.source_id,
                    task.destination_ids,
                    config=self.engine,
                    task_id=task.task_id,
                )
                check_result(result, self.engine.max_path_length)
                lines.append(f"{spec!r}|{engine_digest.task_digest(result)}")
        return len(lines), digest_lines(lines)


class Figures1k(_SerialBatch):
    """The paper's own comparison on the Table-1 deployment."""

    name = "figures1k"
    specs = PAPER_SPECS
    full = Size(1000, (3, 25))
    tiny = Size(200, (3, 6))

    def config(self) -> PaperConfig:
        side = 1000.0 * (self.size.node_count / 1000.0) ** 0.5
        return PaperConfig(
            master_seed=self.seed,
            node_count=self.size.node_count,
            field_width_m=side,
            field_height_m=side,
        )


class Scale50k(_SerialBatch):
    """50k nodes at Table-1 density: rrSTR-bound, the one large setup."""

    name = "scale50k"
    specs = DISTRIBUTED_SPECS
    setup_repeats = 5
    full = Size(50_000, (20, 50))
    tiny = Size(2_000, (5, 20))

    def config(self) -> PaperConfig:
        return scaled_config(PaperConfig(master_seed=self.seed), self.size.node_count)


class Sessions10k(Workload):
    """A pooled Poisson session stream over the shared-memory plane."""

    name = "sessions10k"
    workers = 2
    setup_repeats = 7
    full = Size(10_000, (), sessions=96)
    tiny = Size(1_000, (), sessions=8)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.deployment = scaled_config(
            PaperConfig(master_seed=self.seed), self.size.node_count
        )
        self.engine = EngineConfig(max_path_length=self.deployment.max_path_length)
        self.network: Optional[WirelessNetwork] = None
        self.plane: Optional[SharedNetworkPlane] = None

    def setup(self) -> None:
        """Build the deployment.

        The first call builds through ``cached_network``, the per-process
        memo the stream looks the deployment up in; later calls repeat the
        same build on a copy that is dropped, as setup-time samples.
        """
        if self.network is None:
            self.network = sweep.cached_network(self.deployment, 0)
        else:
            sweep.make_network(self.deployment, 0)

    def publish(self) -> None:
        """Publish the deployment to the plane the pool workers read."""
        assert self.network is not None, "publish() needs setup() first"
        self.plane = SharedNetworkPlane(seed=self.seed)
        if not self.plane.publish((self.deployment, 0, None), self.network):
            raise RuntimeError("the shared-memory plane refused the deployment")

    def round_size(self) -> int:
        return len(DISTRIBUTED_SPECS) * self.size.sessions

    def round(self, index: int) -> Tuple[int, str]:
        workload = SessionWorkload(
            seed=derive_seed(self.seed, "bench-sessions10k", index),
            node_count=self.size.node_count,
            arrival=ARRIVAL_MODELS["poisson"],
            groups=SESSION_GROUPS,
            first_task_id=index * 100_000,
        )
        done = 0
        lines: List[str] = []
        for spec in DISTRIBUTED_SPECS:
            report = session_runner.run_session_stream(
                workload,
                spec,
                self.deployment,
                total_sessions=self.size.sessions,
                engine=self.engine,
                workers=self.workers,
                plane=self.plane,
            )
            if report.completed != self.size.sessions:
                raise RoundError(
                    f"{spec[0]}: {report.completed} of {self.size.sessions} sessions"
                )
            if report.stats.failures > report.completed:
                raise RoundError(f"{spec[0]}: more failures than sessions")
            done += report.completed
            lines.append(f"{spec!r}|{report.chain_digest}")
        return done, digest_lines(lines)

    def close(self) -> None:
        if self.plane is not None:
            self.plane.close()
            self.plane = None
        # Creating the plane's segment started multiprocessing's resource
        # tracker, a helper process; stop it and wait for it to end.
        resource_tracker._resource_tracker._stop()


class Contended(Workload):
    """Concurrent sessions on the CSMA/ARQ channel with HELLO beacons."""

    name = "contended"
    full = Size(400, (8,), sessions=12)
    tiny = Size(120, (4,), sessions=3)
    #: Mean session inter-arrival time (seconds of simulated time).
    interarrival_s = 0.005

    def setup(self) -> None:
        self.network = None
        cfg = PaperConfig(master_seed=self.seed)
        self.network = sweep.make_network(cfg, 0, node_count=self.size.node_count)
        self.engine = EngineConfig(
            max_path_length=cfg.max_path_length,
            transmission_model="contended",
            loss_seed=self.seed,
        )

    def round_size(self) -> int:
        return len(DISTRIBUTED_SPECS) * self.size.sessions

    def round(self, index: int) -> Tuple[int, str]:
        (k,) = self.size.group_sizes
        tasks = generate_tasks(
            self.network,
            self.size.sessions,
            k,
            self.streams.stream("bench-contended-tasks", index),
            first_task_id=index * 1000,
        )
        starts = exponential_starts(
            self.streams.stream("bench-contended-arrivals", index),
            len(tasks),
            self.interarrival_s,
        )
        sessions = [t.as_session_tuple() for t in tasks]
        lines: List[str] = []
        for spec in DISTRIBUTED_SPECS:
            results = engine_runner.run_contended_tasks(
                self.network,
                sessions,
                lambda spec=spec: sweep.build_protocol(spec),
                config=self.engine,
                start_times=starts,
            )
            for result in results:
                check_result(result, self.engine.max_path_length)
                self._count_link(result.perf or {})
                lines.append(f"{spec!r}|{engine_digest.task_digest(result)}")
        return len(lines), digest_lines(lines)

    def _count_link(self, perf: Dict[str, float]) -> None:
        for key in ("data_frames", "retransmissions", "collisions"):
            self.link_totals[key] = self.link_totals.get(key, 0.0) + perf.get(
                f"mac.{key}", 0.0
            )


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Figures1k, Scale50k, Sessions10k, Contended)
}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return cls(seed, tiny)
