"""Layer spans for the traced run, recorded around calls into ``repro``.

The benchmark edits nothing in the program: :meth:`Tracer.install`
replaces a fixed list of module-level entry points (and a few methods,
such as each protocol's ``handle``) with wrappers that time each call, and
:meth:`Tracer.uninstall` puts the originals back.  Spans nest through a
per-process stack, so each layer gets its *cumulative* time (span
durations) and its *self* time (durations minus the part covered by child
spans).

Everything accumulates into the program's own ``GLOBAL_COUNTERS`` stage
keys (``stage.bench.<layer>.{cum,self,calls}``).  In a pool worker those
keys ride back to the parent in the perf delta every session chunk already
returns, and ``merge_worker_perf`` folds them in, so worker time is counted
without any channel of the benchmark's own.  That needs the workers to be
*forked* after the install (they inherit the wrappers); a pool that
starts workers any other way would silently drop their spans, so
:meth:`Tracer.install` refuses to run under another start method.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple

from repro.perf.counters import GLOBAL_COUNTERS
from repro.perf.shm import SharedNetworkPlane
from repro.routing.gmp import GMPProtocol
from repro.routing.grd import GRDProtocol
from repro.routing.lgs import LGSProtocol
from repro.routing.pbm import PBMProtocol
from repro.routing.smt import SMTProtocol
from repro.sessions.sketches import StreamStats
from repro.simkit.simulator import Simulator

# By module path: ``repro.steiner.rrstr`` the attribute is the function the
# package re-exports, not the module.
_sweep = import_module("repro.experiments.sweep")
_runner = import_module("repro.engine.runner")
_digest = import_module("repro.engine.digest")
_sessions = import_module("repro.sessions.runner")
_gmp = import_module("repro.routing.gmp")
_lgs = import_module("repro.routing.lgs")
_grd = import_module("repro.routing.grd")
_pbm = import_module("repro.routing.pbm")
_smt = import_module("repro.routing.smt")
_rrstr = import_module("repro.steiner.rrstr")

#: Prefix of every stage key the spans write.
PREFIX = "bench."

#: ``(owner, attribute, layer)``: what :func:`install` wraps.  Modules are
#: patched where the caller looks the name up (``repro.routing.gmp.rrstr``,
#: not ``repro.steiner.rrstr.rrstr``), so each call is seen exactly once.
TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (_sweep, "make_network", "network.build"),
    (SharedNetworkPlane, "publish", "perf.shm_publish"),
    (_runner, "run_task", "engine"),
    (_runner, "run_contended_tasks", "engine"),
    (_sessions, "run_task", "engine"),
    (_digest, "task_digest", "engine.digest"),
    (_sessions, "task_digest", "engine.digest"),
    (Simulator, "run", "simkit"),
    (GMPProtocol, "handle", "routing.handle"),
    (LGSProtocol, "handle", "routing.handle"),
    (GRDProtocol, "handle", "routing.handle"),
    (SMTProtocol, "handle", "routing.handle"),
    (PBMProtocol, "handle", "routing.pbm"),
    (_gmp, "best_neighbor_for_group", "routing.next_hop"),
    (_lgs, "greedy_next_hop", "routing.next_hop"),
    (_grd, "greedy_next_hop", "routing.next_hop"),
    (_gmp, "perimeter_next_hop", "routing.perimeter"),
    (_pbm, "perimeter_next_hop", "routing.perimeter"),
    (_gmp, "rrstr", "steiner.rrstr"),
    (_rrstr, "refine_tree", "steiner.refine"),
    (_smt, "kmb_steiner_tree", "steiner.kmb"),
    (_sessions, "run_session_stream", "perf.stream"),
    (_sessions, "run_session_chunk", "perf.pool_busy"),
    (_sessions, "fold_chain", "sessions.fold"),
    (StreamStats, "observe", "sessions.fold"),
)


class Tracer:
    """The per-process span stack; one instance is installed at a time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Child seconds accumulated by each open span, innermost last.
        self.stack: List[float] = []
        self.originals: List[Tuple[Any, str, Any]] = []

    def add(self, key: str, amount: float) -> None:
        GLOBAL_COUNTERS.add_stage_seconds(PREFIX + key, amount)

    def span(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``layer``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.stack.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += elapsed
                self.add(f"{layer}.cum", elapsed)
                self.add(f"{layer}.self", elapsed - children)
                self.add(f"{layer}.calls", 1.0)
            return result

        return traced

    def pool_span(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """The worker-side session chunk, returning every key it moved.

        ``run_session_chunk`` snapshots the counters only around its task
        loop; this span also covers its network lookup and is itself a
        stage key, so the delta it returns is taken around the whole call.
        """
        traced = self.span("perf.pool_busy", fn)

        @functools.wraps(fn)
        def chunk(*args: Any, **kwargs: Any) -> Any:
            before = GLOBAL_COUNTERS.snapshot()
            outcomes, _ = traced(*args, **kwargs)
            return outcomes, GLOBAL_COUNTERS.delta_since(before)

        return chunk

    def install(self) -> None:
        method = multiprocessing.get_start_method(allow_none=False)
        if method != "fork":
            raise RuntimeError(
                f"traced runs need forked pool workers to inherit the spans; "
                f"the start method here is {method!r}"
            )
        if self.originals:
            raise RuntimeError("tracer is already installed")
        for owner, attribute, layer in TARGETS:
            original = owner.__dict__[attribute]
            if layer == "perf.pool_busy":
                wrapper = self.pool_span(original)
            elif layer == "simkit":
                wrapper = self.span(layer, _counting_events(self, original))
            elif layer == "routing.perimeter":
                wrapper = self.span(layer, _counting_hops(self, original))
            else:
                wrapper = self.span(layer, original)
            self.originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self.originals:
            owner, attribute, original = self.originals.pop()
            setattr(owner, attribute, original)


def _counting_events(tracer: Tracer, run: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(run)
    def counted(simulator: Simulator, *args: Any, **kwargs: Any) -> Any:
        before = simulator.events_processed
        try:
            return run(simulator, *args, **kwargs)
        finally:
            tracer.add("simkit.events", float(simulator.events_processed - before))

    return counted


def _counting_hops(tracer: Tracer, next_hop: Callable[..., Any]) -> Callable[..., Any]:
    """Count the perimeter steps that found a next hop (``None`` = stuck)."""

    @functools.wraps(next_hop)
    def counted(*args: Any, **kwargs: Any) -> Any:
        step = next_hop(*args, **kwargs)
        if step is not None:
            tracer.add("routing.perimeter_hops", 1.0)
        return step

    return counted


def stage(key: str, stages: Dict[str, float]) -> float:
    """One ``bench.`` stage value out of a counter delta (0.0 when unmoved)."""
    return stages.get(f"stage.{PREFIX}{key}", 0.0)


def layer_keys(stages: Dict[str, float]) -> List[str]:
    """Every layer that recorded at least one span in ``stages``."""
    head = f"stage.{PREFIX}"
    return sorted(
        {
            key[len(head):].rsplit(".", 1)[0]
            for key in stages
            if key.startswith(head) and key.endswith(".calls")
        }
    )


def self_seconds(stages: Dict[str, float]) -> Dict[str, float]:
    """Self time of every layer that recorded a span."""
    return {layer: stage(f"{layer}.self", stages) for layer in layer_keys(stages)}
