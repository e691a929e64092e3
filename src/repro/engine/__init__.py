"""Execution engine: runs multicast tasks over the simulation kernel.

The engine plays the role of the radio medium and the measurement rig that
ns-2 played for the paper.  One forwarding core applies each protocol's
per-hop decisions for every session: delivery bookkeeping, decision
validation, the hop-count TTL of the Figure-15 experiment, copy framing
and header sizing.  It runs over one of two media:

* the ideal channel of :func:`run_task`, which delivers location-addressed
  packets after their airtime and charges the Section-5.3 energy model
  for every transmission (sender power plus every in-range listener);
* the contended CSMA/ARQ channel of :func:`run_contended_tasks`
  (:mod:`repro.linklayer`), on which concurrent sessions fight for the air.

Both return per-task :class:`TaskResult` statistics.
"""

from repro.engine.digest import batch_digest, delivery_digest, task_digest
from repro.engine.runner import (
    DEFAULT_ENGINE_CONFIG,
    EngineConfig,
    run_contended_tasks,
    run_task,
)
from repro.engine.stats import TaskResult, summarize_results
from repro.engine.trace import CopyRecord, FrameRecord, TaskTrace

__all__ = [
    "DEFAULT_ENGINE_CONFIG",
    "EngineConfig",
    "run_task",
    "run_contended_tasks",
    "TaskResult",
    "summarize_results",
    "TaskTrace",
    "FrameRecord",
    "CopyRecord",
    "task_digest",
    "batch_digest",
    "delivery_digest",
]
