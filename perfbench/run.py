"""End-to-end benchmark of the GMP reproduction: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures1k --seed 20060704 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``tasks_per_s``,
``peak_rss_mib``); ``--trace 1`` reports the per-layer metrics of a run
with layer spans installed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Round digests
go to standard error, so two commits can be compared on any seed; seeds
with pinned digests (``pins.json``) are checked against them.

The workloads and their rationale are in ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")

#: The seed the pinned digests were recorded for (the paper config's).
DEFAULT_SEED = 20060704


def load_units() -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_sigterm(signum: int, frame: object) -> None:
    # Unwind through the ``finally`` blocks, so a terminated run still shuts
    # its pool down and unlinks its shared-memory segment.
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no repro package under {os.path.join(ROOT, 'src')}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import measure
    import spans
    from workloads import make_workload

    with open(PINS, encoding="utf-8") as handle:
        pins = measure.load_pins(json.load(handle), args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    try:
        if args.trace:
            tally, metrics, stages = measure.per_layer(workload, args.seconds, pins)
        else:
            tally, metrics = measure.end_to_end(workload, args.seconds, pins)
    finally:
        workload.close()

    for index, digest, seconds in tally.digests:
        print(f"round {index} digest {digest} in {seconds:.3f} s", file=sys.stderr)
    for error in tally.errors:
        print(error, file=sys.stderr)
    if not pins:
        print(
            f"seed {args.seed} has no pinned digests; compare the round "
            "digests above between commits",
            file=sys.stderr,
        )
    units = load_units()
    for name, value in sorted(metrics.items()):
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    if args.trace:
        own = spans.self_seconds(stages)
        for layer, seconds in sorted(own.items(), key=lambda item: -item[1]):
            share = seconds / metrics["trace.wall_s"]
            print(
                f"{args.workload} self time {layer}: {seconds:.3f} s "
                f"= {share:.1%} of the traced wall"
            )
    print(
        f"{args.workload} failed/attempted = {tally.failed}/{tally.attempted} "
        f"over {len(tally.digests)} rounds"
    )
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
