"""Record the round digests every run on the default seed is checked against.

    python3 perfbench/pin.py [--seconds 90] [workload ...]

Runs each named workload (all by default) on the default seed for the given
time and writes its round digests into ``pins.json``, replacing that
workload's entry.  Pin for about three times a run's length, so that a run
of a much faster program is still checked on every round it completes.
Only re-pin when a change is *meant* to alter simulated outcomes, and say
so in the change: a speed-only change must leave every pin matching.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import DEFAULT_SEED, PINS, ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=90.0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import measure
    from workloads import WORKLOADS, make_workload

    with open(PINS, encoding="utf-8") as handle:
        table = json.load(handle)
    for name in args.workloads or WORKLOADS:
        workload = make_workload(name, DEFAULT_SEED)
        tally = measure.Tally()
        try:
            measure.setup(workload)
            measure.run_rounds(workload, 0, args.seconds, {}, tally)
        finally:
            workload.close()
        if tally.failed:
            print("\n".join(tally.errors), file=sys.stderr)
            return 1
        table[name] = {str(DEFAULT_SEED): [digest for _, digest, _ in tally.digests]}
        print(f"{name}: pinned {len(tally.digests)} rounds")
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
