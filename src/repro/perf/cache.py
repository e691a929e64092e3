"""Hot-path geometry memoization: the Fermat-point memo.

The memo is *pure*: keys are exact coordinate tuples and values are exactly
what :func:`repro.geometry.fermat.fermat_point` returns, so a hit is
bit-identical to a fresh computation and simulation results cannot depend on
cache state (enforced by ``tests/perf/test_cache.py``).  It is process-local;
parallel workers each warm their own.

The per-hop redundancy being removed (paper Section 4.2): rrSTR's refinement
passes recompute Fermat points of the same vertex triples once per pass.
Reduction ratios and whole rrSTR trees are not memoized: every forwarding
node roots its tree at its own location and the group distance strictly
decreases hop by hop, so those keys essentially never recur.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.geometry.fermat import fermat_point
from repro.geometry.point import Point
from repro.perf.counters import GLOBAL_COUNTERS

#: Entry cap; a full cache is flushed outright (cheap, and the memo is warm
#: again within one task).  Keys are 6-float tuples, so the resident set
#: stays in the tens of MB even at the cap.
_POINT_CACHE_CAP = 200_000

_FERMAT_CACHE: Dict[Tuple[float, ...], Point] = {}


def clear_caches() -> None:
    """Drop the memoized Fermat points (counters are left alone)."""
    _FERMAT_CACHE.clear()


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Current hit/miss/size stats of the Fermat-point memo."""
    ctr = GLOBAL_COUNTERS.counter("fermat_point")
    return {
        "fermat_point": {
            "hits": float(ctr.hits),
            "misses": float(ctr.misses),
            "hit_rate": ctr.hit_rate,
            "entries": float(len(_FERMAT_CACHE)),
        }
    }


def cached_fermat_point(a: Point, b: Point, c: Point) -> Point:
    """Memoized :func:`repro.geometry.fermat.fermat_point`."""
    key = (a[0], a[1], b[0], b[1], c[0], c[1])
    counter = GLOBAL_COUNTERS.counter("fermat_point")
    found = _FERMAT_CACHE.get(key)
    if found is not None:
        counter.hits += 1
        return found
    counter.misses += 1
    result = fermat_point(a, b, c)
    if len(_FERMAT_CACHE) >= _POINT_CACHE_CAP:
        _FERMAT_CACHE.clear()
    _FERMAT_CACHE[key] = result
    return result
