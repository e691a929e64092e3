"""Purity and isolation tests for the Fermat-point memo."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.geometry.fermat import fermat_point
from repro.perf.cache import cache_stats, cached_fermat_point, clear_caches


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _random_triples(count, seed=11):
    rng = np.random.default_rng(seed)
    return [
        tuple(Point(*rng.uniform(0, 1000, 2)) for _ in range(3))
        for _ in range(count)
    ]


class TestGeometryMemos:
    def test_fermat_hit_is_bit_identical(self):
        for a, b, c in _random_triples(25):
            fresh = fermat_point(a, b, c)
            first = cached_fermat_point(a, b, c)  # miss
            second = cached_fermat_point(a, b, c)  # hit
            assert first == fresh
            assert second == fresh

    def test_cache_stats_shape(self):
        a, b, c = _random_triples(1)[0]
        cached_fermat_point(a, b, c)
        stats = cache_stats()
        assert set(stats) == {"fermat_point"}
        assert stats["fermat_point"]["entries"] == 1.0
        assert {"hits", "misses", "hit_rate", "entries"} <= set(
            stats["fermat_point"]
        )
        clear_caches()
        assert cache_stats()["fermat_point"]["entries"] == 0.0
