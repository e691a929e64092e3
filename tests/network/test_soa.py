"""Struct-of-arrays network core: CSR adjacency, liveness, residual energy.

The batched CSR build must produce exactly the rows of the per-node grid
scan (``WirelessNetwork._build_neighbor_lists``, its scalar reference),
including after mutations.  These tests pin that contract plus the
flat-array state (``alive``, ``residual_energy_j``) and the shared planar
CSR overlays.
"""

import math
import random

import numpy as np
import pytest

from repro.geometry import Point
from repro.network import CSRAdjacency, RadioConfig, WirelessNetwork
from repro.network.topology import uniform_random_topology


def _deployment(seed: int = 11, count: int = 300) -> list:
    rng = np.random.default_rng(seed)
    return uniform_random_topology(count, 1000.0, 1000.0, rng)


class TestCSRAdjacency:
    def test_from_rows_round_trips(self):
        rows = [(1, 2), (0,), (0, 3), (2,), ()]
        csr = CSRAdjacency.from_rows(rows)
        assert len(csr) == 5
        assert csr.indptr.tolist() == [0, 2, 3, 5, 6, 6]
        for i, row in enumerate(rows):
            assert csr.row_tuple(i) == row
            assert csr.row(i).tolist() == list(row)
            assert csr.degree(i) == len(row)

    def test_row_is_read_only_slice(self):
        csr = CSRAdjacency.from_rows([(1,), (0,)])
        with pytest.raises(ValueError):
            csr.row(0)[0] = 99

    def test_row_tuple_holds_plain_hashable_ints(self):
        csr = CSRAdjacency.from_rows([(1, 2), (0,), (0,)])
        row = csr.row_tuple(0)
        assert all(type(i) is int for i in row)
        assert hash(row) == hash((1, 2))  # memo-key compatible

    def test_contains_binary_search(self):
        csr = CSRAdjacency.from_rows([tuple(range(1, 100, 2)), ()])
        for j in range(100):
            assert csr.contains(0, j) == (j % 2 == 1 and j >= 1)
        assert not csr.contains(1, 0)

    def test_set_row_overrides_without_touching_base(self):
        csr = CSRAdjacency.from_rows([(1, 2), (0, 2), (0, 1)])
        csr.set_row(1, (2,))
        assert csr.row_tuple(1) == (2,)
        assert csr.degree(1) == 1
        assert csr.contains(1, 2) and not csr.contains(1, 0)
        # untouched rows still read from the packed base
        assert csr.row_tuple(0) == (1, 2) and csr.row_tuple(2) == (0, 1)
        csr.set_row(1, ())
        assert csr.row_tuple(1) == () and csr.degree(1) == 0


class TestScalarReferenceEquivalence:
    """CSR rows equal the per-node grid scan (``_build_neighbor_lists``)."""

    def test_construction_matches_scalar_reference(self):
        points = _deployment()
        net = WirelessNetwork(points, RadioConfig())
        reference = CSRAdjacency.from_rows(net._build_neighbor_lists())
        assert net.adjacency.indptr.tolist() == reference.indptr.tolist()
        assert np.array_equal(net.adjacency.indices, reference.indices)
        for i in range(len(points)):
            assert net.neighbors_of(i) == reference.row_tuple(i)

    def test_are_neighbors_matches_membership(self):
        points = _deployment(seed=5, count=200)
        net = WirelessNetwork(points, RadioConfig())
        reference = net._build_neighbor_lists()
        rng = random.Random(3)
        for _ in range(500):
            a = rng.randrange(len(points))
            b = rng.randrange(len(points))
            expected = b in reference[a]
            assert (b in net.neighbors_of(a)) == expected
            assert net.are_neighbors(a, b) == expected

    def test_mutations_match_scalar_reference(self):
        points = _deployment(seed=8, count=150)
        net = WirelessNetwork(points, RadioConfig())
        victim = net.neighbors_of(0)[0]
        net.fail_node(victim)
        net.move_node(3, Point(500.0, 500.0))
        # The grid scan over the mutated deployment: the failed node is
        # gone from the grid, and node 3 sits at its new location.
        reference = net._build_neighbor_lists()
        for i in range(len(points)):
            expected = () if i == victim else reference[i]
            assert net.neighbors_of(i) == expected, i
            for j in expected:
                assert net.are_neighbors(i, j)
        assert not net.are_neighbors(0, victim)


class TestFlatNodeState:
    def test_alive_array_tracks_failures(self):
        net = WirelessNetwork(_deployment(count=50), RadioConfig())
        assert net.alive.all() and net.alive.dtype == np.bool_
        net.fail_node(7)
        assert not net.alive[7] and net.alive.sum() == 49
        assert net.failed_nodes == frozenset({7})

    def test_closest_node_skips_dead_nodes(self):
        points = [Point(0.0, 0.0), Point(10.0, 0.0), Point(100.0, 0.0)]
        net = WirelessNetwork(points, RadioConfig())
        assert net.closest_node_to(Point(1.0, 0.0)) == 0
        net.fail_node(0)
        assert net.closest_node_to(Point(1.0, 0.0)) == 1

    def test_residual_energy_defaults_unbounded(self):
        net = WirelessNetwork(_deployment(count=10), RadioConfig())
        assert math.isinf(net.residual_energy_of(0))
        assert math.isinf(net.drain_energy(0, 1e12))

    def test_residual_energy_drains_and_clamps(self):
        net = WirelessNetwork(
            _deployment(count=10), RadioConfig(), initial_energy_j=2.5
        )
        assert net.residual_energy_of(3) == 2.5
        assert net.drain_energy(3, 1.0) == 1.5
        assert net.drain_energy(3, 9.0) == 0.0  # clamped, node NOT auto-failed
        assert net.residual_energy_of(3) == 0.0
        assert net.alive[3]
        assert net.residual_energy_of(4) == 2.5  # others untouched
        with pytest.raises(ValueError):
            net.drain_energy(3, -0.1)

    def test_neighbor_ids_array_matches_tuple_api(self):
        net = WirelessNetwork(_deployment(count=120), RadioConfig())
        for i in range(120):
            ids = net.neighbor_ids_array(i)
            assert tuple(ids.tolist()) == net.neighbors_of(i)
        with pytest.raises(ValueError):
            net.neighbor_ids_array(0)[0] = 1


class TestPlanarCSROverlays:
    def test_overlay_rows_equal_per_node_queries(self):
        net = WirelessNetwork(_deployment(count=150), RadioConfig())
        gabriel = net.gabriel_adjacency()
        rng_csr = net.rng_adjacency()
        assert gabriel is net.gabriel_adjacency()  # cached
        for i in range(150):
            assert gabriel.row_tuple(i) == net.gabriel_neighbors_of(i)
            assert rng_csr.row_tuple(i) == net.rng_neighbors_of(i)
            # RNG ⊆ Gabriel ⊆ unit-disk, all in one representation
            assert set(rng_csr.row_tuple(i)) <= set(gabriel.row_tuple(i))
            assert set(gabriel.row_tuple(i)) <= set(net.neighbors_of(i))

    def test_overlays_invalidated_by_mutation(self):
        net = WirelessNetwork(_deployment(seed=2, count=100), RadioConfig())
        stale = net.gabriel_adjacency()
        victim = net.neighbors_of(0)[0]
        net.fail_node(victim)
        fresh = net.gabriel_adjacency()
        assert fresh is not stale
        rebuilt = WirelessNetwork(
            [net.location_of(i) for i in range(100)], RadioConfig()
        )
        rebuilt.fail_node(victim)
        for i in range(100):
            assert fresh.row_tuple(i) == rebuilt.gabriel_neighbors_of(i), i
