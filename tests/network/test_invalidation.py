"""Cache-invalidation regression tests for in-place network mutation.

The array-backed hot paths (per-cell SpatialGrid member arrays,
``neighbor_location_array``, planarization caches, SMT's weighted
adjacency rows) are all derived state;
``fail_node`` and ``move_node`` must invalidate exactly enough of it that
every subsequent query answers as if the network had been rebuilt from
scratch.  These tests warm every cache with a real multicast task first,
mutate mid-run, and then diff the mutated network against a fresh build.
"""

import numpy as np
import pytest

from repro.engine import run_task
from repro.engine.digest import task_digest
from repro.experiments.config import PaperConfig
from repro.experiments.sweep import make_network
from repro.geometry import Point
from repro.network import RadioConfig, build_network
from repro.network.graph import SpatialGrid
from repro.network.topology import uniform_random_topology
from repro.routing.gmp import GMPProtocol


def _make_points(n=300, seed=23, side=1000.0):
    rng = np.random.default_rng(seed)
    return uniform_random_topology(n, side, side, rng)


def _warm_all_caches(network):
    """Touch every derived structure so stale state cannot hide."""
    for node in range(network.node_count):
        network.neighbors_of(node)
        network.neighbor_location_array(node)
        network.gabriel_neighbors_of(node)
        network.rng_neighbors_of(node)
    network.weighted_adjacency()
    network.to_networkx()


def _assert_matches_fresh_build(mutated, fresh, id_map):
    """Every query on the mutated network == the fresh build, remapped.

    ``id_map`` maps surviving original ids to the fresh network's ids.
    """
    reverse = {new: old for old, new in id_map.items()}
    rows = mutated.weighted_adjacency()
    fresh_rows = fresh.weighted_adjacency()
    for old_id, new_id in id_map.items():
        # Same neighbors, same distance bits (== on floats is bitwise here).
        expected_row = tuple(sorted((reverse[v], w) for v, w in fresh_rows[new_id]))
        assert rows[old_id] == expected_row, old_id
        assert mutated.location_of(old_id) == fresh.location_of(new_id)
        expected_neighbors = tuple(
            sorted(reverse[v] for v in fresh.neighbors_of(new_id))
        )
        assert mutated.neighbors_of(old_id) == expected_neighbors, old_id
        expected_gabriel = tuple(
            sorted(reverse[v] for v in fresh.gabriel_neighbors_of(new_id))
        )
        assert tuple(sorted(mutated.gabriel_neighbors_of(old_id))) == expected_gabriel
        expected_rng = tuple(
            sorted(reverse[v] for v in fresh.rng_neighbors_of(new_id))
        )
        assert tuple(sorted(mutated.rng_neighbors_of(old_id))) == expected_rng
        # The cached location array must be aligned with the neighbor list.
        arr = mutated.neighbor_location_array(old_id)
        assert arr.shape == (len(mutated.neighbors_of(old_id)), 2)
        for row, neighbor in zip(arr, mutated.neighbors_of(old_id)):
            assert tuple(row) == tuple(mutated.location_of(neighbor))


def _grid_queries_match(mutated, fresh, id_map, side=1000.0, seed=91):
    """Range queries return the same ids in the same (rebuilt-grid) order."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        center = Point(float(rng.uniform(0, side)), float(rng.uniform(0, side)))
        radius = float(rng.uniform(20.0, 350.0))
        got = mutated.nodes_within(center, radius)
        expected = [
            old
            for old, new in sorted(id_map.items(), key=lambda kv: kv[1])
            if new in set(fresh.nodes_within(center, radius))
        ]
        assert sorted(got) == sorted(expected), (center, radius)
        # Order contract: identical to a grid built fresh from the survivors.
        remapped = [id_map[i] for i in got]
        assert remapped == fresh.nodes_within(center, radius), (center, radius)


class TestNodeFailures:
    def test_failures_mid_run_match_rebuilt_network(self):
        points = _make_points()
        network = build_network(points, RadioConfig())
        # Warm every cache with a real task before any mutation.
        run_task(network, GMPProtocol(), 0, [40, 120, 200, 280])
        _warm_all_caches(network)

        doomed = [17, 64, 133, 208, 271]
        for node_id in doomed:
            network.fail_node(node_id)
        assert network.failed_nodes == frozenset(doomed)

        survivors = [i for i in range(len(points)) if i not in set(doomed)]
        fresh = build_network([points[i] for i in survivors], RadioConfig())
        id_map = {old: new for new, old in enumerate(survivors)}

        _assert_matches_fresh_build(network, fresh, id_map)
        _grid_queries_match(network, fresh, id_map)
        # Failed nodes are gone from every view.
        for node_id in doomed:
            assert network.neighbors_of(node_id) == ()
            assert network.weighted_adjacency()[node_id] is None
            assert node_id not in network.to_networkx()
            for survivor in survivors:
                assert node_id not in network.neighbors_of(survivor)
        assert network.to_networkx().number_of_nodes() == len(survivors)

    def test_closest_node_skips_failed(self):
        points = _make_points(n=100, seed=5)
        network = build_network(points, RadioConfig())
        target = network.location_of(42)
        assert network.closest_node_to(target) == 42
        network.fail_node(42)
        replacement = network.closest_node_to(target)
        assert replacement != 42
        survivors = [i for i in range(100) if i != 42]
        fresh = build_network([points[i] for i in survivors], RadioConfig())
        id_map = {old: new for new, old in enumerate(survivors)}
        assert id_map[replacement] == fresh.closest_node_to(target)

    def test_double_failure_rejected(self):
        network = build_network(_make_points(n=50, seed=7), RadioConfig())
        network.fail_node(10)
        with pytest.raises(ValueError):
            network.fail_node(10)


class TestMobility:
    def test_moves_mid_run_match_rebuilt_network(self):
        points = list(_make_points())
        network = build_network(points, RadioConfig())
        run_task(network, GMPProtocol(), 0, [40, 120, 200, 280])
        _warm_all_caches(network)

        rng = np.random.default_rng(77)
        moved = {}
        for node_id in (12, 89, 157, 230, 295):
            new_location = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            network.move_node(node_id, new_location)
            moved[node_id] = new_location

        fresh_points = [moved.get(i, p) for i, p in enumerate(points)]
        fresh = build_network(fresh_points, RadioConfig())
        id_map = {i: i for i in range(len(points))}

        _assert_matches_fresh_build(network, fresh, id_map)
        _grid_queries_match(network, fresh, id_map)
        # Same ids, same topology: a task must produce a byte-identical result.
        mutated_result = run_task(network, GMPProtocol(), 0, [40, 120, 200, 280])
        fresh_result = run_task(fresh, GMPProtocol(), 0, [40, 120, 200, 280])
        assert task_digest(mutated_result) == task_digest(fresh_result)

    def test_move_cross_cell_and_back(self):
        """A node leaving its grid cell and returning restores exact state."""
        points = list(_make_points(n=120, seed=3))
        network = build_network(points, RadioConfig())
        _warm_all_caches(network)
        original = points[30]
        far = Point(original.x + 500.0 if original.x < 500.0 else original.x - 500.0,
                    original.y)
        network.move_node(30, far)
        network.move_node(30, original)
        fresh = build_network(points, RadioConfig())
        id_map = {i: i for i in range(len(points))}
        _assert_matches_fresh_build(network, fresh, id_map)
        _grid_queries_match(network, fresh, id_map)

    def test_move_failed_node_rejected(self):
        network = build_network(_make_points(n=50, seed=7), RadioConfig())
        network.fail_node(10)
        with pytest.raises(ValueError):
            network.move_node(10, Point(1.0, 1.0))


class TestWeightedAdjacencyIsLazy:
    """Only SMT reads the weighted rows; nothing else may pay to build them."""

    def test_build_network_leaves_rows_unbuilt(self):
        network = build_network(_make_points(n=80, seed=2), RadioConfig())
        assert network._weighted_rows is None
        network.is_connected()
        assert network._weighted_rows is None
        rows = network.weighted_adjacency()
        assert network.weighted_adjacency() is rows

    def test_make_network_leaves_rows_unbuilt(self):
        network = make_network(PaperConfig(node_count=120), 0)
        assert network._weighted_rows is None


class TestSpatialGridMutation:
    def test_remove_point_queries(self):
        rng = np.random.default_rng(11)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 500, size=(80, 2))]
        grid = SpatialGrid(pts, 75.0)
        grid.remove_point(13)
        grid.remove_point(55)
        for _ in range(40):
            center = Point(float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
            radius = float(rng.uniform(10.0, 200.0))
            got = grid.indices_within(center, radius)
            assert 13 not in got and 55 not in got
            expected = [
                i
                for i, p in enumerate(pts)
                if i not in (13, 55)
                and (p.x - center.x) ** 2 + (p.y - center.y) ** 2 <= radius * radius
            ]
            assert sorted(got) == sorted(expected)

    def test_remove_missing_point_raises(self):
        grid = SpatialGrid([Point(0.0, 0.0), Point(10.0, 10.0)], 5.0)
        grid.remove_point(0)
        with pytest.raises(KeyError):
            grid.remove_point(0)

    def test_move_point_order_matches_fresh_build(self):
        rng = np.random.default_rng(17)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 500, size=(60, 2))]
        grid = SpatialGrid(pts, 60.0)
        moves = {7: Point(480.0, 20.0), 31: Point(15.0, 470.0), 48: Point(250.0, 250.0)}
        for idx, where in moves.items():
            grid.move_point(idx, where)
        fresh_pts = [moves.get(i, p) for i, p in enumerate(pts)]
        fresh = SpatialGrid(fresh_pts, 60.0)
        for _ in range(40):
            center = Point(float(rng.uniform(0, 500)), float(rng.uniform(0, 500)))
            radius = float(rng.uniform(10.0, 250.0))
            assert grid.indices_within(center, radius) == fresh.indices_within(
                center, radius
            )
