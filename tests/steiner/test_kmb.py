"""Tests for the Kou-Markowsky-Berman graph Steiner heuristic (SMT)."""

import networkx as nx
import numpy as np
import pytest

from repro.experiments.config import PaperConfig
from repro.experiments.sweep import make_network
from repro.geometry import Point
from repro.network import RadioConfig, build_network
from repro.network.topology import uniform_random_topology
from repro.routing import smt
from repro.steiner import kmb_steiner_tree
from repro.steiner.kmb import (
    tree_as_routing_schedule,
    tree_depths,
    weighted_adjacency,
)
from tests.conftest import make_grid_network


def weighted_path_graph(n, weight=1.0):
    graph = nx.Graph()
    for i in range(n - 1):
        graph.add_edge(i, i + 1, weight=weight)
    return graph


class TestKMB:
    def test_path_graph(self):
        graph = weighted_path_graph(6)
        tree = kmb_steiner_tree(weighted_adjacency(graph), [0, 5])
        assert tree.number_of_edges() == 5

    def test_prunes_useless_branches(self):
        # A star with extra arms: only the terminal arms survive.
        graph = nx.Graph()
        for leaf in (1, 2, 3, 4):
            graph.add_edge(0, leaf, weight=1.0)
        tree = kmb_steiner_tree(weighted_adjacency(graph), [1, 2])
        assert set(tree.nodes()) == {0, 1, 2}

    def test_single_terminal(self):
        graph = weighted_path_graph(3)
        tree = kmb_steiner_tree(weighted_adjacency(graph), [1])
        assert set(tree.nodes()) == {1}
        assert tree.number_of_edges() == 0

    def test_is_tree_and_spans_terminals(self):
        graph = nx.grid_2d_graph(5, 5)
        graph = nx.convert_node_labels_to_integers(graph)
        for u, v in graph.edges():
            graph[u][v]["weight"] = 1.0
        terminals = [0, 12, 24, 4]
        tree = kmb_steiner_tree(weighted_adjacency(graph), terminals)
        assert nx.is_tree(tree)
        assert all(t in tree for t in terminals)

    def test_approximation_bound(self):
        # KMB is a 2(1 - 1/L) approximation; check against brute force on a
        # small instance.
        graph = nx.Graph()
        edges = [
            (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 2.5),
            (4, 3, 2.5), (1, 4, 1.2), (2, 4, 1.2),
        ]
        for u, v, w in edges:
            graph.add_edge(u, v, weight=w)
        terminals = [0, 3, 4]
        tree = kmb_steiner_tree(weighted_adjacency(graph), terminals)
        kmb_weight = sum(d["weight"] for _, _, d in tree.edges(data=True))

        best = float("inf")
        import itertools

        nodes = list(graph.nodes())
        for r in range(len(terminals), len(nodes) + 1):
            for subset in itertools.combinations(nodes, r):
                if not set(terminals) <= set(subset):
                    continue
                sub = graph.subgraph(subset)
                if not nx.is_connected(sub):
                    continue
                mst_w = sum(
                    d["weight"]
                    for _, _, d in nx.minimum_spanning_edges(sub, data=True)
                )
                best = min(best, mst_w)
        assert kmb_weight <= 2.0 * best + 1e-9

    def test_missing_terminal_rejected(self):
        with pytest.raises(ValueError):
            kmb_steiner_tree(weighted_adjacency(weighted_path_graph(3)), [0, 99])

    def test_disconnected_terminals_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(2, 3, weight=1.0)
        with pytest.raises(ValueError):
            kmb_steiner_tree(weighted_adjacency(graph), [0, 3])

    def test_no_terminals_rejected(self):
        with pytest.raises(ValueError):
            kmb_steiner_tree(weighted_adjacency(weighted_path_graph(3)), [])

    def test_hop_metric_changes_tree(self):
        # Two routes between terminals: one with 2 long edges, one with 3
        # short edges.  Distance metric picks the short edges; hop metric
        # picks the 2-edge route.
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=10.0)
        graph.add_edge(1, 5, weight=10.0)
        graph.add_edge(0, 2, weight=4.0)
        graph.add_edge(2, 3, weight=4.0)
        graph.add_edge(3, 5, weight=4.0)
        by_distance = kmb_steiner_tree(weighted_adjacency(graph), [0, 5])
        by_hops = kmb_steiner_tree(
            weighted_adjacency(graph, lambda u, v, d: 1.0), [0, 5]
        )
        assert by_distance.number_of_edges() == 3
        assert by_hops.number_of_edges() == 2


class TestRoutingSchedule:
    def test_orients_away_from_root(self):
        graph = weighted_path_graph(4)
        tree = kmb_steiner_tree(weighted_adjacency(graph), [0, 3])
        schedule = tree_as_routing_schedule(tree, 0)
        assert schedule[0] == (1,)
        assert schedule[1] == (2,)
        assert schedule[3] == ()

    def test_depths(self):
        graph = weighted_path_graph(5)
        tree = kmb_steiner_tree(weighted_adjacency(graph), [0, 4])
        assert tree_depths(tree, 0, [4]) == {4: 4}

    def test_root_not_in_tree_rejected(self):
        graph = weighted_path_graph(3)
        tree = kmb_steiner_tree(weighted_adjacency(graph), [0, 2])
        with pytest.raises(ValueError):
            tree_as_routing_schedule(tree, 99)


# ---------------------------------------------------------------------------
# Differential check against the networkx oracle
# ---------------------------------------------------------------------------


def _reference_kmb(graph, terminals, weight="weight"):
    """KMB with step 1 on ``nx.single_source_dijkstra`` (the oracle).

    The list-based search in :mod:`repro.steiner.kmb` claims to replay
    networkx's Dijkstra exactly, so every tree it builds must equal this
    one node for node and edge for edge, in insertion order.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("KMB needs at least one terminal")
    for t in terminal_list:
        if t not in graph:
            raise ValueError(f"terminal {t} is not a node of the graph")
    if len(terminal_list) == 1:
        tree = nx.Graph()
        tree.add_node(terminal_list[0])
        return tree

    def edge_weight(u, v):
        data = graph[u][v]
        if callable(weight):
            return float(weight(u, v, data))
        return float(data.get(weight, 1.0))

    distances, paths = {}, {}
    for t in terminal_list:
        distances[t], paths[t] = nx.single_source_dijkstra(graph, t, weight=weight)
    closure = nx.Graph()
    for i, a in enumerate(terminal_list):
        for b in terminal_list[i + 1 :]:
            if b not in distances[a]:
                raise ValueError(f"terminals {a} and {b} are not connected")
            closure.add_edge(a, b, weight=distances[a][b])
    closure_mst = nx.minimum_spanning_tree(closure, weight="weight")
    expanded = nx.Graph()
    for a, b in closure_mst.edges():
        path = paths[a][b]
        for u, v in zip(path[:-1], path[1:]):
            expanded.add_edge(u, v, weight=edge_weight(u, v))
    pruned = nx.minimum_spanning_tree(expanded, weight="weight").copy()
    terminal_set = set(terminal_list)
    while True:
        leaves = [
            n for n in pruned.nodes() if pruned.degree(n) <= 1 and n not in terminal_set
        ]
        if not leaves:
            break
        pruned.remove_nodes_from(leaves)
    return pruned


def _outcome(build):
    """A tree as its exact node and edge lists, or the error it raised."""
    try:
        tree = build()
    except ValueError as exc:
        return ("error", str(exc))
    return ("tree", list(tree.nodes()), list(tree.edges(data=True)))


def _smt_tables(monkeypatch, network, source, destinations, metric, kmb=None):
    """SMT's forwarding tables, optionally with KMB swapped for ``kmb``."""
    protocol = smt.SMTProtocol(metric=metric)
    with monkeypatch.context() as patch:
        if kmb is not None:
            patch.setattr(smt, "kmb_steiner_tree", kmb)
        protocol.prepare_task(network, source, destinations)
    return (
        "tables",
        protocol._schedule,
        {node: sorted(below) for node, below in protocol._subtree_destinations.items()},
    )


def _table1_case(k, index):
    network = make_network(PaperConfig(), index)
    rng = np.random.default_rng(1000 + k)
    picks = rng.choice(network.node_count, size=k + 1, replace=False).tolist()
    return network, picks[0], tuple(picks[1:]), "distance"


def _lattice_case(pitch):
    side = 12 if pitch == 100.0 else 16
    network = make_grid_network(side, pitch, radio_range=150.0)
    rng = np.random.default_rng(int(pitch))
    picks = rng.choice(network.node_count, size=9, replace=False).tolist()
    return network, picks[0], tuple(picks[1:]), "distance"


def _churned_case():
    rng = np.random.default_rng(20060704)
    network = build_network(
        uniform_random_topology(300, 800.0, 800.0, rng), RadioConfig()
    )
    network.weighted_adjacency()  # built before the churn, then invalidated
    order = rng.permutation(300).tolist()
    for node_id in order[:20]:
        network.fail_node(node_id)
    for node_id in order[20:40]:
        network.move_node(
            node_id, Point(float(rng.uniform(0, 800)), float(rng.uniform(0, 800)))
        )
    survivors = order[40:]
    component = max(nx.connected_components(network.to_networkx()), key=len)
    picks = [n for n in survivors if n in component][:11]
    return network, picks[0], tuple(picks[1:]), "distance"


def _hops_case():
    network, source, destinations, _ = _table1_case(10, 1)
    return network, source, destinations, "hops"


NETWORK_CASES = {
    "table1-k2": lambda: _table1_case(2, 0),
    "table1-k3": lambda: _table1_case(3, 0),
    "table1-k10": lambda: _table1_case(10, 0),
    "table1-k25": lambda: _table1_case(25, 0),
    "table1-k50": lambda: _table1_case(50, 0),
    "lattice-100m": lambda: _lattice_case(100.0),
    "lattice-50m": lambda: _lattice_case(50.0),
    "churned-300": _churned_case,
    "hop-metric": _hops_case,
}


class TestMatchesNetworkxOracle:
    @pytest.mark.parametrize("case", sorted(NETWORK_CASES))
    def test_network_trees_and_smt_tables_identical(self, case, monkeypatch):
        network, source, destinations, metric = NETWORK_CASES[case]()
        weight = "weight" if metric == "distance" else (lambda u, v, d: 1.0)
        graph = network.to_networkx()
        terminals = [source] + [d for d in destinations if d != source]
        if metric == "distance":
            rows = network.weighted_adjacency()
        else:
            rows = weighted_adjacency(graph, weight)
        reference = _reference_kmb(graph, terminals, weight)
        got = _outcome(lambda: kmb_steiner_tree(rows, terminals))
        assert got == _outcome(lambda: reference)

        def oracle(_adjacency, oracle_terminals):
            assert list(oracle_terminals) == terminals
            return reference

        assert _smt_tables(
            monkeypatch, network, source, destinations, metric
        ) == _smt_tables(monkeypatch, network, source, destinations, metric, oracle)

    @pytest.mark.parametrize("metric", ["distance", "hops"])
    def test_non_contiguous_labels(self, metric):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=10.0)
        graph.add_edge(1, 5, weight=10.0)
        graph.add_edge(0, 2, weight=4.0)
        graph.add_edge(2, 3, weight=4.0)
        graph.add_edge(3, 5, weight=4.0)
        weight = "weight" if metric == "distance" else (lambda u, v, d: 1.0)
        for terminals in ([0, 5], [5, 0, 3], [1, 3], [0, 4], [4]):
            got = _outcome(
                lambda: kmb_steiner_tree(weighted_adjacency(graph, weight), terminals)
            )
            assert got == _outcome(lambda: _reference_kmb(graph, terminals, weight))

    def test_errors_match_in_order(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        graph.add_edge(2, 3, weight=1.0)
        rows = weighted_adjacency(graph)
        for terminals in ([], [0, 9], [0, 3, 9], [0, 3], [3, 1, 0]):
            got = _outcome(lambda: kmb_steiner_tree(rows, terminals))
            assert got[0] == "error"
            assert got == _outcome(lambda: _reference_kmb(graph, terminals))
