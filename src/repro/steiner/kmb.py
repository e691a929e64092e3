"""Kou–Markowsky–Berman (KMB) graph Steiner heuristic.

The paper's centralized SMT baseline [Kou et al. 1981] assumes the source
knows the entire topology and computes a near-optimal Steiner tree of the
unit-disk graph connecting itself and all destinations.  KMB is the classic
2(1 - 1/L)-approximation:

1. metric closure over the terminals (one shortest-path search per terminal),
2. MST of the closure,
3. expand closure edges back into shortest paths,
4. MST of the expanded subgraph,
5. prune non-terminal leaves.

The graph arrives as weighted adjacency rows: ``adjacency[v]`` is a tuple
of ``(neighbor, weight)`` pairs, or ``None`` where ``v`` is not a node
(:meth:`repro.network.graph.WirelessNetwork.weighted_adjacency`, or
:func:`weighted_adjacency` for an ``nx.Graph``).  Step 1 runs on these
plain lists (:func:`_shortest_paths`) instead of networkx's Dijkstra,
whose per-edge weight callback was most of SMT's cost.  It replays
networkx's ``_dijkstra_multisource`` step for step: a ``(dist, push
counter, node)`` heap with the counter restarting at ``0`` for the source,
relaxation only on a strict improvement, settled nodes skipped, and each
row visited in the graph's neighbor order.  Every float operation and
every heap tie-break is therefore the same, and the predecessor chain
spells the same path networkx's per-relaxation path lists do (the path to
``u`` is the path to the settled ``v`` plus ``u``), so the trees match
networkx's bit for bit, lattice ties included.
Steps 2–5 still use networkx on the small closure and expanded graphs.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import networkx as nx

WeightSpec = Union[str, Callable]

#: One node's row: its ``(neighbor, weight)`` pairs in neighbor order.
WeightedRow = Tuple[Tuple[int, float], ...]

#: Rows indexed by node id; ``None`` marks an id that is not a node.
WeightedAdjacency = Sequence[Optional[WeightedRow]]


def weighted_adjacency(
    graph: nx.Graph, weight: WeightSpec = "weight"
) -> List[Optional[WeightedRow]]:
    """Rows of an integer-labelled ``nx.Graph`` for :func:`kmb_steiner_tree`.

    ``weight`` is an edge attribute name (missing attributes weigh
    ``1.0``) or an ``f(u, v, data)`` callable, read as networkx reads it.
    Each row keeps the graph's own neighbor order, which is the order
    networkx's Dijkstra relaxes in; labels need not be contiguous.
    """
    weigh = weight if callable(weight) else (lambda u, v, data: data.get(weight, 1.0))
    rows: List[Optional[WeightedRow]] = [None] * (max(graph.nodes, default=-1) + 1)
    for u, neighbors in graph.adjacency():
        rows[u] = tuple((v, float(weigh(u, v, data))) for v, data in neighbors.items())
    return rows


def _shortest_paths(
    adjacency: WeightedAdjacency, source: int
) -> Tuple[List[float], List[bool], List[int]]:
    """Single-source Dijkstra over the rows, replaying networkx's order.

    Returns per-node ``(distance, settled, predecessor)`` lists; a node is
    reachable iff settled, and its path is the predecessor chain back to
    ``source``.  Weights must be finite and non-negative.
    """
    count = len(adjacency)
    distance = [math.inf] * count
    settled = [False] * count
    predecessor = [-1] * count
    distance[source] = 0
    heap: List[Tuple[float, int, int]] = [(0, 0, source)]
    pushes = 1
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        dist_v, _, v = pop(heap)
        if settled[v]:
            continue
        settled[v] = True
        for u, cost in adjacency[v]:  # type: ignore[union-attr]
            if settled[u]:
                continue
            vu_dist = dist_v + cost
            if vu_dist < distance[u]:
                distance[u] = vu_dist
                predecessor[u] = v
                push(heap, (vu_dist, pushes, u))
                pushes += 1
    return distance, settled, predecessor


def _edge_weight(adjacency: WeightedAdjacency, u: int, v: int) -> float:
    """Weight of the edge ``u -> v`` as row ``u`` lists it."""
    for neighbor, cost in adjacency[u]:  # type: ignore[union-attr]
        if neighbor == v:
            return cost
    raise KeyError((u, v))


def kmb_steiner_tree(
    adjacency: WeightedAdjacency,
    terminals: Sequence[int],
) -> nx.Graph:
    """Steiner tree spanning ``terminals`` via KMB.

    Args:
        adjacency: Weighted rows indexed by node id (see the module
            docstring).  Hop counts instead of meters — the metric the
            paper's figures report — are rows whose weights are all
            ``1.0``.
        terminals: Node ids to span; must all be present and mutually
            reachable.

    Returns:
        A tree subgraph of the graph containing every terminal, with each
        edge's ``weight`` attribute.

    Raises:
        ValueError: If terminals are missing or mutually unreachable.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("KMB needs at least one terminal")
    for t in terminal_list:
        if not 0 <= t < len(adjacency) or adjacency[t] is None:
            raise ValueError(f"terminal {t} is not a node of the graph")
    if len(terminal_list) == 1:
        tree = nx.Graph()
        tree.add_node(terminal_list[0])
        return tree

    # Step 1: metric closure restricted to the terminals.
    searches = {t: _shortest_paths(adjacency, t) for t in terminal_list}

    closure = nx.Graph()
    for i, a in enumerate(terminal_list):
        distance, settled, _ = searches[a]
        for b in terminal_list[i + 1 :]:
            if not settled[b]:
                raise ValueError(f"terminals {a} and {b} are not connected")
            closure.add_edge(a, b, weight=distance[b])

    # Step 2: MST of the closure.
    closure_mst = nx.minimum_spanning_tree(closure, weight="weight")

    # Step 3: expand closure edges into shortest paths of the base graph.
    expanded = nx.Graph()
    for a, b in closure_mst.edges():
        predecessor = searches[a][2]
        path = [b]
        while path[-1] != a:
            path.append(predecessor[path[-1]])
        path.reverse()
        for u, v in zip(path[:-1], path[1:]):
            expanded.add_edge(u, v, weight=_edge_weight(adjacency, u, v))

    # Step 4: MST of the expanded subgraph.
    expanded_mst = nx.minimum_spanning_tree(expanded, weight="weight")

    # Step 5: prune non-terminal leaves repeatedly.
    terminal_set = set(terminal_list)
    pruned = expanded_mst.copy()
    while True:
        leaves = [
            n for n in pruned.nodes() if pruned.degree(n) <= 1 and n not in terminal_set
        ]
        if not leaves:
            break
        pruned.remove_nodes_from(leaves)
    return pruned


def tree_as_routing_schedule(
    tree: nx.Graph, root: int
) -> Dict[int, Tuple[int, ...]]:
    """Orient a tree away from ``root``: node id -> ordered child ids.

    This is the forwarding table SMT embeds into its packets (dynamic source
    multicast style): each on-tree node forwards one copy per child.
    """
    if root not in tree:
        raise ValueError(f"root {root} is not in the tree")
    schedule: Dict[int, Tuple[int, ...]] = {}
    visited = {root}
    frontier = [root]
    while frontier:
        current = frontier.pop()
        children = tuple(sorted(n for n in tree.neighbors(current) if n not in visited))
        schedule[current] = children
        for child in children:
            visited.add(child)
            frontier.append(child)
    if len(visited) != tree.number_of_nodes():
        raise ValueError("tree is disconnected from the root")
    return schedule


def tree_depths(tree: nx.Graph, root: int, targets: Iterable[int]) -> Dict[int, int]:
    """Hop depth of each target from ``root`` along the tree."""
    depths = nx.single_source_shortest_path_length(tree, root)
    return {t: depths[t] for t in targets}
