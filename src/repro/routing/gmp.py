"""GMP: the paper's Geographic Multicast routing Protocol (Figure 7).

At every transmitting node:

1. build an rrSTR virtual Steiner tree over the remaining destinations;
2. the root's children are the *pivots*; each pivot's subtree terminals form
   its *group*;
3. for each pivot, pick the neighbor nearest to the pivot whose total
   distance to the group's destinations strictly beats the current node's;
4. when no such neighbor exists, split the group progressively (peel off
   the pivot's last child and promote it to a pivot of its own);
5. destinations whose singleton groups still find no next hop are *void*:
   they travel together as one perimeter-mode group toward their average
   location (Section 4.1) — note a void destination may instead have been
   absorbed into a routable group by the splitting above, the behaviour
   Figure 10 contrasts against PBM.

``GMPProtocol(radio_aware=False)`` is the paper's **GMPnr** ablation;
``next_hop_rule="closest-destination"`` is our ablation of the pivot-based
next-hop choice (using the group's nearest destination instead, LGS-style).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import distance
from repro.packets import Destination, MulticastPacket
from repro.routing.base import ForwardDecision, NodeView, RoutingProtocol, merge_decisions
from repro.routing.greedy import (
    PROGRESS_EPSILON,
    best_neighbor_for_group,
    total_distance,
)
from repro.routing.perimeter import enter_perimeter, perimeter_next_hop
from repro.steiner.rrstr import RRStrConfig, rrstr
from repro.steiner.tree import SteinerTree

_NEXT_HOP_RULES = ("pivot", "closest-destination")
_PERIMETER_EXITS = ("closer", "eager")


class GMPProtocol(RoutingProtocol):
    """The paper's GMP (and, with ``radio_aware=False``, GMPnr)."""

    def __init__(
        self,
        radio_aware: bool = True,
        next_hop_rule: str = "pivot",
        prose_one_in_range_rule: bool = False,
        perimeter_exit: str = "closer",
        merge_coincident: bool = True,
    ) -> None:
        """Configure the protocol.

        Args:
            radio_aware: Apply Section-3.3's radio-range rules in rrSTR
                (``False`` gives the paper's GMPnr variant).
            next_hop_rule: ``"pivot"`` (paper: neighbor nearest the pivot) or
                ``"closest-destination"`` (ablation: neighbor nearest the
                group's closest destination).
            prose_one_in_range_rule: rrSTR tie-break between the paper's
                pseudocode and prose (see :mod:`repro.steiner.rrstr`).
            perimeter_exit: ``"closer"`` — attempt to resume greedy routing
                only once the node's total distance beats the perimeter
                entry point (GPSR's rule, and the paper's own description of
                perimeter mode); ``"eager"`` — attempt at every hop (the
                literal reading of Section 4.1 steps 4–7; can livelock until
                the TTL fires, which is measurable in the Figure-15 bench).
            merge_coincident: Merge greedy copies that picked the same
                next hop into one packet (default).  Under the broadcast
                frame model the copies share a transmission regardless;
                merging additionally lets the receiving node treat them as
                one group again instead of handling each copy separately.
                Off is the literal per-group-copy reading (ablation).
        """
        if next_hop_rule not in _NEXT_HOP_RULES:
            raise ValueError(f"unknown next-hop rule {next_hop_rule!r}")
        if perimeter_exit not in _PERIMETER_EXITS:
            raise ValueError(f"unknown perimeter exit rule {perimeter_exit!r}")
        self.radio_aware = radio_aware
        self.next_hop_rule = next_hop_rule
        self.perimeter_exit = perimeter_exit
        self.merge_coincident = merge_coincident
        self.rrstr_config = RRStrConfig(
            radio_aware=radio_aware,
            prose_one_in_range_rule=prose_one_in_range_rule,
        )
        self.name = "GMP" if radio_aware else "GMPnr"

    def describe(self) -> str:
        parts = [self.name]
        if self.next_hop_rule != "pivot":
            parts.append(f"next-hop={self.next_hop_rule}")
        if self.perimeter_exit != "closer":
            parts.append(f"perimeter-exit={self.perimeter_exit}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # RoutingProtocol interface
    # ------------------------------------------------------------------

    def handle(
        self, view: NodeView, packet: MulticastPacket
    ) -> List[ForwardDecision]:
        if packet.perimeter is None:
            return self._handle_greedy(view, packet)
        return self._handle_perimeter(view, packet)

    # ------------------------------------------------------------------
    # Greedy (tree-splitting) operation
    # ------------------------------------------------------------------

    def _handle_greedy(
        self, view: NodeView, packet: MulticastPacket
    ) -> List[ForwardDecision]:
        decisions, void_group = self._split_and_route(view, packet)
        if void_group:
            decisions.extend(self._start_perimeter(view, packet, void_group))
        return decisions

    def _split_and_route(
        self, view: NodeView, packet: MulticastPacket
    ) -> Tuple[List[ForwardDecision], List[Destination]]:
        """Figure 7, steps 1–4: build the tree, group, select next hops.

        Returns the routable forwarding decisions and the list of void
        destinations left over after all splitting.
        """
        dest_by_ref: Dict[int, Destination] = {
            d.node_id: d for d in packet.destinations
        }
        tree = rrstr(
            view.location,
            [(d.node_id, d.location) for d in packet.destinations],
            view.radio_range,
            self.rrstr_config,
        )
        decisions: List[ForwardDecision] = []
        void_destinations: List[Destination] = []
        pivot_queue = deque(tree.pivots())
        while pivot_queue:
            pivot_vid = pivot_queue.popleft()
            group = [
                dest_by_ref[t.ref] for t in tree.terminals_under(pivot_vid)
            ]
            next_hop = self._next_hop_for_group(view, tree, pivot_vid, group)
            if next_hop is not None:
                decisions.append(
                    ForwardDecision(next_hop, packet.with_destinations(group))
                )
                continue
            children = tree.children_of(pivot_vid)
            if not children:
                # A lone destination with no useful neighbor: void.
                void_destinations.append(group[0])
                continue
            # Split: the pivot's last child becomes a pivot of its own.
            last_child = children[-1]
            tree.detach(last_child)
            tree.attach(0, last_child)
            pivot_queue.append(last_child)
            remaining = tree.children_of(pivot_vid)
            if len(remaining) == 1 and tree.vertex(pivot_vid).is_virtual:
                # A virtual pivot with a single child is pointless: promote
                # the child and drop the pivot (Figure 7, step 4, inner case).
                only_child = remaining[0]
                tree.detach(only_child)
                tree.attach(0, only_child)
                pivot_queue.append(only_child)
            else:
                # "continue with the same p" — retry with the reduced group.
                pivot_queue.appendleft(pivot_vid)
        if self.merge_coincident:
            decisions = merge_decisions(decisions)
        return decisions, void_destinations

    def _next_hop_for_group(
        self,
        view: NodeView,
        tree: SteinerTree,
        pivot_vid: int,
        group: Sequence[Destination],
    ) -> Optional[int]:
        group_locations = [d.location for d in group]
        if self.next_hop_rule == "pivot":
            target = tree.vertex(pivot_vid).location
        else:
            target = min(
                group_locations, key=lambda loc: distance(view.location, loc)
            )
        return best_neighbor_for_group(view, target, group_locations)

    # ------------------------------------------------------------------
    # Perimeter operation (Section 4.1)
    # ------------------------------------------------------------------

    def _start_perimeter(
        self,
        view: NodeView,
        packet: MulticastPacket,
        void_group: Sequence[Destination],
    ) -> List[ForwardDecision]:
        """Enter perimeter mode for the void group (one shared packet)."""
        state = enter_perimeter(view, void_group)
        step = perimeter_next_hop(view, state)
        if step is None:
            return []  # No planar way out: the group's delivery fails.
        next_hop, new_state = step
        return [
            ForwardDecision(next_hop, packet.with_perimeter(void_group, new_state))
        ]

    def _handle_perimeter(
        self, view: NodeView, packet: MulticastPacket
    ) -> List[ForwardDecision]:
        state = packet.perimeter
        assert state is not None
        may_exit = self.perimeter_exit == "eager" or (
            total_distance(view.location, packet.destination_locations)
            < state.entry_total_distance - PROGRESS_EPSILON
        )
        if may_exit:
            decisions, void_group = self._split_and_route(view, packet)
            if decisions and not void_group:
                # Step 5: every group found a valid next hop — all copies
                # leave perimeter mode (with_destinations cleared the flag).
                return decisions
            if decisions and void_group:
                # Step 7: some groups routed; the uncovered ones start a
                # *fresh* perimeter round with a new average destination.
                decisions.extend(self._start_perimeter(view, packet, void_group))
                return decisions
            # Step 6: nothing routable — remain in perimeter mode with the
            # same previous average destination (fall through).
        step = perimeter_next_hop(view, state)
        if step is None:
            return []
        next_hop, new_state = step
        return [
            ForwardDecision(
                next_hop, packet.with_perimeter(packet.destinations, new_state)
            )
        ]
