"""Additional perimeter-mode behaviour: exit policies and face changes."""

import pytest

from repro.engine import EngineConfig, run_task
from repro.geometry import Point
from repro.routing.gmp import GMPProtocol
from repro.routing.pbm import PBMProtocol
from tests.routing.helpers import network_from_points


def ring_network():
    """Ring around a void with an entry spur (west) and a target (east)."""
    points = [
        Point(0, 200),     # 0: source (west)
        Point(80, 320),    # 1..7: ring
        Point(200, 380),
        Point(320, 320),
        Point(400, 200),
        Point(320, 80),
        Point(200, 20),
        Point(80, 80),
        Point(540, 200),   # 8: destination east of the ring
    ]
    return network_from_points(points, radio_range=150.0)


class TestExitPolicies:
    @pytest.mark.parametrize("exit_rule", ["closer", "eager"])
    def test_both_policies_deliver_on_ring(self, exit_rule):
        net = ring_network()
        protocol = GMPProtocol(perimeter_exit=exit_rule)
        result = run_task(
            net, protocol, 0, [8], config=EngineConfig(max_path_length=60)
        )
        assert result.success, f"{exit_rule} failed: {result.failed_destinations}"

    def test_eager_never_cheaper_than_closer(self):
        # The eager policy may bounce between greedy and perimeter; it can
        # use extra hops but must not be dramatically better (that would
        # mean the closer-rule is broken).
        net = ring_network()
        closer = run_task(
            net, GMPProtocol(perimeter_exit="closer"), 0, [8],
            config=EngineConfig(max_path_length=60),
        )
        eager = run_task(
            net, GMPProtocol(perimeter_exit="eager"), 0, [8],
            config=EngineConfig(max_path_length=60),
        )
        assert closer.success
        assert closer.transmissions <= eager.transmissions + 2

    def test_pbm_perimeter_on_ring(self):
        net = ring_network()
        result = run_task(
            net, PBMProtocol(), 0, [8], config=EngineConfig(max_path_length=60)
        )
        assert result.success


class TestMultiDestinationPerimeter:
    def test_far_side_group_shares_the_rim_path(self):
        # Two destinations past the east rim: greedy progress exists all
        # along a *convex* rim (no perimeter needed), and the group shares
        # a single packet until the last hop fans out.
        points = [
            Point(0, 200),
            Point(80, 320), Point(200, 380), Point(320, 320),
            Point(400, 200),
            Point(320, 80), Point(200, 20), Point(80, 80),
            Point(520, 250),   # 8: destination NE (in range of the east rim)
            Point(520, 150),   # 9: destination SE
        ]
        net = network_from_points(points, radio_range=150.0)
        result = run_task(
            net, GMPProtocol(), 0, [8, 9],
            config=EngineConfig(max_path_length=60, collect_traces=True),
        )
        assert result.success
        # Shared trunk: one split event, at the rim node next to both.
        assert result.trace.split_events() == 1
        assert result.delivered_hops[8] == result.delivered_hops[9]

    def test_concave_trap_forces_perimeter_for_group(self):
        # A concave pocket: the corridor node has no neighbor with progress
        # toward either destination behind the wall — the group enters
        # perimeter mode together and recovers around the arm.
        points = [
            Point(0, 0),       # 0: source
            Point(130, 0),     # 1: corridor node (local minimum)
            Point(100, 130),   # 2: northern detour
            Point(200, 220),   # 3: detour relay
            Point(330, 240),   # 4: detour relay east
            Point(400, 120),   # 5: behind-the-wall relay
            Point(420, -20),   # 6: destination A (east, behind the gap)
            Point(430, 90),    # 7: destination B
        ]
        net = network_from_points(points, radio_range=150.0)
        result = run_task(
            net, GMPProtocol(), 0, [6, 7],
            config=EngineConfig(max_path_length=60, collect_traces=True),
        )
        assert result.success
        assert result.trace.perimeter_copy_count() >= 1

    def test_partial_exit_starts_fresh_round(self):
        # Mixed group where one destination becomes greedily routable
        # before the other: step 7 of Section 4.1 — the uncovered remainder
        # restarts perimeter mode with a new average target.  We only assert
        # end-to-end delivery (the mechanism is exercised by construction).
        points = [
            Point(0, 200),
            Point(80, 320), Point(200, 380), Point(320, 320),
            Point(400, 200),
            Point(320, 80), Point(200, 20), Point(80, 80),
            Point(420, 330),   # 8: destination just past the NE rim
            Point(520, 150),   # 9: destination further SE
        ]
        net = network_from_points(points, radio_range=150.0)
        result = run_task(
            net, GMPProtocol(), 0, [8, 9],
            config=EngineConfig(max_path_length=80),
        )
        assert 8 in result.delivered_hops
        assert 9 in result.delivered_hops
