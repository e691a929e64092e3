"""Tests for execution tracing and injected faults (losses, dead nodes)."""

import pytest

from repro.engine import EngineConfig, run_task
from repro.geometry import Point
from repro.routing.gmp import GMPProtocol
from repro.routing.grd import GRDProtocol
from tests.conftest import make_line_network
from tests.routing.helpers import network_from_points

TRACING = EngineConfig(collect_traces=True)


class TestTracing:
    def test_no_trace_by_default(self):
        net = make_line_network(4, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [3])
        assert result.trace is None

    def test_trace_records_every_frame(self):
        net = make_line_network(4, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [3], config=TRACING)
        trace = result.trace
        assert trace is not None
        assert len(trace.frames) == result.transmissions
        assert trace.traversed_edges() == {(0, 1), (1, 2), (2, 3)}
        assert trace.relay_nodes() == {0, 1, 2}

    def test_split_events_counted(self):
        net = network_from_points(
            [Point(0, 0), Point(100, 0), Point(-100, 0)], radio_range=150.0
        )
        result = run_task(net, GMPProtocol(), 0, [1, 2], config=TRACING)
        assert result.trace.split_events() == 1
        assert result.trace.fanout_histogram() == {2: 1}

    def test_total_meters(self):
        net = make_line_network(3, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [2], config=TRACING)
        assert result.trace.total_meters(net) == pytest.approx(200.0)
        assert result.trace.mean_hop_meters(net) == pytest.approx(100.0)

    def test_perimeter_copies_flagged(self):
        # Destination behind the only neighbor: the packet must enter
        # perimeter mode, which the trace records.
        net = network_from_points(
            [Point(0, 0), Point(100, 0), Point(-120, 200), Point(30, 130)],
            radio_range=150.0,
        )
        result = run_task(net, GMPProtocol(), 0, [2], config=TRACING)
        assert result.trace.perimeter_copy_count() >= 1


class TestLinkLoss:
    def test_zero_loss_is_lossless(self):
        net = make_line_network(5, spacing=100.0)
        result = run_task(
            net, GMPProtocol(), 0, [4],
            config=EngineConfig(link_loss_rate=0.0),
        )
        assert result.success

    def test_certain_loss_kills_delivery_but_charges_energy(self):
        net = make_line_network(3, spacing=100.0)
        result = run_task(
            net, GMPProtocol(), 0, [2],
            config=EngineConfig(link_loss_rate=0.999999, collect_traces=True),
        )
        assert not result.success
        assert result.transmissions == 1  # The frame was sent and paid for.
        assert result.trace.lost_copy_count() == 1

    def test_loss_is_reproducible_per_seed(self, dense_network):
        config = EngineConfig(link_loss_rate=0.3, loss_seed=5)
        a = run_task(dense_network, GMPProtocol(), 0, [50, 100, 150], config=config)
        b = run_task(dense_network, GMPProtocol(), 0, [50, 100, 150], config=config)
        assert a.delivered_hops == b.delivered_hops
        assert a.transmissions == b.transmissions

    def test_loss_rate_degrades_delivery(self, dense_network):
        lossless = sum(
            run_task(dense_network, GRDProtocol(), s, [s + 50, s + 100]).success
            for s in range(0, 100, 10)
        )
        lossy = sum(
            run_task(
                dense_network, GRDProtocol(), s, [s + 50, s + 100],
                config=EngineConfig(link_loss_rate=0.4, loss_seed=s),
            ).success
            for s in range(0, 100, 10)
        )
        assert lossy < lossless

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            EngineConfig(link_loss_rate=1.0)
        with pytest.raises(ValueError):
            EngineConfig(link_loss_rate=-0.1)


class TestFailedNodes:
    def test_packets_into_dead_nodes_vanish(self):
        net = make_line_network(5, spacing=100.0)
        result = run_task(
            net, GMPProtocol(), 0, [4],
            config=EngineConfig(
                failed_node_ids=frozenset({2}), collect_traces=True
            ),
        )
        assert not result.success
        assert result.trace.lost_copy_count() >= 1

    def test_failure_off_the_route_is_harmless(self):
        net = make_line_network(5, spacing=100.0)
        # Node 4 is the destination's far side; killing an unrelated node
        # does not matter because the route 0-1-2-3 never touches it.
        result = run_task(
            net, GMPProtocol(), 0, [3],
            config=EngineConfig(failed_node_ids=frozenset({4})),
        )
        assert result.success

    def test_dead_source_rejected(self):
        net = make_line_network(3, spacing=100.0)
        with pytest.raises(ValueError):
            run_task(
                net, GMPProtocol(), 0, [2],
                config=EngineConfig(failed_node_ids=frozenset({0})),
            )
