"""Tests anchoring the paper's worked examples (Figures 4, 8, 9, 10, 13)."""

import pytest

from repro.engine import EngineConfig, run_task
from repro.experiments.scenarios import (
    SCENARIO_RADIO_RANGE,
    all_scenarios,
    figure4_instance,
    figure8_network,
    figure9_network,
    figure10_network,
    figure13_instance,
    figure13_network,
)
from repro.routing.gmp import GMPProtocol
from repro.routing.lgs import LGSProtocol
from repro.routing.pbm import PBMProtocol
from repro.steiner import euclidean_mst, rrstr
from repro.steiner.rrstr import RRStrConfig


class TestFigure4:
    def test_far_pair_merges_under_virtual(self):
        instance = figure4_instance()
        tree = rrstr(
            instance.source,
            list(instance.destinations),
            SCENARIO_RADIO_RANGE,
            RRStrConfig(radio_aware=False, refine=False),
        )
        u = next(v.vid for v in tree.vertices() if v.ref == 3)
        v_ = next(v.vid for v in tree.vertices() if v.ref == 4)
        assert tree.parent_of(u) == tree.parent_of(v_)
        assert tree.vertex(tree.parent_of(u)).is_virtual

    def test_tree_beats_star(self):
        instance = figure4_instance()
        tree = rrstr(instance.source, list(instance.destinations), SCENARIO_RADIO_RANGE)
        from repro.geometry import distance

        star = sum(distance(instance.source, loc) for _, loc in instance.destinations)
        assert tree.total_length() < star


class TestFigure8:
    def test_gmp_delivers_all(self):
        scenario = figure8_network()
        result = run_task(
            scenario.network, GMPProtocol(), scenario.source_id,
            scenario.destination_ids,
        )
        assert result.success

    def test_c_is_delivered_en_route(self):
        # c (node 2) sits on the trunk toward the far destinations: it must
        # be reached strictly earlier than u, v, d.
        scenario = figure8_network()
        result = run_task(
            scenario.network, GMPProtocol(), scenario.source_id,
            scenario.destination_ids,
        )
        assert result.delivered_hops[2] < min(
            result.delivered_hops[d] for d in (7, 8, 9)
        )


class TestFigure9:
    def test_source_splits_between_lateral_neighbors(self):
        scenario = figure9_network()
        result = run_task(
            scenario.network, GMPProtocol(), scenario.source_id,
            scenario.destination_ids, config=EngineConfig(collect_traces=True),
        )
        assert result.success
        first_frame = result.trace.frames[0]
        # The very first forwarding step fans out to both lateral
        # neighbors — the Figure-9 split.
        assert set(first_frame.receiver_ids) == {1, 2}

    def test_all_scenarios_gmp_delivers(self):
        for scenario in all_scenarios():
            result = run_task(
                scenario.network, GMPProtocol(), scenario.source_id,
                scenario.destination_ids,
                config=EngineConfig(max_path_length=120),
            )
            assert result.success, scenario.description


class TestFigure10:
    def test_gmp_absorbs_void_destination_at_source(self):
        # The defining moment: the source sends ONE greedy copy carrying
        # both destinations, although v alone is void at s.
        scenario = figure10_network()
        result = run_task(
            scenario.network, GMPProtocol(), scenario.source_id,
            scenario.destination_ids, config=EngineConfig(collect_traces=True),
        )
        assert result.success
        first = result.trace.frames[0]
        assert len(first.copies) == 1
        assert sorted(first.copies[0].destination_ids) == [2, 3]
        assert not first.copies[0].in_perimeter_mode

    def test_pbm_uses_perimeter_immediately(self):
        # PBM's source step already splits v off into perimeter mode.
        scenario = figure10_network()
        result = run_task(
            scenario.network, PBMProtocol(), scenario.source_id,
            scenario.destination_ids, config=EngineConfig(collect_traces=True),
        )
        first = result.trace.frames[0]
        peri = [c for c in first.copies if c.in_perimeter_mode]
        assert len(peri) == 1
        assert peri[0].destination_ids == (3,)


class TestFigure13:
    def test_mst_is_a_chain(self):
        instance = figure13_instance()
        tree = euclidean_mst(instance.source, list(instance.destinations))
        for vertex in tree.vertices():
            assert len(tree.children_of(vertex.vid)) <= 1

    def test_lgs_visits_sequentially(self):
        scenario = figure13_network()
        result = run_task(
            scenario.network, LGSProtocol(), scenario.source_id,
            scenario.destination_ids,
        )
        assert result.success
        hops = result.delivered_hops
        assert hops[2] < hops[4] < hops[6]

    def test_gmp_reaches_last_destination_no_later(self):
        scenario = figure13_network()
        lgs = run_task(
            scenario.network, LGSProtocol(), scenario.source_id,
            scenario.destination_ids,
        )
        gmp = run_task(
            scenario.network, GMPProtocol(), scenario.source_id,
            scenario.destination_ids,
        )
        assert max(gmp.delivered_hops.values()) <= max(lgs.delivered_hops.values())
