"""Property-based engine/protocol invariants on randomized networks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import EngineConfig, run_task
from repro.network import RadioConfig, build_network
from repro.network.energy import EnergyModel
from repro.network.topology import grid_topology
from repro.routing import GMPProtocol, LGSProtocol, PBMProtocol


def jittered_grid(seed: int, side: int = 7, spacing: float = 100.0):
    """A connected-by-construction jittered grid (jitter << radio margin)."""
    rng = np.random.default_rng(seed)
    points = grid_topology(
        side * side, side * spacing, side * spacing, jitter=15.0, rng=rng
    )
    return build_network(points, RadioConfig(radio_range_m=150.0))


protocol_factories = st.sampled_from(
    [GMPProtocol, LGSProtocol, lambda: PBMProtocol(lam=0.3)]
)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    factory=protocol_factories,
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_delivery_and_accounting_invariants(seed, factory, data):
    network = jittered_grid(seed)
    node_count = network.node_count
    source = data.draw(st.integers(min_value=0, max_value=node_count - 1))
    dest_count = data.draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(seed + 1)
    destinations = [
        int(d)
        for d in rng.choice(
            [n for n in range(node_count) if n != source],
            size=dest_count,
            replace=False,
        )
    ]
    config = EngineConfig(max_path_length=200, collect_traces=True)
    result = run_task(network, factory(), source, destinations, config=config)

    # Delivered set is a subset of the requested set, with sane hop counts.
    assert set(result.delivered_hops) <= set(destinations)
    assert all(1 <= h <= 200 for h in result.delivered_hops.values())

    # On a connected jittered grid, GMP and PBM deliver everything; LGS may
    # stall only at genuine greedy minima (rare on grids but possible).
    if isinstance(result.protocol, str) and result.protocol in ("GMP", "PBM[l=0.3]"):
        assert result.success, result.failed_destinations

    # The trace and the counters agree.
    trace = result.trace
    assert sum(f.transmissions_charged for f in trace.frames) == result.transmissions

    # Recompute the energy from the trace: per frame, airtime * (tx + n*rx).
    model = EnergyModel(network.radio)
    recomputed = sum(
        f.transmissions_charged
        * model.transmission_energy(len(network.listeners_of(f.sender_id)))
        for f in trace.frames
    )
    assert recomputed == pytest.approx(result.energy_joules, rel=1e-9)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_gmp_transmissions_bounded_by_flooding(seed):
    """GMP never transmits more frames than whole-network flooding would."""
    from repro.routing.flooding import FloodingProtocol

    network = jittered_grid(seed, side=6)
    rng = np.random.default_rng(seed + 2)
    picks = rng.choice(network.node_count, size=5, replace=False)
    source, dests = int(picks[0]), [int(p) for p in picks[1:]]
    gmp = run_task(network, GMPProtocol(), source, dests)
    flood = run_task(network, FloodingProtocol(), source, dests)
    assert gmp.success and flood.success
    assert gmp.transmissions <= flood.transmissions
