#!/usr/bin/env python
"""Dissecting a multicast: the realized route tree, frame by frame.

Runs one GMP task with tracing enabled, reconstructs the *realized*
multicast tree from the on-air history (as opposed to the virtual Steiner
trees each node planned with), renders it over the deployment, and prints
the efficiency statistics the paper's figures aggregate.

Run with::

    python examples/route_tracing.py
"""

import numpy as np

from repro import (
    EngineConfig,
    GMPProtocol,
    LGSProtocol,
    RadioConfig,
    build_network,
    run_task,
    uniform_random_topology,
)
from repro.visualization.ascii_art import AsciiCanvas
from repro.geometry import Point


def render_trace(network, trace, source, destinations):
    xs = network.locations[:, 0]
    ys = network.locations[:, 1]
    canvas = AsciiCanvas(
        76, 22,
        Point(float(xs.min()), float(ys.min())),
        Point(float(xs.max()), float(ys.max())),
    )
    for a, b in trace.traversed_edges():
        canvas.line(network.location_of(a), network.location_of(b), ".")
    for relay in trace.relay_nodes():
        canvas.plot(network.location_of(relay), "+")
    for dest in destinations:
        canvas.plot(network.location_of(dest), "D")
    canvas.plot(network.location_of(source), "S")
    return canvas.render()


def main() -> None:
    rng = np.random.default_rng(11)
    points = uniform_random_topology(500, 1000.0, 1000.0, rng)
    network = build_network(points, RadioConfig())
    source = 0
    destinations = [60, 120, 210, 333, 405, 480]

    for protocol in (GMPProtocol(), LGSProtocol()):
        result = run_task(network, protocol, source, destinations,
                          config=EngineConfig(collect_traces=True))
        trace = result.trace
        print(f"=== {protocol.name} ===")
        print(render_trace(network, trace, source, destinations))
        print(f"frames (transmissions): {result.transmissions}")
        print(f"distinct traversed edges: {len(trace.traversed_edges())}")
        print(f"relay nodes: {len(trace.relay_nodes())}")
        print(f"split events (fanout > 1): {trace.split_events()}  "
              f"histogram: {trace.fanout_histogram()}")
        print(f"perimeter-mode copies: {trace.perimeter_copy_count()}")
        print(f"ground covered: {trace.total_meters(network):.0f} m "
              f"({trace.mean_hop_meters(network):.1f} m per hop)")
        print(f"per-destination hops: {sorted(result.delivered_hops.values())}")
        print()

    print("GMP's splits fan copies out at Steiner points (several receivers "
          "share one frame); LGS mostly chains, which is why its later "
          "destinations wait longer.")


if __name__ == "__main__":
    main()
