"""Running multicast sessions through the discrete-event simulator.

One forwarding core carries GMP's per-hop rule for every session: receive
a packet (adversary drop, delivery bookkeeping, the node's routing view,
``protocol.handle``), then validate the decided copies, apply the hop
TTL, pick the framing and size the headers.  The hopped copies go to a
*medium*, of which there are two:

* :class:`_IdealMedium` — the contention-free channel the paper's metrics
  assume.  Each copy arrives exactly one airtime (plus processing delay)
  later; the engine charges the energy, applies the injected failures and
  writes the :class:`FrameRecord`.  :func:`run_task` runs one task on it.
* :class:`_CsmaMedium` — the CSMA/ARQ/beacon :class:`LinkLayer`, fed
  through its deliver, charge, loss and frame hooks.
  :func:`run_contended_tasks` runs concurrent sessions on it.

The engine never writes a network's state arrays directly: every mutation
it performs (node failures via ``failed_node_ids``, energy drain through
the meter) goes through :class:`~repro.network.graph.WirelessNetwork`'s
mutators, which copy-on-write when the network is a zero-copy view over
the shared-memory plane (:mod:`repro.perf.shm`).  That keeps pool workers'
``fail_node``/``move_node``/``drain_energy`` effects worker-local while
the published segments stay byte-identical for every other attacher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.schedule import EMPTY_ADVERSARY_SCHEDULE, AdversarySchedule
from repro.adversary.state import AdversaryState
from repro.engine.stats import TaskResult
from repro.engine.trace import CopyRecord, FrameRecord, TaskTrace
from repro.linklayer.config import DEFAULT_LINK_CONFIG, LinkLayerConfig
from repro.linklayer.frame import DATA
from repro.linklayer.mac import CopyOutcome, LinkLayer
from repro.network.energy import EnergyMeter, EnergyModel
from repro.network.graph import WirelessNetwork
from repro.packets import Destination, MulticastPacket
from repro.routing.base import ForwardDecision, NodeView, RoutingProtocol
from repro.simkit import SimulationError, Simulator
from repro.simkit.rng import RandomStreams, derive_seed


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the execution engine.

    Attributes:
        max_path_length: Hop-count TTL; packets are not forwarded beyond
            this many hops (the paper's Figure-15 experiment uses 100).
        processing_delay_s: Per-hop processing latency added to the airtime.
        max_events_per_task: Hard safety valve against pathological loops.
        validate_decisions: Check that protocols only forward to actual
            neighbors and never duplicate a destination across copies.
        transmission_model: How one forwarding step's copies map to radio
            transmissions — ``"protocol"`` (default) honours each
            protocol's :attr:`RoutingProtocol.aggregates_copies`
            declaration; ``"broadcast"`` forces single-frame aggregation
            for everyone; ``"unicast"`` forces one transmission per copy
            (the counting-model ablation); ``"contended"`` routes every
            frame through the CSMA/ARQ link layer of
            :mod:`repro.linklayer` — frames queue per node, contend for
            the shared channel, collide, and are retransmitted, with
            neighbor knowledge served from HELLO-beacon tables.
        link: Link-layer knobs, used only by the ``"contended"`` model.
        link_loss_rate: Probability that a transmitted copy is destroyed in
            flight (failure injection; energy is still charged — the frame
            was sent).  Zero by default: the paper's metrics assume a
            loss-free MAC.
        loss_seed: Seed for the loss process (combined with the task id, so
            loss patterns are reproducible per task).
        failed_node_ids: Crashed nodes — they neither receive nor forward.
            Protocols do not know (their neighbor tables are stale), so
            packets routed into them are lost: models unannounced node
            death between neighbor-table refreshes.
        charge_header_overhead: Charge airtime/energy for the geographic
            header (next-hop/source/destination locations, perimeter
            state) on top of the fixed payload, instead of the paper's
            flat message size.  Off by default to match Table 1; turning
            it on penalizes protocols that carry long destination lists
            deep into the network.
        collect_traces: Record the full on-air trace of every task as
            :attr:`TaskResult.trace`.  Used by the parallel-vs-serial
            bit-identity tests, which digest complete frame histories.
        adversary: The misbehaving-node cast (see :mod:`repro.adversary`).
            Empty by default — and with an empty schedule every code path
            below is byte-identical to the adversary-free engine (the A/B
            switch contract the digest tests pin).  Jammers additionally
            require the contended transmission model: they exist to occupy
            a channel, and only ``"contended"`` has one.
    """

    max_path_length: int = 100
    processing_delay_s: float = 0.0
    max_events_per_task: int = 500_000
    validate_decisions: bool = True
    transmission_model: str = "protocol"
    link_loss_rate: float = 0.0
    loss_seed: int = 0
    failed_node_ids: FrozenSet[int] = field(default_factory=frozenset)
    charge_header_overhead: bool = False
    collect_traces: bool = False
    link: LinkLayerConfig = DEFAULT_LINK_CONFIG
    adversary: AdversarySchedule = EMPTY_ADVERSARY_SCHEDULE

    def __post_init__(self) -> None:
        if self.transmission_model not in (
            "protocol",
            "broadcast",
            "unicast",
            "contended",
        ):
            raise ValueError(
                f"unknown transmission model {self.transmission_model!r}"
            )
        if not 0.0 <= self.link_loss_rate < 1.0:
            raise ValueError(
                f"link loss rate must be in [0, 1), got {self.link_loss_rate}"
            )
        for node_id in self.adversary.node_ids:
            if node_id in self.failed_node_ids:
                raise ValueError(
                    f"node {node_id} is both failed and adversarial; a "
                    "crashed node cannot misbehave"
                )


#: Shared immutable default: every entry point that accepts an optional
#: :class:`EngineConfig` falls back to this one instance instead of
#: constructing a fresh (identical) config per call.
DEFAULT_ENGINE_CONFIG = EngineConfig()


class _Session:
    """Mutable state of one multicast session (one source, many branches)."""

    __slots__ = (
        "task_id",
        "source_id",
        "destination_ids",
        "protocol",
        "meter",
        "delivered_hops",
        "dropped_ttl",
        "trace",
        "loss_rng",
        "start_s",
        "last_activity_s",
        "started",
    )

    def __init__(
        self,
        task: Tuple[int, int, Tuple[int, ...]],
        protocol: RoutingProtocol,
        network: WirelessNetwork,
        config: EngineConfig,
        start_s: float = 0.0,
    ) -> None:
        self.task_id, self.source_id, self.destination_ids = task
        self.protocol = protocol
        self.meter = EnergyMeter(EnergyModel(network.radio))
        self.delivered_hops: Dict[int, int] = {}
        self.dropped_ttl = 0
        self.trace = TaskTrace() if config.collect_traces else None
        # Created unconditionally so that turning loss on/off cannot shift
        # any *other* stream's draws, and a zero-rate config still owns a
        # well-defined loss process (it just never consumes from it).
        self.loss_rng = np.random.default_rng(
            derive_seed(config.loss_seed, "loss", self.task_id)
        )
        self.start_s = start_s
        self.last_activity_s = start_s
        #: ``prepare_task`` succeeded and the first packet reached the source.
        self.started = False

    def loses_copy(self, loss_rate: float) -> bool:
        """The injected Bernoulli loss coin for one in-flight copy."""
        return loss_rate > 0.0 and bool(self.loss_rng.random() < loss_rate)


def _copy_record(receiver_id: int, packet: MulticastPacket, lost: bool) -> CopyRecord:
    return CopyRecord(
        receiver_id=receiver_id,
        destination_ids=packet.destination_ids,
        hop_count=packet.hop_count,
        in_perimeter_mode=packet.in_perimeter_mode,
        lost=lost,
    )


class _ForwardingCore:
    """The per-hop forwarding loop for a set of sessions; subclasses are media.

    The medium carries the hopped copies (:meth:`send`), supplies each
    node's routing view (:meth:`view`), sets the run's horizon and event
    budget (:meth:`launch`), and reports a session's duration and perf
    counters.  It also realizes the adversary cast in ``self.adversary``
    (None when the schedule is empty: the benign path stays byte-identical
    to the adversary-free engine, the A/B switch contract).
    """

    #: Forced aggregation, or None to honour each protocol's own.
    framing: Optional[bool] = None
    #: Views are the graph oracle, which the adversary's spoof/suppress
    #: distortion wraps (a beacon process feeds it into tables instead).
    oracle_views = True
    #: Energy a session that never started reports: its empty meter's sum.
    idle_energy: float = 0

    def __init__(
        self,
        network: WirelessNetwork,
        config: EngineConfig,
        sessions: Sequence[_Session],
        payload_bytes: Optional[int],
    ) -> None:
        self.network = network
        self.config = config
        #: Keyed by task id, in submission order.
        self.sessions: Dict[int, _Session] = {s.task_id: s for s in sessions}
        self.payload_bytes = payload_bytes or network.radio.message_size_bytes
        self.simulator = Simulator()
        self.adversary: Optional[AdversaryState] = None

    # ----------------------------------------------------------- the medium

    def launch(self) -> Tuple[Optional[float], int]:
        """Start the medium's own processes; the horizon and event budget."""
        raise NotImplementedError

    def view(self, node_id: int) -> NodeView:
        raise NotImplementedError

    def send(
        self,
        session: _Session,
        sender_id: int,
        copies: Sequence[Tuple[int, MulticastPacket]],
        aggregate: bool,
        frame_bytes: Optional[int],
    ) -> None:
        raise NotImplementedError

    def duration(self, session: _Session) -> float:
        raise NotImplementedError

    def perf(self, session: _Session) -> Optional[Dict[str, float]]:
        raise NotImplementedError

    # ------------------------------------------------------ forwarding loop

    def run(self) -> List[TaskResult]:
        for session in self.sessions.values():
            if session.destination_ids:
                self.simulator.schedule_at(
                    session.start_s,
                    lambda s=session: self.start(s),
                    label=f"session-start@{session.task_id}",
                )
        until, max_events = self.launch()
        self.simulator.run(until=until, max_events=max_events)
        return [self._result(session) for session in self.sessions.values()]

    def start(self, session: _Session) -> None:
        """Prepare the protocol and hand the first packet to the source."""
        network = self.network
        try:
            session.protocol.prepare_task(
                network, session.source_id, session.destination_ids
            )
        except ValueError:
            # Centralized preparation can fail outright on partitioned
            # networks (e.g. KMB with unreachable terminals): the whole
            # session fails without sending anything.
            return
        session.started = True
        packet = MulticastPacket(
            task_id=session.task_id,
            source=Destination(
                session.source_id, network.location_of(session.source_id)
            ),
            destinations=tuple(
                Destination(d, network.location_of(d))
                for d in session.destination_ids
            ),
            payload_bytes=self.payload_bytes,
        )
        self.receive(session, session.source_id, packet)

    def receive(
        self, session: _Session, node_id: int, packet: MulticastPacket
    ) -> None:
        """Arrival processing: record delivery, then let the protocol forward.

        A dropper adversary swallows the packet *before* any bookkeeping:
        a malicious group member suppresses even its own delivery.
        """
        if self.adversary is not None and self.adversary.should_drop(
            node_id, packet
        ):
            return
        if any(d.node_id == node_id for d in packet.destinations):
            if node_id not in session.delivered_hops:
                session.delivered_hops[node_id] = packet.hop_count
            packet = packet.without_destination(node_id)
        if not packet.destinations:
            return
        view = self.view(node_id)
        if self.adversary is not None and self.oracle_views:
            view = self.adversary.wrap_view(view)
        self.transmit(session, node_id, session.protocol.handle(view, packet))

    def transmit(
        self,
        session: _Session,
        sender_id: int,
        decisions: Sequence[ForwardDecision],
    ) -> None:
        """Hand the decided copies that survive the TTL to the medium.

        Copy aggregation follows the protocol's declaration (see
        :attr:`RoutingProtocol.aggregates_copies`) unless the medium forces
        a framing: aggregated, all copies of one forwarding step ride a
        single broadcast frame; otherwise every copy is its own frame.
        """
        if self.config.validate_decisions:
            self._validate(session.protocol, sender_id, decisions)
        live: List[ForwardDecision] = []
        for decision in decisions:
            if decision.packet.hop_count + 1 > self.config.max_path_length:
                session.dropped_ttl += 1
                continue
            live.append(decision)
        if not live:
            return
        aggregate = self.framing
        if aggregate is None:
            aggregate = session.protocol.aggregates_copies
        frame_bytes = None  # Table-1 flat message size.
        if self.config.charge_header_overhead:
            payload = live[0].packet.payload_bytes
            headers = sum(d.packet.header_size_bytes() for d in live)
            if aggregate:
                frame_bytes = payload + headers
            else:
                # Per-copy frames: charge the mean size per transmission.
                frame_bytes = payload + max(1, headers // len(live))
        copies = [(d.next_hop_id, d.packet.hopped()) for d in live]
        self.send(session, sender_id, copies, aggregate, frame_bytes)

    def _validate(
        self,
        protocol: RoutingProtocol,
        sender_id: int,
        decisions: Sequence[ForwardDecision],
    ) -> None:
        seen: set = set()
        for decision in decisions:
            if not self.network.are_neighbors(sender_id, decision.next_hop_id):
                raise SimulationError(
                    f"{protocol.name} forwarded from {sender_id} to "
                    f"non-neighbor {decision.next_hop_id}"
                )
            if protocol.duplicates_allowed:
                continue
            for dest in decision.packet.destinations:
                if dest.node_id in seen:
                    raise SimulationError(
                        f"{protocol.name} duplicated destination "
                        f"{dest.node_id} across copies at node {sender_id}"
                    )
                seen.add(dest.node_id)

    def _result(self, session: _Session) -> TaskResult:
        meter = session.meter
        per_node: Dict[int, float] = dict(meter.tx_joules_by_node)
        for node, joules in meter.rx_joules_by_node.items():
            per_node[node] = per_node.get(node, 0.0) + joules
        return TaskResult(
            task_id=session.task_id,
            protocol=session.protocol.name,
            source_id=session.source_id,
            destination_ids=session.destination_ids,
            delivered_hops=dict(session.delivered_hops),
            transmissions=meter.transmissions,
            energy_joules=(
                meter.total_joules if session.started else self.idle_energy
            ),
            duration_s=self.duration(session),
            dropped_ttl=session.dropped_ttl,
            trace=session.trace,
            hotspot_energy_joules=max(per_node.values(), default=0.0),
            perf=self.perf(session),
        )


class _IdealMedium(_ForwardingCore):
    """The core over the contention-free channel: one task, exact airtime."""

    # Digests hash ``repr``, and this medium reports a task that never
    # started as 0.0 J, not as the integer 0.
    idle_energy = 0.0

    def __init__(
        self,
        network: WirelessNetwork,
        config: EngineConfig,
        session: _Session,
        payload_bytes: Optional[int],
    ) -> None:
        super().__init__(network, config, [session], payload_bytes)
        self.framing = {"broadcast": True, "unicast": False}.get(
            config.transmission_model
        )
        if config.adversary.enabled:
            if config.adversary.has_jammers:
                raise ValueError(
                    "jammers require the contended transmission model"
                )
            self.adversary = AdversaryState(
                config.adversary, network, ("task", session.task_id)
            )

    def launch(self) -> Tuple[Optional[float], int]:
        return None, self.config.max_events_per_task

    def view(self, node_id: int) -> NodeView:
        return NodeView(self.network, node_id)

    def send(
        self,
        session: _Session,
        sender_id: int,
        copies: Sequence[Tuple[int, MulticastPacket]],
        aggregate: bool,
        frame_bytes: Optional[int],
    ) -> None:
        """Charge the energy, apply the injected failures, schedule arrivals."""
        network, config = self.network, self.config
        transmissions = 1 if aggregate else len(copies)
        airtime = network.radio.transmission_time(frame_bytes)
        for _ in range(transmissions):
            session.meter.record_transmission(
                sender_id,
                network.listeners_of(sender_id),
                size_bytes=frame_bytes,
            )
        records = []
        for receiver, packet in copies:
            # A crashed receiver loses the copy without a loss-coin draw.
            lost = receiver in config.failed_node_ids or session.loses_copy(
                config.link_loss_rate
            )
            if session.trace is not None:
                records.append(_copy_record(receiver, packet, lost))
            if lost:
                continue
            # One event per arrival: splitting airtime and processing delay
            # into two events would round the clock differently.
            self.simulator.schedule_after(
                airtime + config.processing_delay_s,
                lambda r=receiver, p=packet: self.receive(session, r, p),
                label=f"rx@{receiver}",
            )
        if session.trace is not None:
            session.trace.record(
                FrameRecord(
                    time_s=self.simulator.now,
                    sender_id=sender_id,
                    copies=tuple(records),
                    transmissions_charged=transmissions,
                )
            )

    def duration(self, session: _Session) -> float:
        del session  # one task per run: its last event ends it
        return self.simulator.now

    def perf(self, session: _Session) -> Optional[Dict[str, float]]:
        del session
        if self.adversary is not None and self.adversary.counters:
            return self.adversary.perf_counters()
        return None


class _CsmaMedium(_ForwardingCore):
    """The core over the contended channel: sessions share a :class:`LinkLayer`."""

    def __init__(
        self,
        network: WirelessNetwork,
        config: EngineConfig,
        sessions: Sequence[_Session],
        payload_bytes: Optional[int],
    ) -> None:
        super().__init__(network, config, sessions, payload_bytes)
        order = tuple(self.sessions)
        #: Energy of traffic owned by no session (HELLO beacons).
        self.infra_meter = EnergyMeter(EnergyModel(network.radio))
        streams = RandomStreams(derive_seed(config.loss_seed, "mac", order))
        # The LinkLayer gets its exact pre-adversary arguments for an empty
        # schedule.  The counter hook routes behavior tallies into the link
        # stats' ``adv.*`` bucket; ``self.link`` exists before any bump can
        # fire.
        if config.adversary.enabled:
            self.adversary = AdversaryState(
                config.adversary,
                network,
                ("run", order),
                on_count=lambda key, amount: self.link.stats.bump_adv(
                    key, amount
                ),
            )
        adversary = self.adversary
        self.link = LinkLayer(
            network=network,
            simulator=self.simulator,
            config=config.link,
            streams=streams,
            failed_node_ids=config.failed_node_ids,
            deliver=self._deliver,
            charge=self._charge,
            copy_loss=self._copy_loss,
            on_frame=self._on_frame if config.collect_traces else None,
            advertised_location=(
                adversary.advertised_location
                if adversary is not None and adversary.distorts_views
                else None
            ),
            beacon_silenced=(
                adversary.suppressed if adversary is not None else frozenset()
            ),
        )
        self.oracle_views = self.link.beacon_service is None

    def launch(self) -> Tuple[Optional[float], int]:
        """Start beacons and jammers after the sessions' start events."""
        config, link = self.config, self.link
        horizon = (
            max(session.start_s for session in self.sessions.values())
            + config.link.session_timeout_s
        )
        link.start_beacons(horizon)
        max_events = config.max_events_per_task * len(self.sessions)
        if config.link.beacons:
            ticks = int(horizon / config.link.beacon_period_s) + 2
            max_events += ticks * self.network.node_count * 8
        if self.adversary is not None:
            jam_frames = self.adversary.start_jammers(
                link, horizon, config.failed_node_ids
            )
            # Every jam frame is a schedule + finish event; widen the
            # budget so saturation cannot masquerade as a routing loop.
            max_events += jam_frames * 4
        return horizon, max_events

    def view(self, node_id: int) -> NodeView:
        return self.link.view(node_id)

    def send(
        self,
        session: _Session,
        sender_id: int,
        copies: Sequence[Tuple[int, MulticastPacket]],
        aggregate: bool,
        frame_bytes: Optional[int],
    ) -> None:
        """Queue the DATA frame(s) at the sender's MAC."""
        frames = [copies] if aggregate else [[copy] for copy in copies]
        for frame in frames:
            self.link.send_data(session.task_id, sender_id, frame, frame_bytes)
        session.last_activity_s = self.simulator.now

    def duration(self, session: _Session) -> float:
        return max(session.last_activity_s - session.start_s, 0.0)

    def perf(self, session: _Session) -> Optional[Dict[str, float]]:
        return self.link.stats.session_perf(session.task_id)

    # ------------------------------------------------------ link callbacks

    def _deliver(
        self, session_id: int, receiver_id: int, packet: MulticastPacket
    ) -> None:
        session = self.sessions[session_id]
        session.last_activity_s = self.simulator.now
        if self.config.processing_delay_s > 0.0:
            self.simulator.schedule_after(
                self.config.processing_delay_s,
                lambda: self.receive(session, receiver_id, packet),
                label=f"rx@{receiver_id}",
            )
        else:
            self.receive(session, receiver_id, packet)

    def _charge(
        self,
        session_id: Optional[int],
        sender_id: int,
        size_bytes: Optional[int],
        count_transmission: bool,
    ) -> None:
        meter = (
            self.sessions[session_id].meter
            if session_id is not None
            else self.infra_meter
        )
        meter.record_transmission(
            sender_id,
            self.network.listeners_of(sender_id),
            size_bytes=size_bytes,
            count_transmission=count_transmission,
        )

    def _copy_loss(self, session_id: int, receiver_id: int) -> bool:
        del receiver_id  # the Bernoulli coin is per copy, not per receiver
        return self.sessions[session_id].loses_copy(self.config.link_loss_rate)

    def _on_frame(
        self,
        session_id: Optional[int],
        kind: str,
        sender_id: int,
        start_s: float,
        retry: int,
        outcomes: Sequence[CopyOutcome],
    ) -> None:
        if session_id is None or kind != DATA:
            return  # control traffic stays out of session traces
        trace = self.sessions[session_id].trace
        if trace is None:
            return
        trace.record(
            FrameRecord(
                time_s=start_s,
                sender_id=sender_id,
                copies=tuple(_copy_record(*outcome) for outcome in outcomes),
                transmissions_charged=1,
                kind=kind,
                retry=retry,
            )
        )


def _normalize_tasks(
    network: WirelessNetwork,
    config: EngineConfig,
    tasks: Sequence[Tuple[int, int, Sequence[int]]],
) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Check ids and drop the source and repeats from each destination list."""
    seen_ids: set = set()
    normalized: List[Tuple[int, int, Tuple[int, ...]]] = []
    for task_id, source_id, destination_ids in tasks:
        if task_id in seen_ids:
            raise ValueError(f"duplicate task id {task_id} in one run")
        seen_ids.add(task_id)
        if not (0 <= source_id < network.node_count):
            raise ValueError(f"source {source_id} is not a node of the network")
        if source_id in config.failed_node_ids:
            raise ValueError(f"source {source_id} is marked as a failed node")
        unique = tuple(dict.fromkeys(d for d in destination_ids if d != source_id))
        for d in unique:
            if not (0 <= d < network.node_count):
                raise ValueError(f"destination {d} is not a node of the network")
        normalized.append((task_id, source_id, unique))
    return normalized


def run_task(
    network: WirelessNetwork,
    protocol: RoutingProtocol,
    source_id: int,
    destination_ids: Sequence[int],
    config: EngineConfig | None = None,
    task_id: int = 0,
    payload_bytes: int | None = None,
) -> TaskResult:
    """Execute one multicast task and return its measured outcome.

    Args:
        network: The deployed network (global state owned by the engine).
        protocol: Forwarding discipline under test.
        source_id: Originating node.
        destination_ids: Target nodes; the source itself is filtered out.
        config: Engine knobs (TTL etc.); defaults to :class:`EngineConfig`.
            With ``collect_traces`` the task's frames are attached to the
            result as :attr:`TaskResult.trace`.
        task_id: Id recorded in the result.
        payload_bytes: Message size (defaults to the radio's Table-1 size).

    Returns:
        A :class:`TaskResult`; ``result.success`` is False when any
        destination was unreachable (void without recovery, TTL, injected
        losses, or a disconnected topology for the centralized SMT
        baseline).  ``result.perf`` carries the adversary's ``adv.*``
        counters, or None when no adversary acted.
    """
    cfg = config or DEFAULT_ENGINE_CONFIG
    if cfg.transmission_model == "contended":
        # One task is one session on the contended channel; the single
        # protocol instance is safe to reuse as the session "factory".
        return run_contended_tasks(
            network,
            [(task_id, source_id, tuple(destination_ids))],
            lambda: protocol,
            config=cfg,
            payload_bytes=payload_bytes,
        )[0]
    (task,) = _normalize_tasks(network, cfg, [(task_id, source_id, destination_ids)])
    session = _Session(task, protocol, network, cfg)
    return _IdealMedium(network, cfg, session, payload_bytes).run()[0]


def run_contended_tasks(
    network: WirelessNetwork,
    tasks: Sequence[Tuple[int, int, Sequence[int]]],
    protocol_factory: Callable[[], RoutingProtocol],
    config: EngineConfig | None = None,
    start_times: Sequence[float] | None = None,
    payload_bytes: int | None = None,
) -> List[TaskResult]:
    """Run multicast sessions concurrently over the contended link layer.

    All sessions share one simulator clock, one CSMA channel, and one
    beacon process, so they contend with each other for the air — the
    regime the :mod:`repro.experiments.contention` sweep measures.

    Args:
        network: The deployed network.
        tasks: ``(task_id, source_id, destination_ids)`` per session;
            task ids must be unique (they key the sessions).
        protocol_factory: Builds one *fresh* protocol instance per session
            (protocols carry per-task state, which concurrent sessions must
            not share).
        config: Engine knobs; :attr:`EngineConfig.link` configures the MAC.
            ``transmission_model`` is not consulted — calling this function
            *is* choosing the contended model.  With ``collect_traces``
            each session gets a :class:`TaskTrace` of its DATA frames
            (including retransmissions; control traffic excluded).
        start_times: Session start time (seconds of virtual time) per task,
            defaulting to all-zero (maximum contention).  The run ends
            :attr:`LinkLayerConfig.session_timeout_s` after the last start.
        payload_bytes: Message size (defaults to the radio's Table-1 size).

    Returns:
        One :class:`TaskResult` per task, in submission order (empty for
        no tasks).  ``result.perf`` carries the session's link-layer
        counters (``mac.*``) plus the run-global infrastructure counters
        (``link.*``) — instrumentation, excluded from digests.
    """
    cfg = config or DEFAULT_ENGINE_CONFIG
    if start_times is None:
        start_times = [0.0] * len(tasks)
    if len(start_times) != len(tasks):
        raise ValueError(
            f"{len(tasks)} tasks but {len(start_times)} start times"
        )
    normalized = _normalize_tasks(network, cfg, tasks)
    for start in start_times:
        if start < 0.0:
            raise ValueError(f"session start times must be >= 0, got {start}")
    if not normalized:
        return []
    sessions = [
        _Session(task, protocol_factory(), network, cfg, start_s)
        for task, start_s in zip(normalized, start_times)
    ]
    return _CsmaMedium(network, cfg, sessions, payload_bytes).run()
