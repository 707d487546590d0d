"""Live failure injection for the packet engine: fail, detect, reroute,
recover (paper sections 3.6.2 and 5.5, made dynamic).

The static fig11/fig18 analyses compute connectivity over a frozen
:class:`~repro.core.faults.FailureSet`; this module executes a
:class:`~repro.core.faults.FailureSchedule` *inside* a running
:class:`~repro.net.builders.OperaSimNetwork`, as ordinary simulator
events, through four mechanisms:

**Fail (blackholing).** A failed fiber/switch/ToR does not "drop" packets
at a queue — light simply stops arriving. Uplink resolvers consult the
*actual* (physical) failure state at wire-entry time and resolve dead
circuits to a per-rack :class:`~repro.net.node.Blackhole`; a dead ToR's
route closure absorbs its hosts' traffic the same way. Both engine
kernels call the same Python resolver/route closures per packet
(``REPRO_KERNEL=c`` reads ``Port.resolver`` per call, and its fused
dispatch calls a route table's ``fallback`` whenever one is set), so
failure state needs no kernel-specific plumbing and py/c stay
bit-identical.

**Detect (hello propagation).** Routing reacts on a *detected* view that
lags the physical truth by the hello-protocol propagation delay, derived
per event from :func:`repro.core.hello.detection_delay_slices` and capped
at the paper's two-cycle bound. Until detection completes, stale routes
keep feeding the blackhole — exactly the paper's vulnerability window.

**Reroute.** At a detection epoch the injector swaps in an
:class:`~repro.core.routing.OperaRouting` built with the detected set,
clears every router's memoized next-hop options, and hands
``RotorLBAgent.failure_view`` the detected set so bulk stops offloading
onto known-dead circuits.

**Recover.** Blackholed RotorLB data is parked and re-queued at its
sending ToR one retry period later (the paper's NACK-and-retransmit at
ToR granularity); blackholed NDP packets feed :class:`NdpRecovery`, a
timeout clock that re-emits lost sequences (and replays lost PULLs) until
the sink has everything. Recovery events exist only when a loss actually
happened — an installed-but-empty schedule runs bitwise identically to an
uninstalled network (priced as ``faults_overhead`` in
``BENCH_engine.json``).
"""

from __future__ import annotations

import logging
from collections import deque
from typing import TYPE_CHECKING

from ..core.faults import FailureEvent, FailureSchedule, FailureSet
from ..core.hello import detection_delay_slices
from ..core.routing import OperaRouting
from .node import Blackhole
from .packet import Packet, PacketKind, Priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .builders import OperaSimNetwork

__all__ = ["FaultContext", "NdpRecovery", "FailureInjector"]

logger = logging.getLogger(__name__)

_DATA = PacketKind.DATA
_HEADER = PacketKind.HEADER
_PULL = PacketKind.PULL
_NACK = PacketKind.NACK
_BULK = Priority.BULK


def _event_delta(event: FailureEvent) -> FailureSet:
    """A single event's target as a one-element :class:`FailureSet`."""
    if event.component == "link":
        return FailureSet(links=frozenset([event.target]))  # type: ignore[list-item]
    if event.component == "rack":
        return FailureSet(racks=frozenset([event.target]))  # type: ignore[list-item]
    return FailureSet(switches=frozenset([event.target]))  # type: ignore[list-item]


def _apply_to_set(current: FailureSet, event: FailureEvent) -> FailureSet:
    """Fold one fail/repair event into a cumulative :class:`FailureSet`."""
    delta = _event_delta(event)
    if event.action == "fail":
        return current.union(delta)
    return FailureSet(
        links=current.links - delta.links,
        racks=current.racks - delta.racks,
        switches=current.switches - delta.switches,
    )


class FaultContext:
    """Mutable live failure state the hot-path closures consult.

    Two views, one object: the ``*_down`` sets are the *actual* physical
    truth (mutated in place at event time, so resolver closures can
    capture them as locals), ``detected``/``routing`` are what the
    network believes after hello propagation. ``any_down`` is the
    armed-but-empty fast-path guard: a single attribute read decides
    whether any per-packet failure checks run at all.
    """

    __slots__ = (
        "links_down",
        "racks_down",
        "switches_down",
        "any_down",
        "detected",
        "routing",
        "base_routing",
        "blackholes",
        "epoch",
        "slice_parks",
    )

    def __init__(self, base_routing: OperaRouting) -> None:
        self.links_down: set[tuple[int, int]] = set()
        self.racks_down: set[int] = set()
        self.switches_down: set[int] = set()
        self.any_down = False
        #: Detected failure set; None while nothing is known failed (the
        #: sentinel RotorLB agents use to skip filtering entirely).
        self.detected: FailureSet | None = None
        self.base_routing = base_routing
        self.routing = base_routing
        #: Per-rack blackhole nodes (filled by the injector before the
        #: failure-aware resolvers are built).
        self.blackholes: list[Blackhole] = []
        #: Bumped at every detection epoch (routing swap).
        self.epoch = 0
        #: Packets held at a ToR for one slice because the *detected*
        #: routing had no surviving path in the current slice (but does
        #: in another) — deferrals, not losses.
        self.slice_parks = 0

    def usable(self, rack_a: int, rack_b: int, switch: int) -> bool:
        """Physical liveness of the full a—switch—b circuit."""
        return not (
            switch in self.switches_down
            or rack_a in self.racks_down
            or rack_b in self.racks_down
            or (rack_a, switch) in self.links_down
            or (rack_b, switch) in self.links_down
        )

    def actual_set(self) -> FailureSet:
        """Frozen snapshot of the physical failure state."""
        return FailureSet(
            links=frozenset(self.links_down),
            racks=frozenset(self.racks_down),
            switches=frozenset(self.switches_down),
        )


class NdpRecovery:
    """Timeout clock for NDP packets swallowed by blackholes.

    Pure-timeout semantics: a loss noted at ``t`` is re-examined at
    ``t + timeout_ps``; if the sequence is still unacked the source
    re-emits it immediately (a retransmission blackholed again re-enters
    the clock, so sources keep probing until detection reroutes them).
    Lost PULLs are replayed at the source so receiver pacing cannot
    wedge. The clock holds at most one pending simulator event, and none
    at all while no losses are outstanding — which is what keeps
    armed-but-empty runs bitwise identical to uninstalled ones.
    """

    def __init__(self, net: "OperaSimNetwork", ctx: FaultContext, timeout_ps: int) -> None:
        self.sim = net.sim
        self.hosts = net.hosts
        self.stats = net.stats
        self.ctx = ctx
        self.timeout_ps = timeout_ps
        #: (due_ps, action, flow_id, seq, source_host) — append-only at a
        #: fixed timeout, so the deque stays time-ordered.
        self._pending: deque[tuple[int, str, int, int, int]] = deque()
        self._armed = False
        self._fire_cb = self._fire
        self.timeout_retransmits = 0
        self.replayed_pulls = 0

    def note_loss(self, packet: Packet) -> None:
        """Record a blackholed NDP packet (fields copied; caller releases)."""
        kind = packet.kind
        if kind is _DATA or kind is _HEADER:
            # Sink-bound payload/metadata: the source must re-emit seq.
            action, source_host = "rtx", packet.src_host
        elif kind is _PULL:
            # Source-bound pacing: replay the pull at the source.
            action, source_host = "pull", packet.dst_host
        elif kind is _NACK:
            # The sink asked for a retransmission that never arrived.
            action, source_host = "rtx", packet.dst_host
        else:
            # A lost ACK costs nothing: the sink's dedup set absorbs any
            # duplicate a later timeout might cause, and completion is
            # measured sink-side.
            return
        due = self.sim.now + self.timeout_ps
        self._pending.append((due, action, packet.flow_id, packet.seq, source_host))
        if not self._armed:
            self._armed = True
            self.sim.at(due, self._fire_cb)

    def _fire(self) -> None:
        now = self.sim.now
        pending = self._pending
        racks_down = self.ctx.racks_down
        while pending and pending[0][0] <= now:
            _due, action, flow_id, seq, source_host = pending.popleft()
            source = self.hosts[source_host].sources.get(flow_id)
            if source is None or source.record.complete:
                continue
            if flow_id in self.stats.unrecoverable_flows:
                # Already written off (dead endpoint ToR or an all-slice
                # partition): retrying would feed the blackhole and
                # re-enter this clock forever.
                continue
            record = source.record
            src_rack = self.hosts[record.src_host].rack
            dst_rack = self.hosts[record.dst_host].rack
            if src_rack in racks_down or dst_rack in racks_down:
                # An endpoint's ToR is physically dead: retrying would
                # only feed the blackhole. Written off (until a repair
                # event triggers fresh losses and a fresh attempt).
                self.stats.unrecoverable_flows.add(flow_id)
                continue
            if action == "pull":
                source.replay_pull()
                self.replayed_pulls += 1
            elif source.timeout_retransmit(seq):
                self.timeout_retransmits += 1
        if pending:
            self.sim.at(pending[0][0], self._fire_cb)
        else:
            self._armed = False


class FailureInjector:
    """Executes a :class:`FailureSchedule` against one Opera network.

    Built by :meth:`OperaSimNetwork.install_failures`; schedules two
    simulator events per failure event — the physical application at
    ``time_ps`` and the detection epoch after the hello propagation
    delay — plus recovery events on demand.
    """

    def __init__(
        self,
        net: "OperaSimNetwork",
        ctx: FaultContext,
        schedule: FailureSchedule,
        rtx_timeout_ps: int,
        bulk_retry_ps: int,
        detection_cap_cycles: int = 2,
    ) -> None:
        self.net = net
        self.ctx = ctx
        self.schedule = schedule
        self.bulk_retry_ps = bulk_retry_ps
        self.detection_cap_cycles = detection_cap_cycles
        self.ndp = NdpRecovery(net, ctx, rtx_timeout_ps)
        sim = net.sim
        ctx.blackholes = [
            Blackhole(sim, f"blackhole-rack{rack}", self._make_absorber(rack))
            for rack in range(net.network.n_racks)
        ]
        #: Flows whose payload was physically destroyed (relay queues of a
        #: dead ToR, parks at a dead ToR): unrecoverable forever, even if
        #: every component is later repaired — the bytes cannot be
        #: regenerated. The rest of ``stats.unrecoverable_flows`` is a
        #: *classification* rebuilt at every detection epoch.
        self._lost_data_flows: set[int] = set()
        #: Parked bulk packets awaiting ToR-granularity retransmission,
        #: as (parked_at_rack, packet).
        self._parked_bulk: list[tuple[int, Packet]] = []
        self._bulk_drain_armed = False
        #: (applied_at_ps, detected_at_ps, event) audit log.
        self.log: list[tuple[int, int, FailureEvent]] = []
        self._detect_ps: dict[FailureEvent, int] = {}
        self._install_host_overflow_retry()
        self._schedule_events()

    def _install_host_overflow_retry(self) -> None:
        """Retry bulk that overflows a ToR-to-host port queue.

        Fault-free RotorLB never overflows these ports (per-slice circuit
        budgets are sized to the host line rate), so they ship with no
        bulk-drop handler and an overflowed packet would simply be
        abandoned. Post-failure re-VLB convergence *can* burst several
        racks' stranded relay queues into one destination rack in the
        same slice; re-offering the packet to the ToR a slice later (the
        port has drained by then) is the ToR-granularity retransmission
        the paper's recovery story assumes. Installed only on armed
        networks, and the handler only runs on an overflow, so
        armed-but-empty runs schedule zero extra events.
        """
        net = self.net
        sim = net.sim
        slice_ps = net.slice_ps
        for host_id, port in net.host_ports.items():
            tor = net.tors[net.hosts[host_id].rack]

            def retry(packet: Packet, _deliver=tor.receive_cb) -> None:
                sim.after(slice_ps, _deliver, packet)

            port.on_bulk_drop = retry

    # ------------------------------------------------------------ scheduling

    def _schedule_events(self) -> None:
        """One actual-apply plus one detection event per schedule entry.

        Detection times are computed at install time by replaying the
        cumulative failure set through the hello protocol: the delay for
        an event is how long full knowledge of the *post-event* set takes
        to spread (clamped so detection lands within two cycles of the
        physical event, the paper's bound).
        """
        sim = self.net.sim
        sched = self.net.network.schedule
        slice_ps = self.net.slice_ps
        cap_slices = self.detection_cap_cycles * sched.cycle_slices
        cumulative = FailureSet.none()
        for event in self.schedule.events:
            cumulative = _apply_to_set(cumulative, event)
            delay = detection_delay_slices(
                sched, cumulative, cap_cycles=self.detection_cap_cycles
            )
            # >= 1 hello step, and landing no later than two full cycles
            # after the physical event (boundary alignment included).
            delay = max(1, min(delay, cap_slices - 1))
            boundary = (event.time_ps // slice_ps + 1) * slice_ps
            detect_ps = boundary + delay * slice_ps
            self._detect_ps[event] = detect_ps
            sim.at(event.time_ps, self._apply_actual, event)
            sim.at(detect_ps, self._apply_detected, event)
        logger.info(
            "installed %d failure event(s) (detection cap %d cycle(s))",
            len(self.schedule.events),
            self.detection_cap_cycles,
        )

    def detection_time_ps(self, event: FailureEvent) -> int:
        return self._detect_ps[event]

    # ---------------------------------------------------------- event phases

    def _apply_actual(self, event: FailureEvent) -> None:
        """The physical change: components die (or revive) *now*."""
        ctx = self.ctx
        target = event.target
        if event.component == "link":
            pool: set = ctx.links_down
        elif event.component == "rack":
            pool = ctx.racks_down
            agent = self.net.agents[target]  # type: ignore[index]
            agent.disabled = event.action == "fail"
            if event.action == "fail":
                self._lose_agent_relay_queues(agent)
        else:
            pool = ctx.switches_down
        if event.action == "fail":
            pool.add(target)
        else:
            pool.discard(target)
        ctx.any_down = bool(
            ctx.links_down or ctx.racks_down or ctx.switches_down
        )
        self.log.append((self.net.sim.now, self._detect_ps[event], event))
        logger.debug(
            "t=%dps %s %s %r (detection at t=%dps)",
            self.net.sim.now,
            event.action,
            event.component,
            event.target,
            self._detect_ps[event],
        )

    def _lose_agent_relay_queues(self, agent) -> None:
        """A ToR died with relayed bulk in its buffers: that data is gone.

        RotorLB as modelled has no end-to-end retransmission (senders
        materialize packets once), so bulk that had already been VLB'd
        *into* the now-dead ToR cannot be regenerated — the flows are
        classified unrecoverable rather than left wedged and unexplained.
        """
        stats = self.net.stats
        for queue in agent.relay_q.values():
            while queue:
                packet = queue.popleft()
                stats.blackholed(packet.flow_id, "bulk", packet.size_bytes)
                stats.unrecoverable_flows.add(packet.flow_id)
                self._lost_data_flows.add(packet.flow_id)
                self.net.kernel.release(packet)
        agent.relay_bytes.clear()

    def _apply_detected(self, event: FailureEvent) -> None:
        """Hello propagation completed: reroute on the detected view."""
        ctx = self.ctx
        detected = _apply_to_set(ctx.detected or FailureSet.none(), event)
        ctx.detected = None if detected.empty else detected
        ctx.routing = (
            ctx.base_routing
            if ctx.detected is None
            else OperaRouting(self.net.network.schedule, ctx.detected)
        )
        ctx.epoch += 1
        logger.debug(
            "t=%dps detected %s %s %r; routing epoch -> %d",
            self.net.sim.now,
            event.action,
            event.component,
            event.target,
            ctx.epoch,
        )
        for cache in self.net._hop_caches:
            cache.clear()
        self._refresh_agent_views()
        self._reclassify_unrecoverable()
        self._drain_parked_bulk()

    def _refresh_agent_views(self) -> None:
        """Push the detected view (and VLB forcing) to every ToR agent.

        A destination with no surviving direct circuit from some rack
        would strand that rack's relay queue forever; the forced set
        tells the agent's VLB phase to re-offload that traffic through a
        live peer instead. Detected-dead racks are excluded — traffic to
        them is unrecoverable, not misrouted.
        """
        view = self.ctx.detected
        n_racks = self.net.network.n_racks
        for agent in self.net.agents:
            agent.failure_view = view
            if view is None:
                agent.relay_vlb_dsts = frozenset()
                continue
            live: set[int] = set()
            for row in agent.active_by_slice or ():
                for switch, _port, peer in row:
                    if view.circuit_ok(agent.rack, peer, switch):
                        live.add(peer)
            agent.relay_vlb_dsts = (
                frozenset(range(n_racks)) - live - {agent.rack} - view.racks
            )

    def _reclassify_unrecoverable(self) -> None:
        """Rebuild the write-off classification on the epoch's knowledge.

        Two kinds of hopeless flow: an endpoint behind a detected-dead
        ToR, and a pair the detected routing cannot connect in *any*
        slice (e.g. a rack with every uplink failed — isolated but
        alive). Their queued bulk strands and their NDP retries would
        only feed the blackhole forever, so no timeout would ever
        classify them — do it here, at the epoch that learned why.

        The classification is rebuilt from scratch each epoch on top of
        the permanent data-loss core, so a repair event that restores
        reachability un-writes-off the survivors (their next loss or
        queued retry resumes the attempt); flows whose payload was
        physically destroyed stay unrecoverable.
        """
        stats = self.net.stats
        unrec = stats.unrecoverable_flows
        unrec.intersection_update(self._lost_data_flows)
        detected = self.ctx.detected
        if detected is None:
            return
        hpr = self.net.network.hosts_per_rack
        routing = self.ctx.routing
        reachable: dict[tuple[int, int], bool] = {}
        for record in stats.flows.values():
            if record.complete:
                continue
            src_rack = record.src_host // hpr
            dst_rack = record.dst_host // hpr
            if src_rack in detected.racks or dst_rack in detected.racks:
                unrec.add(record.flow_id)
                continue
            key = (src_rack, dst_rack)
            ok = reachable.get(key)
            if ok is None:
                ok = reachable[key] = routing.any_slice_reachable(
                    src_rack, dst_rack
                )
            if not ok:
                unrec.add(record.flow_id)

    # -------------------------------------------------------------- blackhole

    def _make_absorber(self, rack: int):
        stats = self.net.stats
        ndp = self.ndp

        def absorb(packet: Packet) -> None:
            if packet.priority is _BULK and packet.kind is _DATA:
                stats.blackholed(packet.flow_id, "bulk", packet.size_bytes)
                self._park_bulk(rack, packet)
                return  # parked: the packet object survives for requeue
            kind = packet.kind
            bucket = "ll_data" if (kind is _DATA or kind is _HEADER) else "control"
            stats.blackholed(packet.flow_id, bucket, packet.size_bytes)
            ndp.note_loss(packet)
            self.net.kernel.release(packet)

        return absorb

    def _park_bulk(self, rack: int, packet: Packet) -> None:
        self._parked_bulk.append((rack, packet))
        if not self._bulk_drain_armed:
            self._bulk_drain_armed = True
            self.net.sim.at(
                self.net.sim.now + self.bulk_retry_ps, self._drain_parked_bulk
            )

    def _drain_parked_bulk(self) -> None:
        """ToR-granularity bulk retransmission: requeue parked packets.

        Runs at every detection epoch and ``bulk_retry_ps`` after a park.
        A packet parked at a now-dead ToR is genuinely gone — its flow is
        written off as unrecoverable instead of resurrected.
        """
        self._bulk_drain_armed = False
        if not self._parked_bulk:
            return
        parked, self._parked_bulk = self._parked_bulk, []
        agents = self.net.agents
        racks_down = self.ctx.racks_down
        stats = self.net.stats
        for rack, packet in parked:
            if rack in racks_down:
                stats.unrecoverable_flows.add(packet.flow_id)
                self._lost_data_flows.add(packet.flow_id)
                self.net.kernel.release(packet)
                continue
            agents[rack].requeue(packet)
