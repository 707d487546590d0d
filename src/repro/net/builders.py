"""Wire topologies into runnable packet-simulator networks.

Each builder produces a :class:`SimNetwork`: hosts with NICs and pull
pacers, switches with routers, and flow-starting helpers. The four networks
of the paper's evaluation are supported:

* :class:`OperaSimNetwork` — time-varying rotor circuits, slice-stamped
  expander routing for low-latency traffic, RotorLB for bulk;
* :class:`ExpanderSimNetwork` — static random-regular fabric, NDP sprayed
  over equal-cost shortest paths;
* :class:`ClosSimNetwork` — three-tier folded Clos, per-packet ECMP;
* :class:`RotorNetSimNetwork` — lockstep rotors with RotorLB; optionally
  *hybrid* with a separate packet fabric for low-latency traffic.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.forwarding import ForwardingPipeline, TrafficClass
from ..core.schedule import slice_activations
from ..core.timing import PS_PER_US
from ..core.topology import OperaNetwork
from ..topologies.expander import ExpanderTopology
from ..topologies.folded_clos import FoldedClos
from ..topologies.rotornet import RotorNetTopology
from .kernel import engine_classes
from .link import Port
from .ndp import PullPacer, start_ndp_flow
from .node import CONSUMED, Host, SwitchNode
from .packet import Packet, PacketKind, Priority, release
from .rotorlb import BulkFlow, BulkSink, RotorLBAgent
from .sim import Simulator
from .stats import FlowRecord, StatsCollector

__all__ = [
    "SimNetwork",
    "OperaSimNetwork",
    "ExpanderSimNetwork",
    "ClosSimNetwork",
    "RotorNetSimNetwork",
]

DEFAULT_RATE = 10_000_000_000
DEFAULT_PROP_PS = 500_000  # 500 ns =~ 100 m of fiber


class SimNetwork:
    """Common harness state: engine, hosts, stats, flow helpers.

    The engine classes (``Simulator``/``Port``/``Host``/``SwitchNode``)
    are resolved through the kernel seam at construction time
    (``REPRO_KERNEL``, see :mod:`repro.net.kernel`) — so a network
    built under ``REPRO_KERNEL=c`` runs the compiled hot path while the
    pure-Python oracle stays one env var away.
    """

    def __init__(self, rate_bps: int = DEFAULT_RATE, prop_ps: int = DEFAULT_PROP_PS):
        self.kernel = engine_classes()
        self.sim = self.kernel.Simulator()
        self.stats = StatsCollector()
        self.rate_bps = rate_bps
        self.prop_ps = prop_ps
        self.hosts: list[Host] = []
        self.pacers: dict[int, PullPacer] = {}
        self._flow_id = 0

    # ------------------------------------------------------------- plumbing

    def _make_hosts(self, n_hosts: int, hosts_per_rack: int) -> None:
        for h in range(n_hosts):
            host = self.kernel.Host(self.sim, h, h // hosts_per_rack)
            self.hosts.append(host)
            self.pacers[h] = self.kernel.PullPacer(self.sim, host, self.rate_bps)

    def _wire_host(self, host: Host, tor: SwitchNode, **port_kwargs) -> None:
        host.nic = self.kernel.Port(
            self.sim,
            f"host{host.host_id}->tor{host.rack}",
            target=tor,
            rate_bps=self.rate_bps,
            propagation_ps=self.prop_ps,
            **port_kwargs,
        )

    def _host_port(self, tor_name: str, host: Host) -> Port:
        return self.kernel.Port(
            self.sim,
            f"{tor_name}->host{host.host_id}",
            target=host,
            rate_bps=self.rate_bps,
            propagation_ps=self.prop_ps,
        )

    def next_flow_id(self) -> int:
        self._flow_id += 1
        return self._flow_id

    # ----------------------------------------------------------------- flows

    def start_low_latency_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        record = FlowRecord(
            flow_id=self.next_flow_id(),
            src_host=src,
            dst_host=dst,
            size_bytes=size_bytes,
            traffic_class=TrafficClass.LOW_LATENCY.value,
            start_ps=start_ps,
        )
        start_ndp_flow(
            self.sim,
            self.hosts[src],
            self.hosts[dst],
            record,
            self.pacers[dst],
            self.stats,
            priority=Priority.LOW_LATENCY,
            start_delay_ps=max(0, start_ps - self.sim.now),
            source_cls=self.kernel.NdpSource,
            sink_cls=self.kernel.NdpSink,
        )
        return record

    def start_bulk_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        """Default: bulk rides NDP too (static networks have no circuits)."""
        record = FlowRecord(
            flow_id=self.next_flow_id(),
            src_host=src,
            dst_host=dst,
            size_bytes=size_bytes,
            traffic_class=TrafficClass.BULK.value,
            start_ps=start_ps,
        )
        start_ndp_flow(
            self.sim,
            self.hosts[src],
            self.hosts[dst],
            record,
            self.pacers[dst],
            self.stats,
            priority=Priority.LOW_LATENCY,
            start_delay_ps=max(0, start_ps - self.sim.now),
            source_cls=self.kernel.NdpSource,
            sink_cls=self.kernel.NdpSink,
        )
        return record

    def run(self, until_ps: int) -> None:
        self.sim.run(until_ps=until_ps)


# ---------------------------------------------------------------------------
# Opera
# ---------------------------------------------------------------------------


class OperaSimNetwork(SimNetwork):
    """Packet-level Opera: stamped expander routing + RotorLB circuits."""

    def __init__(
        self,
        network: OperaNetwork,
        rate_bps: int = DEFAULT_RATE,
        prop_ps: int = DEFAULT_PROP_PS,
        enable_vlb: bool = True,
    ) -> None:
        super().__init__(rate_bps, prop_ps)
        self.network = network
        self.pipeline = ForwardingPipeline.for_schedule(network.schedule)
        sched = network.schedule
        timing = network.timing
        self.slice_ps = timing.slice_ps
        self._cycle_slices = sched.cycle_slices
        #: Failure seam. ``_fault_cell`` is a one-slot box the install-once
        #: route closures capture: ``[None]`` fault-free, rebound to the
        #: live :class:`~repro.net.failures.FaultContext` by
        #: :meth:`install_failures` (state mutates; closures never do).
        self._fault_cell: list = [None]
        #: Every router's memoized next-hop table, so detection epochs can
        #: invalidate stale routes in one pass.
        self._hop_caches: list[dict] = []
        self.faults = None  # FailureInjector | None
        self._make_hosts(network.n_hosts, network.hosts_per_rack)

        self.tors: list[SwitchNode] = []
        self.host_ports: dict[int, Port] = {}
        self.uplink_ports: list[dict[int, Port]] = []
        self.agents: list[RotorLBAgent] = []

        slice_payload = (timing.slice_ps * rate_bps) // (8 * 1_000_000_000_000)
        slice_payload = int(slice_payload * timing.duty_cycle)
        host_budget = (timing.slice_ps * rate_bps) // (8 * 1_000_000_000_000)

        for rack in range(network.n_racks):
            tor = self.kernel.SwitchNode(self.sim, f"tor{rack}")
            self.tors.append(tor)
        for rack in range(network.n_racks):
            tor = self.tors[rack]
            for host_id in network.rack_hosts(rack):
                host = self.hosts[host_id]
                self._wire_host(host, tor)
                self.host_ports[host_id] = self._host_port(tor.name, host)
            uplinks: dict[int, Port] = {}
            for w in range(network.n_switches):
                uplinks[w] = self.kernel.Port(
                    self.sim,
                    f"tor{rack}-up{w}",
                    resolver=self._uplink_resolver(rack, w),
                    rate_bps=rate_bps,
                    propagation_ps=prop_ps,
                    on_undeliverable=self._make_dark_handler(rack),
                    on_bulk_drop=self._make_dark_handler(rack),
                )
            self.uplink_ports.append(uplinks)
            activations = slice_activations(sched, rack, network.n_switches)
            agent = RotorLBAgent(
                self.sim,
                rack,
                rack_of=lambda host, _d=network.hosts_per_rack: host // _d,
                uplinks=uplinks,
                slice_payload_bytes=slice_payload,
                host_budget_bytes=host_budget,
                enable_vlb=enable_vlb,
                hosts=list(network.rack_hosts(rack)),
                active_by_slice=[
                    [(w, uplinks[w], peer) for (w, peer) in row]
                    for row in activations
                ],
            )
            self.agents.append(agent)
            tor.router = self._make_router(rack, agent)
        for agent in self.agents:
            agent.peers = {r: self.agents[r] for r in range(network.n_racks)}
        self._schedule_slices()

    # ------------------------------------------------------------ time base

    def current_slice(self, now_ps: int | None = None) -> int:
        now = self.sim.now if now_ps is None else now_ps
        return (now // self.slice_ps) % self._cycle_slices

    def _in_reconfiguration_window(self, now_ps: int) -> bool:
        offset = now_ps % self.slice_ps
        return offset >= self.network.timing.epsilon_ps

    def _uplink_resolver(self, rack: int, switch: int, ctx=None):
        # Per-slice peer/down lookups are pure functions of the schedule;
        # precompute them once per port so the per-packet resolver is two
        # integer ops and a table index.
        sched = self.network.schedule
        cycle = sched.cycle_slices
        tors = self.tors
        peer_tor: list[SwitchNode | None] = []
        peer_rack: list[int] = []
        down: list[bool] = []
        for s in range(cycle):
            peer = sched.matching_of(switch, s)[rack]
            peer_tor.append(None if peer == rack else tors[peer])
            peer_rack.append(peer)
            down.append(sched.is_down(switch, s))
        slice_ps = self.slice_ps
        epsilon_ps = self.network.timing.epsilon_ps

        if ctx is None:

            def resolve(_packet: Packet, now_ps: int):
                s = (now_ps // slice_ps) % cycle
                if down[s] and now_ps % slice_ps >= epsilon_ps:
                    return None  # circuit dark while mirrors retarget
                return peer_tor[s]  # None on identity assignment: port idles

            return resolve

        # Failure-armed variant (swapped in by install_failures; ports read
        # ``resolver`` per packet in both kernels, so the swap is live).
        # The *actual* failure sets are captured as locals — the injector
        # mutates them in place — and a packet launched into a physically
        # dead circuit lands in this rack's blackhole: light simply stops
        # arriving, with none of the queue-drop recovery paths firing.
        links_down = ctx.links_down
        racks_down = ctx.racks_down
        switches_down = ctx.switches_down
        blackhole = ctx.blackholes[rack]

        def resolve_faulty(_packet: Packet, now_ps: int):
            s = (now_ps // slice_ps) % cycle
            if down[s] and now_ps % slice_ps >= epsilon_ps:
                return None
            peer = peer_tor[s]
            if peer is None:
                return None
            if ctx.any_down:
                pr = peer_rack[s]
                if (
                    switch in switches_down
                    or rack in racks_down
                    or pr in racks_down
                    or (rack, switch) in links_down
                    or (pr, switch) in links_down
                ):
                    return blackhole
            return peer

        return resolve_faulty

    def _make_dark_handler(self, rack: int):
        def handle(packet: Packet) -> None:
            if packet.priority is Priority.BULK and packet.kind is PacketKind.DATA:
                self.agents[rack].requeue(packet)
            elif packet.kind in (PacketKind.DATA, PacketKind.HEADER):
                # Low-latency packet caught by a reconfiguration: re-route
                # from this rack with a fresh stamp.
                packet.slice_stamp = None
                packet.hops += 1
                self.tors[rack].receive(packet)
            else:
                # Control packets caught mid-reconfiguration are simply
                # lost; NDP recovers via its pull clock.
                release(packet)

        return handle

    def _make_router(self, rack: int, agent: RotorLBAgent):
        routing = self.pipeline.routing
        hosts_per_rack = self.network.hosts_per_rack
        host_ports = self.host_ports
        slice_ps = self.slice_ps
        cycle = self._cycle_slices
        sim = self.sim
        _BULK = Priority.BULK
        _DATA = PacketKind.DATA
        # Failure seam: routers are install-once (ports cache the fused
        # dispatch closure), so dynamic failure state is read through this
        # one-slot box — [None] until install_failures arms it. Both
        # kernels invoke this same Python closure per packet.
        fault_cell = self._fault_cell
        # Equal-cost option lists are pure functions of (stamp, dst_rack);
        # memoize them per router so the per-packet cost is one dict hit.
        # Registered with the network: detection epochs clear it so the
        # next miss repopulates from the epoch's detected-failure routing.
        hop_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._hop_caches.append(hop_cache)
        # dst_rack -> any-slice reachability under the epoch's detected
        # routing; cleared together with hop_cache at detection epochs.
        reach_cache: dict[int, bool] = {}
        self._hop_caches.append(reach_cache)

        def next_hop(dst_rack: int, stamp: int, salt: int):
            key = (stamp, dst_rack)
            options = hop_cache.get(key)
            if options is None:
                ctx = fault_cell[0]
                tables = routing if ctx is None else ctx.routing
                options = tables.routes(stamp).next_hops(rack, dst_rack)
                hop_cache[key] = options
            if not options:
                return None
            return options[salt % len(options)]

        def route(_switch: SwitchNode, packet: Packet):
            ctx = fault_cell[0]
            if ctx is not None and rack in ctx.racks_down:
                # This ToR is physically dead: everything it would have
                # switched — host-bound deliveries included — is lost.
                ctx.blackholes[rack].receive(packet)
                return CONSUMED
            dst_rack = packet.dst_host // hosts_per_rack
            if packet.priority is _BULK and packet.kind is _DATA:
                if dst_rack == rack:
                    return host_ports[packet.dst_host]
                # Bulk landing on a foreign rack: absorb as relay traffic
                # (a missed slice or an intentional VLB first hop).
                packet.hops += 1
                agent.accept_relay(packet)
                return CONSUMED
            if dst_rack == rack:
                return host_ports[packet.dst_host]
            stamp = packet.slice_stamp
            if stamp is None:
                stamp = packet.slice_stamp = (sim.now // slice_ps) % cycle
            hop = next_hop(dst_rack, stamp, packet.salt + packet.hops)
            if hop is None:
                # Stale stamp (e.g. rerouted packet): retry on current slice.
                stamp = packet.slice_stamp = (sim.now // slice_ps) % cycle
                hop = next_hop(dst_rack, stamp, packet.salt + packet.hops)
                if hop is None:
                    if ctx is not None and (
                        ctx.any_down or ctx.detected is not None
                    ):
                        if ctx.detected is not None:
                            reachable = reach_cache.get(dst_rack)
                            if reachable is None:
                                reachable = reach_cache[dst_rack] = (
                                    ctx.routing.any_slice_reachable(
                                        rack, dst_rack
                                    )
                                )
                            if reachable:
                                # The *updated* tables know this slice has
                                # no surviving path but a later one does:
                                # hold the packet at the ToR until the next
                                # slice boundary and re-route it there
                                # (hops unchanged — it waited in place).
                                # Bounded: within one cycle some slice
                                # offers a path.
                                ctx.slice_parks += 1
                                packet.slice_stamp = None
                                sim.at(
                                    (sim.now // slice_ps + 1) * slice_ps,
                                    _switch.receive,
                                    packet,
                                )
                                return CONSUMED
                        # Routeless because of failures with no surviving
                        # path in any slice (or not yet detected): the
                        # packet is failure-lost. Feed the blackhole so
                        # the recovery clock retries — its phase-shifted
                        # timeout lands the retransmission in a different
                        # slice, which may well have a path.
                        ctx.blackholes[rack].receive(packet)
                        return CONSUMED
                    return None
            packet.hops += 1
            return self.uplink_ports[rack][hop[1]]

        return route

    # -------------------------------------------------------------- RotorLB

    def _schedule_slices(self) -> None:
        # One reconfiguration event per (cycle, slice): a single
        # preconstructed callback rotates every rack's matchings through
        # the agents' precomputed activation tables — no per-port timers,
        # no per-slice allocations.
        agents = self.agents
        slice_ps = self.slice_ps
        cycle = self._cycle_slices
        sim = self.sim

        def on_slice_boundary() -> None:
            s = (sim.now // slice_ps) % cycle
            for agent in agents:
                agent.on_slice(s)
            sim.after(slice_ps, on_slice_boundary)

        sim.at(0, on_slice_boundary)

    # -------------------------------------------------------------- failures

    def install_failures(
        self,
        schedule,
        *,
        rtx_timeout_ps: int | None = None,
        bulk_retry_ps: int | None = None,
        detection_cap_cycles: int = 2,
    ):
        """Arm a :class:`~repro.core.faults.FailureSchedule` on this network.

        Must run before the first ``run()`` (routers are install-once and
        the injector replays hello-protocol detection delays from t=0).
        Swaps every uplink resolver for its failure-aware variant and arms
        the route closures through ``_fault_cell``; with an empty schedule
        the armed network is bitwise identical to an unarmed one (priced
        as ``faults_overhead`` in the engine microbench).

        ``rtx_timeout_ps`` is the NDP blackhole-timeout clock period; it
        defaults to one rotor cycle *plus one slice*: the cycle part
        upper-bounds any legitimate in-fabric delay (the clock never
        fires on a merely-slow packet), and the extra slice shifts each
        successive retry to a different slice phase — under failures some
        slices may have no surviving path to a destination, so a
        whole-cycle timeout would re-lose every retry in the same dead
        phase. ``bulk_retry_ps`` is the parked-bulk retry period
        (default one cycle: every direct circuit has rotated past by
        then).

        Returns the :class:`~repro.net.failures.FailureInjector`.
        """
        from .failures import FailureInjector, FaultContext

        if self.faults is not None:
            raise RuntimeError("failure schedule already installed")
        if self.sim.now != 0 or self.sim.events_processed != 0:
            raise RuntimeError(
                "install_failures must run on a pristine network: ports "
                "cache dispatch closures on first delivery, so arming "
                "mid-run would leave stale fault-free paths in place"
            )
        schedule.validate(self.network.n_racks, self.network.n_switches)
        cycle_ps = self._cycle_slices * self.slice_ps
        ctx = FaultContext(self.pipeline.routing)
        injector = FailureInjector(
            self,
            ctx,
            schedule,
            rtx_timeout_ps=(
                cycle_ps + self.slice_ps
                if rtx_timeout_ps is None
                else rtx_timeout_ps
            ),
            bulk_retry_ps=cycle_ps if bulk_retry_ps is None else bulk_retry_ps,
            detection_cap_cycles=detection_cap_cycles,
        )
        for rack, uplinks in enumerate(self.uplink_ports):
            for switch, port in uplinks.items():
                port.resolver = self._uplink_resolver(rack, switch, ctx)
        self._fault_cell[0] = ctx
        self.faults = injector
        return injector

    def start_bulk_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        record = FlowRecord(
            flow_id=self.next_flow_id(),
            src_host=src,
            dst_host=dst,
            size_bytes=size_bytes,
            traffic_class=TrafficClass.BULK.value,
            start_ps=start_ps,
        )
        self.stats.flow_started(record)
        BulkSink(self.sim, self.hosts[dst], record, self.stats)
        flow = BulkFlow(record)
        agent = self.agents[self.network.host_rack(src)]
        self.sim.at(max(start_ps, self.sim.now), lambda: agent.submit(flow))
        return record

# ---------------------------------------------------------------------------
# Static expander
# ---------------------------------------------------------------------------


class ExpanderSimNetwork(SimNetwork):
    """Static expander fabric: NDP over equal-cost shortest paths."""

    def __init__(
        self,
        topology: ExpanderTopology,
        rate_bps: int = DEFAULT_RATE,
        prop_ps: int = DEFAULT_PROP_PS,
    ) -> None:
        super().__init__(rate_bps, prop_ps)
        self.topology = topology
        self._make_hosts(topology.n_hosts, topology.hosts_per_rack)
        self.tors = [
            self.kernel.SwitchNode(self.sim, f"tor{r}") for r in range(topology.n_racks)
        ]
        self.host_ports: dict[int, Port] = {}
        self.uplink_ports: list[dict[int, Port]] = []
        for rack, tor in enumerate(self.tors):
            for host_id in range(
                rack * topology.hosts_per_rack, (rack + 1) * topology.hosts_per_rack
            ):
                host = self.hosts[host_id]
                self._wire_host(host, tor)
                self.host_ports[host_id] = self._host_port(tor.name, host)
            ports: dict[int, Port] = {}
            for peer, matching_idx in topology.adjacency[rack]:
                ports[matching_idx] = self.kernel.Port(
                    self.sim,
                    f"tor{rack}-m{matching_idx}",
                    target=self.tors[peer],
                    rate_bps=rate_bps,
                    propagation_ps=prop_ps,
                )
            self.uplink_ports.append(ports)
            tor.router = self._make_router(rack)

    def _make_router(self, rack: int):
        routes = self.topology.routes
        hosts_per_rack = self.topology.hosts_per_rack
        host_ports = self.host_ports
        uplinks = self.uplink_ports[rack]
        # Memoize the equal-cost option list per destination rack (the
        # static expander's tables never change).
        hop_cache: dict[int, list[tuple[int, int]]] = {}

        def route(_switch: SwitchNode, packet: Packet):
            dst_rack = packet.dst_host // hosts_per_rack
            if dst_rack == rack:
                return host_ports[packet.dst_host]
            options = hop_cache.get(dst_rack)
            if options is None:
                options = routes.next_hops(rack, dst_rack)
                hop_cache[dst_rack] = options
            if not options:
                return None
            hop = options[(packet.salt + packet.hops) % len(options)]
            packet.hops += 1
            return uplinks[hop[1]]

        return route


# ---------------------------------------------------------------------------
# Folded Clos
# ---------------------------------------------------------------------------


class ClosSimNetwork(SimNetwork):
    """Three-tier folded Clos with per-packet ECMP spraying."""

    def __init__(
        self,
        clos: FoldedClos,
        rate_bps: int = DEFAULT_RATE,
        prop_ps: int = DEFAULT_PROP_PS,
    ) -> None:
        super().__init__(rate_bps, prop_ps)
        self.clos = clos
        self._make_hosts(clos.n_hosts, clos.hosts_per_rack)
        self.tors = [
            self.kernel.SwitchNode(self.sim, f"tor{r}") for r in range(clos.n_racks)
        ]
        self.aggs = [
            self.kernel.SwitchNode(self.sim, f"agg{a}") for a in range(clos.n_aggs)
        ]
        self.cores = [
            self.kernel.SwitchNode(self.sim, f"core{c}") for c in range(clos.n_cores)
        ]
        self.host_ports: dict[int, Port] = {}

        def port_to(name: str, node: SwitchNode) -> Port:
            return self.kernel.Port(
                self.sim,
                name,
                target=node,
                rate_bps=rate_bps,
                propagation_ps=prop_ps,
            )

        self.tor_up: list[dict[int, Port]] = []
        self.agg_down: list[dict[int, Port]] = []
        self.agg_up: list[dict[int, Port]] = []
        self.core_down: list[dict[int, Port]] = []

        for rack, tor in enumerate(self.tors):
            for host_id in range(
                rack * clos.hosts_per_rack, (rack + 1) * clos.hosts_per_rack
            ):
                host = self.hosts[host_id]
                self._wire_host(host, tor)
                self.host_ports[host_id] = self._host_port(tor.name, host)
            self.tor_up.append(
                {
                    agg: port_to(f"tor{rack}->agg{agg}", self.aggs[agg])
                    for agg in clos.tor_agg_links(rack)
                }
            )
            tor.router = self._tor_router(rack)
        for agg_id, agg in enumerate(self.aggs):
            pod = agg_id // clos.aggs_per_pod
            self.agg_down.append(
                {
                    rack: port_to(f"agg{agg_id}->tor{rack}", self.tors[rack])
                    for rack in range(
                        pod * clos.tors_per_pod, (pod + 1) * clos.tors_per_pod
                    )
                }
            )
            self.agg_up.append(
                {
                    core: port_to(f"agg{agg_id}->core{core}", self.cores[core])
                    for core in clos.agg_core_links(agg_id)
                }
            )
            agg.router = self._agg_router(agg_id)
        for core_id, core in enumerate(self.cores):
            self.core_down.append(
                {
                    agg: port_to(f"core{core_id}->agg{agg}", self.aggs[agg])
                    for agg in clos.core_agg_links(core_id)
                }
            )
            core.router = self._core_router(core_id)

    def _tor_router(self, rack: int):
        clos = self.clos
        hosts_per_rack = clos.hosts_per_rack
        host_ports = self.host_ports
        tor_up = self.tor_up[rack]
        up_ports = [tor_up[agg] for agg in clos.tor_agg_links(rack)]
        n_up = len(up_ports)

        def route(_switch: SwitchNode, packet: Packet):
            dst_rack = packet.dst_host // hosts_per_rack
            if dst_rack == rack:
                return host_ports[packet.dst_host]
            port = up_ports[(packet.salt + packet.hops) % n_up]
            packet.hops += 1
            return port

        return route

    def _agg_router(self, agg_id: int):
        clos = self.clos
        pod = agg_id // clos.aggs_per_pod
        hosts_per_rack = clos.hosts_per_rack
        tors_per_pod = clos.tors_per_pod
        agg_down = self.agg_down[agg_id]
        agg_up = self.agg_up[agg_id]
        up_ports = [agg_up[core] for core in clos.agg_core_links(agg_id)]
        n_up = len(up_ports)

        def route(_switch: SwitchNode, packet: Packet):
            dst_rack = packet.dst_host // hosts_per_rack
            if dst_rack // tors_per_pod == pod:
                return agg_down[dst_rack]
            port = up_ports[(packet.salt + packet.hops) % n_up]
            packet.hops += 1
            return port

        return route

    def _core_router(self, core_id: int):
        clos = self.clos
        hosts_per_rack = clos.hosts_per_rack
        tors_per_pod = clos.tors_per_pod
        aggs_per_pod = clos.aggs_per_pod
        group = core_id // clos.cores_per_group
        core_down = self.core_down[core_id]

        def route(_switch: SwitchNode, packet: Packet):
            dst_pod = packet.dst_host // hosts_per_rack // tors_per_pod
            packet.hops += 1
            return core_down[dst_pod * aggs_per_pod + group]

        return route


# ---------------------------------------------------------------------------
# RotorNet
# ---------------------------------------------------------------------------


class RotorNetSimNetwork(SimNetwork):
    """Lockstep RotorNet with RotorLB; optional hybrid packet fabric."""

    def __init__(
        self,
        topology: RotorNetTopology,
        rate_bps: int = DEFAULT_RATE,
        prop_ps: int = DEFAULT_PROP_PS,
        slice_ps: int = 100 * PS_PER_US,
        reconfiguration_ps: int = 10 * PS_PER_US,
    ) -> None:
        super().__init__(rate_bps, prop_ps)
        self.topology = topology
        self.slice_ps = slice_ps
        self.reconfiguration_ps = reconfiguration_ps
        sched = topology.schedule
        self._make_hosts(topology.n_hosts, topology.hosts_per_rack)
        self.tors = [
            self.kernel.SwitchNode(self.sim, f"tor{r}") for r in range(topology.n_racks)
        ]
        self.host_ports: dict[int, Port] = {}
        self.uplink_ports: list[dict[int, Port]] = []
        self.agents: list[RotorLBAgent] = []
        self.fabric: SwitchNode | None = None
        self.fabric_up: list[Port] = []
        self.fabric_down: list[Port] = []

        usable = slice_ps - reconfiguration_ps
        slice_payload = (usable * rate_bps) // (8 * 1_000_000_000_000)
        host_budget = (slice_ps * rate_bps) // (8 * 1_000_000_000_000)

        if topology.hybrid:
            self.fabric = self.kernel.SwitchNode(self.sim, "pkt-fabric")
            self.fabric.router = self._fabric_router()

        for rack, tor in enumerate(self.tors):
            for host_id in range(
                rack * topology.hosts_per_rack,
                (rack + 1) * topology.hosts_per_rack,
            ):
                host = self.hosts[host_id]
                self._wire_host(host, tor)
                self.host_ports[host_id] = self._host_port(tor.name, host)
            ports: dict[int, Port] = {}
            for w in range(topology.n_rotor_switches):
                ports[w] = self.kernel.Port(
                    self.sim,
                    f"tor{rack}-rotor{w}",
                    resolver=self._rotor_resolver(rack, w),
                    rate_bps=rate_bps,
                    propagation_ps=prop_ps,
                    on_undeliverable=self._make_requeue(rack),
                    on_bulk_drop=self._make_requeue(rack),
                )
            self.uplink_ports.append(ports)
            if topology.hybrid:
                assert self.fabric is not None
                self.fabric_up.append(
                    self.kernel.Port(
                        self.sim,
                        f"tor{rack}->fabric",
                        target=self.fabric,
                        rate_bps=rate_bps,
                        propagation_ps=prop_ps,
                    )
                )
                self.fabric_down.append(
                    self.kernel.Port(
                        self.sim,
                        f"fabric->tor{rack}",
                        target=self.tors[rack],
                        rate_bps=rate_bps,
                        propagation_ps=prop_ps,
                    )
                )
            activations = slice_activations(sched, rack, topology.n_rotor_switches)
            agent = RotorLBAgent(
                self.sim,
                rack,
                rack_of=topology.host_rack,
                uplinks=ports,
                slice_payload_bytes=slice_payload,
                host_budget_bytes=host_budget,
                hosts=list(
                    range(
                        rack * topology.hosts_per_rack,
                        (rack + 1) * topology.hosts_per_rack,
                    )
                ),
                active_by_slice=[
                    [(w, ports[w], peer) for (w, peer) in row]
                    for row in activations
                ],
            )
            self.agents.append(agent)
            tor.router = self._make_router(rack, agent)
        for agent in self.agents:
            agent.peers = {r: self.agents[r] for r in range(topology.n_racks)}
        self._schedule_slices()

    def current_slice(self, now_ps: int | None = None) -> int:
        now = self.sim.now if now_ps is None else now_ps
        return (now // self.slice_ps) % self.topology.schedule.cycle_slices

    def _rotor_resolver(self, rack: int, switch: int):
        sched = self.topology.schedule
        cycle = sched.cycle_slices
        tors = self.tors
        peer_tor: list[SwitchNode | None] = []
        for s in range(cycle):
            peer = sched.matching_of(switch, s)[rack]
            peer_tor.append(None if peer == rack else tors[peer])
        slice_ps = self.slice_ps
        usable_ps = slice_ps - self.reconfiguration_ps

        def resolve(_packet: Packet, now_ps: int):
            # All rotors reconfigure in unison at each boundary: the fabric
            # is dark for the final r of every slice.
            if now_ps % slice_ps >= usable_ps:
                return None
            return peer_tor[(now_ps // slice_ps) % cycle]

        return resolve

    def _make_requeue(self, rack: int):
        def handle(packet: Packet) -> None:
            if packet.kind is PacketKind.DATA:
                self.agents[rack].requeue(packet)
            else:
                release(packet)

        return handle

    def _fabric_router(self):
        topology = self.topology

        def route(_switch: SwitchNode, packet: Packet):
            dst_rack = topology.host_rack(packet.dst_host)
            return self.fabric_down[dst_rack]

        return route

    def _make_router(self, rack: int, agent: RotorLBAgent):
        hosts_per_rack = self.topology.hosts_per_rack
        host_ports = self.host_ports
        hybrid = self.topology.hybrid
        fabric_up = self.fabric_up[rack] if hybrid else None
        _BULK = Priority.BULK
        _DATA = PacketKind.DATA

        def route(_switch: SwitchNode, packet: Packet):
            dst_rack = packet.dst_host // hosts_per_rack
            if packet.priority is _BULK and packet.kind is _DATA:
                if dst_rack == rack:
                    return host_ports[packet.dst_host]
                packet.hops += 1
                agent.accept_relay(packet)
                return CONSUMED
            if dst_rack == rack:
                return host_ports[packet.dst_host]
            if hybrid:
                packet.hops += 1
                return fabric_up
            # Non-hybrid RotorNet has no low-latency service: control and
            # "low-latency" data alike must wait in RotorLB queues, which is
            # exactly the paper's point (Figure 7c). They are treated as
            # bulk at the flow level; anything else is dropped here.
            return None

        return route

    def _schedule_slices(self) -> None:
        # Lockstep rotors: one reconfiguration event per slice rotates
        # every rack through its precomputed activation row (see the
        # Opera builder for the batching rationale).
        agents = self.agents
        slice_ps = self.slice_ps
        cycle = self.topology.schedule.cycle_slices
        sim = self.sim

        def on_slice_boundary() -> None:
            s = (sim.now // slice_ps) % cycle
            for agent in agents:
                agent.on_slice(s)
            sim.after(slice_ps, on_slice_boundary)

        sim.at(0, on_slice_boundary)

    def start_bulk_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        record = FlowRecord(
            flow_id=self.next_flow_id(),
            src_host=src,
            dst_host=dst,
            size_bytes=size_bytes,
            traffic_class=TrafficClass.BULK.value,
            start_ps=start_ps,
        )
        self.stats.flow_started(record)
        BulkSink(self.sim, self.hosts[dst], record, self.stats)
        flow = BulkFlow(record)
        agent = self.agents[self.topology.host_rack(src)]
        self.sim.at(max(start_ps, self.sim.now), lambda: agent.submit(flow))
        return record

    def start_low_latency_flow(
        self, src: int, dst: int, size_bytes: int, start_ps: int = 0
    ) -> FlowRecord:
        if self.topology.hybrid:
            return super().start_low_latency_flow(src, dst, size_bytes, start_ps)
        # Non-hybrid: low-latency flows ride the rotor fabric as bulk.
        return self.start_bulk_flow(src, dst, size_bytes, start_ps)
