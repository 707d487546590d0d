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
from ..core.routing import UNREACHABLE
from ..core.schedule import slice_activations
from ..core.timing import PS_PER_US
from ..core.topology import OperaNetwork
from ..topologies.expander import ExpanderTopology
from ..topologies.folded_clos import FoldedClos
from ..topologies.rotornet import RotorNetTopology
from .kernel import engine_classes
from .link import Port, SliceResolver
from .ndp import PullPacer, start_ndp_flow
from .node import CONSUMED, Host, RouteTable, SwitchNode
from .packet import Packet, PacketKind, Priority, release
from .rotorlb import BulkFlow, RotorLBAgent
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

    def _rack_host_ports(self, rack: int, hosts_per_rack: int) -> list[Port]:
        """A ToR's host ports, in rack-local host order (a route table's)."""
        return [
            self.host_ports[host]
            for host in range(rack * hosts_per_rack, (rack + 1) * hosts_per_rack)
        ]

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
        #: Every fault-aware router's memoized next hops (filled by
        #: :meth:`install_failures`), so detection epochs can invalidate
        #: stale routes in one pass.
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
            agent = self.kernel.RotorLBAgent(
                self.sim,
                rack,
                hosts_per_rack=network.hosts_per_rack,
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
            tor.router = self._route_table(rack, agent)
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

    def _uplink_resolver(self, rack: int, switch: int) -> SliceResolver:
        # Per-slice peers and dark windows are pure functions of the
        # schedule: a table both kernels read with two integer ops.
        sched = self.network.schedule
        slice_ps = self.slice_ps
        epsilon_ps = self.network.timing.epsilon_ps
        peers: list[SwitchNode | None] = []
        dark_from: list[int] = []
        for s in range(sched.cycle_slices):
            peer = sched.matching_of(switch, s)[rack]
            peers.append(None if peer == rack else self.tors[peer])
            # Dark from epsilon while the mirrors retarget, else never.
            dark_from.append(epsilon_ps if sched.is_down(switch, s) else slice_ps)
        return SliceResolver(slice_ps, peers, dark_from)

    def _faulty_resolver(self, rack: int, switch: int, resolve: SliceResolver, ctx):
        # Failure-armed variant (swapped in by install_failures; ports read
        # ``resolver`` per packet in both kernels, so the swap is live).
        # The *actual* failure sets are captured as locals — the injector
        # mutates them in place — and a packet launched into a physically
        # dead circuit lands in this rack's blackhole: light simply stops
        # arriving, with none of the queue-drop recovery paths firing.
        sched = self.network.schedule
        cycle = sched.cycle_slices
        peer_rack = [sched.matching_of(switch, s)[rack] for s in range(cycle)]
        slice_ps = self.slice_ps
        links_down = ctx.links_down
        racks_down = ctx.racks_down
        switches_down = ctx.switches_down
        blackhole = ctx.blackholes[rack]

        def resolve_faulty(packet: Packet, now_ps: int):
            peer = resolve(packet, now_ps)
            if peer is not None and ctx.any_down:
                pr = peer_rack[(now_ps // slice_ps) % cycle]
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

    def _route_table(self, rack: int, agent: RotorLBAgent) -> RouteTable:
        # Stamped expander routing for every (slice, destination), filled
        # once: ``options[stamp][dst_rack]`` are the uplinks of the
        # slice's equal-cost next hops. A ToR has few distinct option
        # sets (subsets of its uplinks), so equal ones share one tuple.
        # Each slice reads the rack's neighbours' distance rows once: an
        # uplink leads toward ``dst_rack`` when its peer is one hop
        # closer, kept in adjacency order (``SliceRoutes.next_hops``,
        # without a call per destination).
        uplinks = self.uplink_ports[rack]
        n_racks = self.network.n_racks
        shared: dict[tuple[int, ...], tuple[Port, ...]] = {}
        options = []
        for routes in self.pipeline.routing.all_slices():
            dist = routes.dist
            mine = dist[rack]
            via = [(dist[peer], switch) for peer, switch in routes.adjacency[rack]]
            row = []
            for dst_rack in range(n_racks):
                target = mine[dst_rack]
                if dst_rack == rack or target == UNREACHABLE:
                    switches: tuple[int, ...] = ()
                else:
                    switches = tuple(
                        switch for far, switch in via if far[dst_rack] == target - 1
                    )
                ports = shared.get(switches)
                if ports is None:
                    ports = shared[switches] = tuple(uplinks[w] for w in switches)
                row.append(ports)
            options.append(row)
        hosts_per_rack = self.network.hosts_per_rack
        return RouteTable(
            rack,
            hosts_per_rack,
            self._rack_host_ports(rack, hosts_per_rack),
            options,
            bumps=[True] * n_racks,
            relay=agent.accept_relay,
            sim=self.sim,
            slice_ps=self.slice_ps,
        )

    def _fault_router(self, rack: int, ctx):
        """The ToR's route while failures are armed (the table's fallback).

        Routes on the *detected* view (``ctx.routing``), blackholes what a
        physically dead ToR would switch, parks packets a slice when the
        detected routing has no path now but has one later, and feeds the
        blackhole when no slice has one.
        """
        hosts_per_rack = self.network.hosts_per_rack
        host_ports = self.host_ports
        uplinks = self.uplink_ports[rack]
        agent = self.agents[rack]
        slice_ps = self.slice_ps
        cycle = self._cycle_slices
        sim = self.sim
        _BULK = Priority.BULK
        _DATA = PacketKind.DATA
        # Equal-cost option lists are pure functions of (stamp, dst_rack)
        # within a routing epoch; memoize them per router so the
        # per-packet cost is one dict hit. Registered with the network:
        # detection epochs clear it so the next miss repopulates from the
        # epoch's detected-failure routing.
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
                options = ctx.routing.routes(stamp).next_hops(rack, dst_rack)
                hop_cache[key] = options
            if not options:
                return None
            return options[salt % len(options)]

        def route(_switch: SwitchNode, packet: Packet):
            if rack in ctx.racks_down:
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
                    if ctx.any_down or ctx.detected is not None:
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
            return uplinks[hop[1]]

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
        Swaps every uplink resolver for its failure-aware variant and
        hands every ToR's route table a fault-aware Python ``fallback``
        (so failures add no kernel code: both kernels call the same
        closures); with an empty schedule the armed network is bitwise
        identical to an unarmed one (priced as ``faults_overhead`` in the
        engine microbench).

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
                port.resolver = self._faulty_resolver(
                    rack, switch, port.resolver, ctx
                )
            self.tors[rack].router.fallback = self._fault_router(rack, ctx)
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
        self.kernel.BulkSink(self.sim, self.hosts[dst], record, self.stats)
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
            tor.router = self._route_table(rack)

    def _route_table(self, rack: int) -> RouteTable:
        # Equal-cost shortest-path uplinks per destination rack; every
        # forwarded hop bumps.
        routes = self.topology.routes
        uplinks = self.uplink_ports[rack]
        n_racks = self.topology.n_racks
        hosts_per_rack = self.topology.hosts_per_rack
        return RouteTable(
            rack,
            hosts_per_rack,
            self._rack_host_ports(rack, hosts_per_rack),
            [
                [uplinks[switch] for _peer, switch in routes.next_hops(rack, dst)]
                for dst in range(n_racks)
            ],
            bumps=[True] * n_racks,
        )


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
        for core_id, core in enumerate(self.cores):
            self.core_down.append(
                {
                    agg: port_to(f"core{core_id}->agg{agg}", self.aggs[agg])
                    for agg in clos.core_agg_links(core_id)
                }
            )
        # Routes: per-packet ECMP up, deterministic down. ToRs and aggs bump
        # only going up; a core always bumps. The hop count salts the next
        # tier's choice.
        clos = self.clos
        hosts_per_rack = clos.hosts_per_rack
        racks = range(clos.n_racks)
        for rack, tor in enumerate(self.tors):
            up = [self.tor_up[rack][agg] for agg in clos.tor_agg_links(rack)]
            tor.router = RouteTable(
                rack,
                hosts_per_rack,
                self._rack_host_ports(rack, hosts_per_rack),
                [() if dst == rack else up for dst in racks],
                bumps=[True] * clos.n_racks,
            )
        for agg_id, agg in enumerate(self.aggs):
            pod = agg_id // clos.aggs_per_pod
            up = [self.agg_up[agg_id][core] for core in clos.agg_core_links(agg_id)]
            down = [dst // clos.tors_per_pod == pod for dst in racks]
            agg.router = RouteTable(
                -1,
                hosts_per_rack,
                (),
                [
                    (self.agg_down[agg_id][dst],) if down[dst] else up
                    for dst in racks
                ],
                bumps=[not d for d in down],
            )
        for core_id, core in enumerate(self.cores):
            group = core_id // clos.cores_per_group
            core.router = RouteTable(
                -1,
                hosts_per_rack,
                (),
                [
                    (
                        self.core_down[core_id][
                            dst // clos.tors_per_pod * clos.aggs_per_pod + group
                        ],
                    )
                    for dst in racks
                ],
                bumps=[True] * clos.n_racks,
            )


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
            agent = self.kernel.RotorLBAgent(
                self.sim,
                rack,
                hosts_per_rack=topology.hosts_per_rack,
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
            tor.router = self._route_table(rack, agent)
        if topology.hybrid:
            # The packet fabric delivers straight to the destination ToR.
            n_racks = topology.n_racks
            self.fabric.router = RouteTable(
                -1,
                topology.hosts_per_rack,
                (),
                [(port,) for port in self.fabric_down],
                bumps=[False] * n_racks,
            )
        for agent in self.agents:
            agent.peers = {r: self.agents[r] for r in range(topology.n_racks)}
        self._schedule_slices()

    def current_slice(self, now_ps: int | None = None) -> int:
        now = self.sim.now if now_ps is None else now_ps
        return (now // self.slice_ps) % self.topology.schedule.cycle_slices

    def _rotor_resolver(self, rack: int, switch: int) -> SliceResolver:
        # All rotors reconfigure in unison at each boundary: the fabric is
        # dark for the final reconfiguration_ps of every slice.
        sched = self.topology.schedule
        peers = []
        for s in range(sched.cycle_slices):
            peer = sched.matching_of(switch, s)[rack]
            peers.append(None if peer == rack else self.tors[peer])
        dark_from = self.slice_ps - self.reconfiguration_ps
        return SliceResolver(self.slice_ps, peers, [dark_from] * len(peers))

    def _make_requeue(self, rack: int):
        def handle(packet: Packet) -> None:
            if packet.kind is PacketKind.DATA:
                self.agents[rack].requeue(packet)
            else:
                release(packet)

        return handle

    def _route_table(self, rack: int, agent: RotorLBAgent) -> RouteTable:
        # Bulk relays through RotorLB; everything else foreign takes the
        # packet fabric (bumping), when there is one. Non-hybrid RotorNet
        # has no low-latency service: control and "low-latency" data alike
        # must wait in RotorLB queues, which is exactly the paper's point
        # (Figure 7c). They are treated as bulk at the flow level; anything
        # else has no options here and is dropped.
        topology = self.topology
        uplink = (self.fabric_up[rack],) if topology.hybrid else ()
        return RouteTable(
            rack,
            topology.hosts_per_rack,
            self._rack_host_ports(rack, topology.hosts_per_rack),
            [() if dst == rack else uplink for dst in range(topology.n_racks)],
            bumps=[True] * topology.n_racks,
            relay=agent.accept_relay,
        )

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
        self.kernel.BulkSink(self.sim, self.hosts[dst], record, self.stats)
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
