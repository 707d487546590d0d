"""RotorLB bulk transport (RotorNet [34], extended per paper section 4.2.2).

Bulk traffic is buffered at the edge until a direct circuit to the
destination rack appears. Each ToR runs a :class:`RotorLBAgent` that, at
every topology slice:

1. serves queued *relay* traffic for the racks now directly connected
   (second VLB hops have priority, as in RotorNet);
2. serves *local* flows destined to those racks, polling its hosts subject
   to per-host NIC budgets ("end hosts transmit when polled by their
   attached ToR", section 3.5);
3. with leftover circuit capacity, offers spare bandwidth for two-hop
   Valiant load balancing: local traffic for *other* racks is handed to the
   connected peer (if the peer has relay-queue headroom — the offer/accept
   handshake collapsed to an admission check), which later delivers it
   direct.

Bulk packets that miss their slice (e.g. delayed behind a burst of
priority-queued low-latency traffic) are either requeued by the agent or
— when they reach the wrong rack — absorbed as relay traffic there, which
models the paper's NACK-and-retransmit recovery at ToR granularity.

Every class here is slotted: under the compiled kernel, ``CKRotorLBAgent``
runs :meth:`RotorLBAgent.on_slice` and :meth:`RotorLBAgent.accept_relay`,
and ``CKBulkSink`` runs :meth:`BulkSink.on_packet`, in C on these same
slots (see :mod:`repro.net.kernel`). These Python bodies stay the oracle,
and they are what runs while failures are armed.
"""

from __future__ import annotations

from collections import deque

from .link import Port
from .node import Host
from .packet import HEADER_BYTES, MTU_BYTES, Packet, PacketKind, Priority, acquire
from .sim import Simulator
from .stats import FlowRecord, StatsCollector

__all__ = ["BulkFlow", "BulkSink", "RotorLBAgent"]


class BulkFlow:
    """Sender-side state of one bulk flow (packets materialize on poll)."""

    __slots__ = ("record", "mtu", "payload_per_packet", "unsent_bytes", "next_seq")

    def __init__(self, record: FlowRecord, mtu: int = MTU_BYTES) -> None:
        self.record = record
        self.mtu = mtu
        self.payload_per_packet = mtu - HEADER_BYTES
        self.unsent_bytes = record.size_bytes
        self.next_seq = 0

    @property
    def exhausted(self) -> bool:
        return self.unsent_bytes <= 0

    def make_packet(self, next_rack: int, relay_to: int | None) -> Packet:
        payload = min(self.payload_per_packet, self.unsent_bytes)
        self.unsent_bytes -= payload
        seq = self.next_seq
        self.next_seq += 1
        return acquire(
            self.record.flow_id,
            PacketKind.DATA,
            self.record.src_host,
            self.record.dst_host,
            seq,
            HEADER_BYTES + payload,
            Priority.BULK,
            next_rack=next_rack,
            relay_to=relay_to,
        )


class BulkSink:
    """Receiver side: counts payload bytes into the stats collector."""

    __slots__ = ("sim", "record", "stats", "_received")

    def __init__(
        self, sim: Simulator, host: Host, record: FlowRecord, stats: StatsCollector
    ) -> None:
        self.sim = sim
        self.record = record
        self.stats = stats
        self._received: set[int] = set()
        host.sinks[record.flow_id] = self

    def on_packet(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA:
            return
        if packet.seq in self._received:
            return
        self._received.add(packet.seq)
        self.stats.delivered(
            self.record.flow_id, packet.size_bytes - HEADER_BYTES, self.sim.now
        )


class RotorLBAgent:
    """Per-ToR RotorLB state machine.

    Parameters
    ----------
    rack:
        This ToR's rack index.
    hosts_per_rack:
        Hosts per rack: host ``h`` sits in rack ``h // hosts_per_rack``
        (resolves packet and flow destinations).
    uplinks:
        ``switch -> Port`` for this ToR's rotor-facing ports.
    slice_payload_bytes:
        Usable bytes per uplink per slice (duty cycle and guard applied by
        the builder).
    host_budget_bytes:
        Per-host NIC budget per slice (polled transmission).
    hosts:
        This rack's host ids: every slice starts from a copy of one
        ``{host: host_budget_bytes}`` template.
    active_by_slice:
        Slice-boundary batching table: one row per cycle slice listing
        this ToR's live ``(switch, port, peer)`` circuits (builders derive
        it from :func:`repro.core.schedule.slice_activations`). A slice
        boundary rotates every uplink's matching with plain list lookups
        — no schedule queries per port per slice.
    relay_cap_bytes:
        Per-destination relay queue cap: the admission bound of the VLB
        offer/accept exchange.
    """

    __slots__ = (
        "sim",
        "rack",
        "hosts_per_rack",
        "uplinks",
        "slice_payload_bytes",
        "host_budget_bytes",
        "relay_cap_bytes",
        "enable_vlb",
        "hosts",
        "active_by_slice",
        "_budget_template",
        "local_flows",
        "local_backlog",
        "relay_q",
        "relay_bytes",
        "_host_budget",
        "peers",
        "requeues",
        "vlb_bytes_sent",
        "direct_bytes_sent",
        "disabled",
        "failure_view",
        "relay_vlb_dsts",
    )

    def __init__(
        self,
        sim: Simulator,
        rack: int,
        hosts_per_rack: int,
        uplinks: dict[int, Port],
        slice_payload_bytes: int,
        host_budget_bytes: int,
        hosts: list[int],
        active_by_slice: list[list[tuple[int, Port, int]]],
        relay_cap_bytes: int = 512_000,
        enable_vlb: bool = True,
    ) -> None:
        self.sim = sim
        self.rack = rack
        self.hosts_per_rack = hosts_per_rack
        self.uplinks = uplinks
        self.slice_payload_bytes = slice_payload_bytes
        self.host_budget_bytes = host_budget_bytes
        self.relay_cap_bytes = relay_cap_bytes
        self.enable_vlb = enable_vlb
        self.hosts = hosts
        self.active_by_slice = active_by_slice
        self._budget_template = {h: host_budget_bytes for h in hosts}
        #: dst rack -> sender flows with bytes left (FIFO round-robin).
        self.local_flows: dict[int, deque[BulkFlow]] = {}
        self.local_backlog: dict[int, int] = {}
        #: dst rack -> materialized packets awaiting a direct circuit.
        self.relay_q: dict[int, deque[Packet]] = {}
        self.relay_bytes: dict[int, int] = {}
        self._host_budget: dict[int, int] = {}
        self.peers: dict[int, "RotorLBAgent"] = {}  # rack -> agent (builder)
        self.requeues = 0
        self.vlb_bytes_sent = 0
        self.direct_bytes_sent = 0
        #: Set by the failure injector when this ToR itself dies: a dead
        #: ToR stops polling hosts and filling circuits immediately.
        self.disabled = False
        #: The *detected* failure set (None until detection completes or
        #: when nothing is known failed): once set, on_slice skips circuits
        #: the hello protocol has marked dead, so the agent stops
        #: offloading bulk onto blackholed links. Kept None for the empty
        #: set so the fault-free slice loop is untouched byte for byte.
        self.failure_view = None  # FailureSet | None
        #: Destination racks this ToR has *no* surviving direct circuit to
        #: (per the detected view; recomputed at every detection epoch by
        #: the failure injector). Relay traffic for these racks would
        #: strand forever waiting for a circuit that never comes, so the
        #: VLB phase re-offloads it through a live peer instead. Empty
        #: fault-free, so the normal VLB loop never looks at it.
        self.relay_vlb_dsts: frozenset = frozenset()

    # -------------------------------------------------------------- ingress

    def submit(self, flow: BulkFlow) -> None:
        """Register a local bulk flow (called at flow start time)."""
        dst_rack = flow.record.dst_host // self.hosts_per_rack
        if dst_rack == self.rack:
            raise ValueError("rack-local bulk traffic never enters RotorLB")
        self.local_flows.setdefault(dst_rack, deque()).append(flow)
        self.local_backlog[dst_rack] = (
            self.local_backlog.get(dst_rack, 0) + flow.unsent_bytes
        )

    def accept_relay(self, packet: Packet) -> None:
        """Queue a VLB packet (or a mis-slotted direct one) for delivery."""
        dst_rack = packet.dst_host // self.hosts_per_rack
        packet.relay_to = None
        packet.next_rack = None
        self.relay_q.setdefault(dst_rack, deque()).append(packet)
        self.relay_bytes[dst_rack] = (
            self.relay_bytes.get(dst_rack, 0) + packet.size_bytes
        )

    def relay_headroom(self, dst_rack: int) -> int:
        return self.relay_cap_bytes - self.relay_bytes.get(dst_rack, 0)

    def requeue(self, packet: Packet) -> None:
        """A packet that missed its circuit returns to the agent."""
        self.requeues += 1
        self.accept_relay(packet)

    # ------------------------------------------------------------- per slice

    def _pull_local_packet(
        self, dst_rack: int, next_rack: int, relay_to: int | None
    ) -> Packet | None:
        flows = self.local_flows.get(dst_rack)
        while flows:
            flow = flows[0]
            if flow.exhausted:
                flows.popleft()
                continue
            src = flow.record.src_host
            if self._host_budget.get(src, 0) <= 0:
                # This host's NIC is out of budget this slice; try the next
                # flow (round-robin across senders).
                flows.rotate(-1)
                if all(
                    self._host_budget.get(f.record.src_host, 0) <= 0
                    for f in flows
                ):
                    return None
                continue
            packet = flow.make_packet(next_rack, relay_to)
            payload = packet.size_bytes - HEADER_BYTES
            self._host_budget[src] = self._host_budget.get(src, 0) - payload
            self.local_backlog[dst_rack] -= payload
            if flow.exhausted:
                flows.popleft()
            else:
                flows.rotate(-1)  # round-robin across this rack's senders
            return packet
        return None

    def on_slice(self, slice_index: int) -> None:
        """Fill this slice's circuits: relay, then local, then VLB."""
        if self.disabled:
            return  # a dead ToR polls nobody and fills nothing
        self._host_budget = dict(self._budget_template)
        active = self.active_by_slice
        pairs = active[slice_index % len(active)]
        view = self.failure_view
        if view is not None:
            # Known-failed circuits are skipped — the detected view, not
            # ground truth, so a just-failed link keeps eating traffic
            # until the hello protocol has propagated (<= 2 cycles).
            pairs = [
                (switch, port, peer)
                for switch, port, peer in pairs
                if view.circuit_ok(self.rack, peer, switch)
            ]
        spare: list[tuple[int, int, int]] = []  # (switch, peer, budget)
        for switch, port, peer in pairs:
            budget = self.slice_payload_bytes - port.queued_bytes(Priority.BULK)
            # Phase 1: relay traffic now one hop from its destination.
            queue = self.relay_q.get(peer)
            while budget > 0 and queue:
                packet = queue.popleft()
                self.relay_bytes[peer] -= packet.size_bytes
                packet.next_rack = peer
                budget -= packet.size_bytes
                self.direct_bytes_sent += packet.size_bytes
                port.enqueue(packet)
            # Phase 2: local direct traffic.
            while budget > 0:
                packet = self._pull_local_packet(peer, peer, None)
                if packet is None:
                    break
                budget -= packet.size_bytes
                self.direct_bytes_sent += packet.size_bytes
                port.enqueue(packet)
            if budget > 0:
                spare.append((switch, peer, budget))
        if self.enable_vlb:
            self._fill_vlb(spare)

    def _fill_vlb(self, spare: list[tuple[int, int, int]]) -> None:
        """Phase 3: ship skewed backlog two-hop through connected peers."""
        if self.relay_vlb_dsts:
            # Failure re-VLB: relay traffic whose every direct circuit is
            # dead takes a fresh intermediate hop through a live peer (the
            # peer absorbs it as relay and delivers — or re-offloads — from
            # there). This pass runs over EVERY spare circuit before the
            # local-backlog loop below, which early-returns the moment no
            # offloadable backlog remains — stranded relay must not depend
            # on which spare entry that happens at.
            for i, (_switch, peer, budget) in enumerate(spare):
                agent = self.peers.get(peer)
                if agent is None or agent.disabled:
                    continue
                budget = self._ship_forced_relay(
                    agent, self.uplinks[_switch], peer, budget
                )
                spare[i] = (_switch, peer, budget)
        for _switch, peer, budget in spare:
            agent = self.peers.get(peer)
            if agent is None or agent.disabled:
                continue
            port = self.uplinks[_switch]
            while budget > 0:
                backlogged = [
                    (dst, b)
                    for dst, b in self.local_backlog.items()
                    # Never offload toward a peer that itself has no live
                    # direct circuit to dst (empty fault-free): a chain of
                    # incapable intermediates ping-pongs the packet until
                    # the TTL guard silently eats it.
                    if b > 0 and dst != peer and dst not in agent.relay_vlb_dsts
                ]
                if not backlogged:
                    return
                dst = max(backlogged, key=lambda item: item[1])[0]
                if agent.relay_headroom(dst) < MTU_BYTES:
                    break
                packet = self._pull_local_packet(dst, peer, dst)
                if packet is None:
                    return
                budget -= packet.size_bytes
                self.vlb_bytes_sent += packet.size_bytes
                port.enqueue(packet)

    def _ship_forced_relay(
        self, agent: "RotorLBAgent", port: Port, peer: int, budget: int
    ) -> int:
        """Move stranded relay traffic one VLB hop toward a live peer."""
        for dst in sorted(self.relay_vlb_dsts):
            if dst == peer or dst in agent.relay_vlb_dsts:
                # Phase 1 handles peer-bound relay; and a peer that cannot
                # itself reach dst directly would just bounce the packet
                # back (until the TTL guard eats it) — hold for a capable
                # peer instead.
                continue
            queue = self.relay_q.get(dst)
            while budget > 0 and queue:
                if agent.relay_headroom(dst) < queue[0].size_bytes:
                    break
                packet = queue.popleft()
                self.relay_bytes[dst] -= packet.size_bytes
                packet.next_rack = peer
                budget -= packet.size_bytes
                self.vlb_bytes_sent += packet.size_bytes
                port.enqueue(packet)
            if budget <= 0:
                break
        return budget

    # ---------------------------------------------------------------- state

    def pending_bytes(self) -> int:
        return sum(self.local_backlog.values()) + sum(self.relay_bytes.values())
