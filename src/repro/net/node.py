"""Hosts and switches for the packet simulator."""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from .link import Port
from .packet import Packet, PacketKind, Priority, release
from .sim import Simulator

__all__ = [
    "Host",
    "SwitchNode",
    "RouteTable",
    "Blackhole",
    "FlowEndpoint",
    "MAX_HOPS",
    "CONSUMED",
]

#: TTL guard: a packet bouncing more ToR hops than this is dropped.
MAX_HOPS = 32

#: Sentinel a router returns when it absorbed the packet itself (e.g. a
#: RotorLB agent queueing a relay packet) rather than forwarding it.
CONSUMED = object()

_DATA = PacketKind.DATA
_HEADER = PacketKind.HEADER
_BULK = Priority.BULK


class FlowEndpoint(Protocol):
    """Transport endpoints attached to hosts implement this.

    ``on_packet`` must not retain (or re-send) the packet object after it
    returns: the host recycles delivered packets through its kernel's free
    list (:mod:`repro.net.packet`'s, or the compiled kernel's own).
    """

    def on_packet(self, packet: Packet) -> None: ...


class Host:
    """An end host: one NIC port toward its ToR plus transport endpoints."""

    __slots__ = (
        "sim",
        "host_id",
        "rack",
        "nic",
        "sources",
        "sinks",
        "dropped",
        "receive_cb",
    )

    def __init__(self, sim: Simulator, host_id: int, rack: int) -> None:
        self.sim = sim
        self.host_id = host_id
        self.rack = rack
        self.nic: Port | None = None  # wired by the builder
        #: flow_id -> sender endpoint (receives ACK/NACK/PULL).
        self.sources: dict[int, FlowEndpoint] = {}
        #: flow_id -> receiver endpoint (receives DATA/HEADER).
        self.sinks: dict[int, FlowEndpoint] = {}
        self.dropped = 0
        #: ``self.receive`` bound once: ports schedule deliveries with this
        #: so the hot path never re-creates the bound method per packet.
        self.receive_cb = self.receive

    def send(self, packet: Packet) -> bool:
        assert self.nic is not None, "host NIC not wired"
        return self.nic.enqueue(packet)

    def receive(self, packet: Packet) -> None:
        kind = packet.kind
        if kind is _DATA or kind is _HEADER:
            endpoint = self.sinks.get(packet.flow_id)
        else:
            endpoint = self.sources.get(packet.flow_id)
        if endpoint is None:
            self.dropped += 1
        else:
            endpoint.on_packet(packet)
        # Packets die at hosts: recycle them for the next allocation.
        release(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Host({self.host_id}, rack={self.rack})"


class RouteTable:
    """A switch's forwarding rules as data, filled once by a network builder.

    Every router in the packet engine has one shape, and this table holds
    it (an Opera ToR forwards from precomputed per-slice rules the same
    way):

    * ``dst_rack = packet.dst_host // hosts_per_rack``;
    * a packet for the switch's own ``rack`` leaves on
      ``host_ports[dst_host % hosts_per_rack]`` (``rack=-1`` for switches
      without hosts);
    * with a ``relay`` (an Opera or RotorNet ToR's ``accept_relay``), bulk
      DATA for a foreign rack bumps ``hops`` and goes to the relay, and the
      table returns :data:`CONSUMED`;
    * otherwise the equal-cost egress ports are ``options[dst_rack]``, or
      ``options[stamp][dst_rack]`` on a *stamped* table (``slice_ps > 0``:
      Opera). The first routed hop stamps ``slice_stamp = (now //
      slice_ps) % len(options)``, and a stamp with no options is re-stamped
      from the current slice once;
    * no options drops the packet (``None``). Otherwise the switch takes
      ``options[(salt + hops) % len(options)]``, then bumps ``hops`` when
      ``bumps[dst_rack]`` is set. The hop count salts the next switch's
      choice, so which tiers bump is part of the routing.

    ``fallback``, when set, replaces all of the above with a Python
    ``fallback(switch, packet)``: that is the failure seam, where
    ``OperaSimNetwork.install_failures`` hands each ToR its fault-aware
    route closure.

    Calling the table is its pure-Python interpretation, which the py
    kernel runs. The compiled kernel recognises the exact type and
    interprets the same object natively, so a fault-free hop enters no
    Python frame there; anything it cannot prove in range it hands to
    this interpretation, which stays the oracle.
    """

    __slots__ = (
        "rack",
        "hosts_per_rack",
        "host_ports",
        "options",
        "bumps",
        "relay",
        "sim",
        "slice_ps",
        "fallback",
    )

    def __init__(
        self,
        rack: int,
        hosts_per_rack: int,
        host_ports: Sequence[Port],
        options: Sequence,
        bumps: Sequence[bool],
        relay: Callable[[Packet], None] | None = None,
        sim: Simulator | None = None,
        slice_ps: int = 0,
    ) -> None:
        self.rack = rack
        self.hosts_per_rack = hosts_per_rack
        self.host_ports = tuple(host_ports)
        self.bumps = tuple(bool(b) for b in bumps)
        self.relay = relay
        self.sim = sim
        self.slice_ps = slice_ps
        if slice_ps:
            if sim is None:
                raise ValueError("a stamped route table needs the simulator")
            self.options = tuple(
                tuple(tuple(ports) for ports in row) for row in options
            )
        else:
            self.options = tuple(tuple(ports) for ports in options)
        self.fallback: Callable[["SwitchNode", Packet], object] | None = None

    def __call__(self, switch: "SwitchNode", packet: Packet):
        fallback = self.fallback
        if fallback is not None:
            return fallback(switch, packet)
        dst_host = packet.dst_host
        dst_rack = dst_host // self.hosts_per_rack
        if dst_rack == self.rack:
            return self.host_ports[dst_host % self.hosts_per_rack]
        if (
            self.relay is not None
            and packet.priority is _BULK
            and packet.kind is _DATA
        ):
            # Bulk landing on a foreign rack: relay traffic for RotorLB
            # (a missed slice or an intentional VLB first hop).
            packet.hops += 1
            self.relay(packet)
            return CONSUMED
        slice_ps = self.slice_ps
        if slice_ps:
            options = self.options
            stamp = packet.slice_stamp
            if stamp is None:
                stamp = packet.slice_stamp = (
                    (self.sim.now // slice_ps) % len(options)
                )
            ports = options[stamp][dst_rack]
            if not ports:
                # Stale stamp (e.g. a rerouted packet): retry on the
                # current slice.
                stamp = packet.slice_stamp = (
                    (self.sim.now // slice_ps) % len(options)
                )
                ports = options[stamp][dst_rack]
        else:
            ports = self.options[dst_rack]
        if not ports:
            return None
        port = ports[(packet.salt + packet.hops) % len(ports)]
        if self.bumps[dst_rack]:
            packet.hops += 1
        return port


class SwitchNode:
    """A packet switch that forwards from its :class:`RouteTable`.

    The table returns the egress :class:`Port`, ``None`` to drop (the
    drop is counted; transports recover via NDP trimming or RotorLB
    requeueing upstream) or :data:`CONSUMED`.
    """

    __slots__ = ("sim", "name", "_router", "drops", "receive_cb")

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._router: RouteTable | None = None
        self.drops = 0
        #: Prebound ``self.receive`` for zero-allocation delivery events;
        #: replaced by a fused dispatch closure when a router is installed.
        self.receive_cb = self.receive

    @property
    def router(self) -> RouteTable | None:
        return self._router

    @router.setter
    def router(self, route: RouteTable) -> None:
        # Installing a router also builds the fused delivery closure the
        # ports actually dispatch: the TTL guard, the table lookup and the
        # egress enqueue in one flat function, with the table and switch
        # bound as locals. ``receive`` keeps delegating to the same
        # closure, so re-entrant callers (e.g. reconfiguration handlers
        # re-routing a caught packet) observe identical semantics.
        # Install-once: ports cache the closure on first delivery (link.py's
        # lazy ``_deliver`` bind), so swapping routers mid-run would leave
        # already-used ports routing through the stale closure; build a new
        # network to rewire instead. Anything that must *change* mid-run
        # lives in state the installed table reads per packet: its
        # ``fallback`` slot, which arms the failure seam, and the failure
        # state that fallback consults (see repro.net.failures). Both
        # kernels read that slot per packet and call the same Python
        # fallback, which keeps them bit-identical under dynamic failures;
        # fault-free, the compiled kernel interprets the table itself.
        if self._router is not None:
            raise RuntimeError(
                f"{self.name}: router already installed; ports may have "
                "cached its dispatch closure — routers are install-once"
            )
        if not isinstance(route, RouteTable):
            raise TypeError(
                f"{self.name}: a router is a RouteTable, not "
                f"{type(route).__name__}"
            )
        self._router = route
        switch = self

        def dispatch(packet: Packet, _route=route, _switch=switch) -> None:
            if packet.hops > MAX_HOPS:
                _switch.drops += 1
                release(packet)
                return
            port = _route(_switch, packet)
            if port is CONSUMED:
                return
            if port is None:
                _switch.drops += 1
                release(packet)
                return
            port.enqueue(packet)

        self.receive_cb = dispatch

    def receive(self, packet: Packet) -> None:
        receive_cb = self.receive_cb
        assert self._router is not None, f"{self.name}: no router installed"
        receive_cb(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SwitchNode({self.name})"


class Blackhole:
    """A receive-only pseudo-node that absorbs every packet handed to it.

    Failed components resolve to one of these: a packet "delivered" into a
    blackhole is physically lost (the sender's resolver picked a dead fiber
    at wire-entry time, exactly like a dark-slice miss), and ``on_packet``
    decides its fate — count it, park it for ToR-granularity bulk
    retransmission, or feed the NDP timeout clock
    (:mod:`repro.net.failures`). Delivery dispatch is the same prebound
    ``receive_cb`` contract every node honours, so both engine kernels
    hand packets over identically.
    """

    __slots__ = ("sim", "name", "on_packet", "absorbed", "receive_cb")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        on_packet: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.name = name
        self.on_packet = on_packet
        self.absorbed = 0
        self.receive_cb = self.receive

    def receive(self, packet: Packet) -> None:
        self.absorbed += 1
        self.on_packet(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Blackhole({self.name})"
