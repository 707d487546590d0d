"""Compiled-kernel engine classes.

Importing this module requires the compiled extension
(:mod:`repro.net.kernel._ckernel`); :func:`repro.net.kernel.engine_classes`
imports it only once the checked loader has found the extension present
and built from its source, and otherwise falls back to the pure-Python
engine.

The ``CK*`` classes add no slots (``__slots__ = ()``) — they rebind the
hot methods to the C implementations, which operate on the base classes'
``__slots__`` through member-descriptor offsets captured by
``_ckernel.init`` below. :class:`CKSimulator`, :class:`CKPort` and
:class:`CKPacket` derive from the *native tails* ``init`` builds on the
pure-Python classes (``_ckernel.SimTail``, ``_ckernel.PortTail``,
``_ckernel.PacketTail``; see :mod:`repro.net.kernel`): the clock, a
port's serializer state, byte counts and constants, and a packet's ints
are int64 fields whose getset descriptors, named after the slots they
shadow, serve Python readers unchanged. Some slots change type,
installed at construction: :class:`CKSimulator` stores a native
``_ckernel.EventHeap`` in ``_heap``; :class:`CKPort` stores
``_ckernel.Fifo`` rings in its three queues, a ``_ckernel.Ledger`` in
``_committed_control`` and a ``_ckernel.PortCounters`` in ``stats``;
:class:`CKNdpSource`'s ``_rtx`` and :class:`CKPullPacer`'s ``_tokens``
are Fifos. ``init`` registers :class:`~repro.net.node.RouteTable` and
:class:`~repro.net.link.SliceResolver` themselves, whose exact instances
the C dispatch and serializer interpret natively. Everything else
(construction, cold paths, introspection, repr) is inherited.

These classes are the kernel's closed world, its contract: a compiled
method runs only on them (exactly, on a :class:`CKSimulator`, with their
native queues), on exact :class:`CKPacket`, ``FlowRecord``,
``StatsCollector`` and ``BulkFlow`` objects, and at a whole number of ps
per byte. Anything else raises a :class:`TypeError` naming
``REPRO_KERNEL=py``, a :class:`CKPort` at construction. Packets come from
the kernel's own free list; the Python code that runs under this kernel
reaches it through :class:`CKRotorLBAgent`'s ``acquire`` and
``EngineClasses.release`` (``_ckernel.acquire`` and ``release``). Of
the pure-Python bodies ``init`` takes only ``Simulator._past_error``
and ``RotorLBAgent.on_slice`` (the failure seam); ``_ckernel.c``'s
header lists every Python call the kernel makes.
"""

from __future__ import annotations

from collections import deque

from ..link import _LAZY, Port, SliceResolver
from ..ndp import NdpSink, NdpSource, PullPacer
from ..node import CONSUMED, MAX_HOPS, Host, RouteTable, SwitchNode
from ..packet import _POOL_MAX, HEADER_BYTES, MTU_BYTES, Packet, PacketKind, Priority
from ..rotorlb import BulkFlow, BulkSink, RotorLBAgent
from ..sim import Simulator
from ..stats import FlowRecord, StatsCollector
from . import _ckernel

__all__ = [
    "CKSimulator",
    "CKPort",
    "CKHost",
    "CKSwitchNode",
    "CKNdpSource",
    "CKNdpSink",
    "CKPullPacer",
    "CKRotorLBAgent",
    "CKBulkSink",
    "CKPacket",
]


_ckernel.init(
    {
        "Simulator": Simulator,
        "Port": Port,
        "Packet": Packet,
        "Host": Host,
        "SwitchNode": SwitchNode,
        "RouteTable": RouteTable,
        "SliceResolver": SliceResolver,
        "LAZY": _LAZY,
        "CONSUMED": CONSUMED,
        "PRIO_CONTROL": Priority.CONTROL,
        "PRIO_LOW_LATENCY": Priority.LOW_LATENCY,
        "PRIO_BULK": Priority.BULK,
        "KIND_DATA": PacketKind.DATA,
        "KIND_HEADER": PacketKind.HEADER,
        "KIND_ACK": PacketKind.ACK,
        "KIND_NACK": PacketKind.NACK,
        "KIND_PULL": PacketKind.PULL,
        "NdpSource": NdpSource,
        "NdpSink": NdpSink,
        "PullPacer": PullPacer,
        "FlowRecord": FlowRecord,
        "StatsCollector": StatsCollector,
        "RotorLBAgent": RotorLBAgent,
        "BulkFlow": BulkFlow,
        "BulkSink": BulkSink,
        "deque": deque,
        "POOL_MAX": _POOL_MAX,
        "MAX_HOPS": MAX_HOPS,
        "HEADER_BYTES": HEADER_BYTES,
        "MTU_BYTES": MTU_BYTES,
        "py_past_error": Simulator._past_error,
        "py_on_slice": RotorLBAgent.on_slice,
    }
)


class CKSimulator(_ckernel.SimTail):
    """Simulator with the scheduling/run loop compiled.

    The event heap is a native ``_ckernel.EventHeap``: int64 ``(time,
    seq)`` keys instead of boxed tuples, and the heap owns the sequence
    counter (``_seq`` is unused). ``len(self._heap)`` still counts
    pending entries, so :attr:`pending` is unchanged. The clock ``now``
    is an int64 field of the ``SimTail`` base.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self._heap = _ckernel.EventHeap()

    @property
    def sched_pushes(self) -> int:
        """:attr:`Simulator.sched_pushes`, counted by the native heap."""
        return self._heap.seq

    at = _ckernel.at
    after = _ckernel.after
    run = _ckernel.run


class CKPort(_ckernel.PortTail):
    """Port with enqueue and the serializer kick compiled.

    ``Port.__init__`` binds ``self._kick_cb = self._kick``, which resolves
    through the rebound class attribute — so every kick event a compiled
    port schedules dispatches straight into C. The three priority queues
    are native ``_ckernel.Fifo`` rings, the committed-control ledger a
    ``_ckernel.Ledger`` and ``stats`` a ``_ckernel.PortCounters``; the
    serializer state, byte counts and constants are int64 fields of the
    ``PortTail`` base. A port on another simulator, or at a line rate
    that is not a whole number of ps per byte, is refused here.
    """

    __slots__ = ()

    def __init__(self, sim, *args, **kwargs) -> None:
        super().__init__(sim, *args, **kwargs)
        if type(sim) is not CKSimulator or not self._ps_per_byte:
            raise TypeError(
                f"ckernel: a port at {self.rate_bps} b/s on a "
                f"{type(sim).__name__} is outside the compiled kernel's "
                "contract (a CKSimulator, whole ps per byte); run with "
                "REPRO_KERNEL=py"
            )
        self._q_control = _ckernel.Fifo()
        self._q_data = _ckernel.Fifo()
        self._q_bulk = _ckernel.Fifo()
        self._committed_control = _ckernel.Ledger()
        self.stats = _ckernel.PortCounters()

    enqueue = _ckernel.enqueue
    _kick = _ckernel._kick


class CKHost(Host):
    """Host with the receive/dispatch-to-endpoint path compiled."""

    __slots__ = ()

    receive = _ckernel.receive


class CKSwitchNode(SwitchNode):
    """Switch whose fused dispatch is built in C.

    The base setter performs the install-once and table-type checks; the C
    dispatch replaces its closure. It interprets an exact
    :class:`~repro.net.node.RouteTable` itself, calls its ``fallback``
    while failures are armed, and hands the table's own call any value it
    cannot prove in range.
    """

    __slots__ = ()

    @property
    def router(self):
        return self._router

    @router.setter
    def router(self, route) -> None:
        SwitchNode.router.__set__(self, route)
        self.receive_cb = _ckernel.make_dispatch(self, route)


class CKNdpSource(NdpSource):
    """NDP source with ``_emit`` and the ACK/NACK/PULL receive handler
    compiled.

    Its retransmit queue is a native ``_ckernel.Fifo``. The Python
    ``start``, ``_send_next`` and failure-recovery hooks make packets
    through the compiled ``_emit``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rtx = _ckernel.Fifo()

    _emit = _ckernel.src_emit
    on_packet = _ckernel.src_on_packet


class CKNdpSink(NdpSink):
    """NDP sink with the ACK/dedup/delivery and PULL paths compiled."""

    __slots__ = ()

    on_packet = _ckernel.sink_on_packet
    emit_pull = _ckernel.sink_emit_pull


class CKPullPacer(PullPacer):
    """Pull pacer with the per-PULL tick compiled.

    ``PullPacer.__init__`` binds ``self._tick_cb = self._tick``, which
    resolves through the rebound class attribute — so every pacer event a
    compiled pacer schedules dispatches straight into C. Its PULL tokens
    are a native ``_ckernel.Fifo``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tokens = _ckernel.Fifo()

    _tick = _ckernel.pacer_tick


class CKRotorLBAgent(RotorLBAgent):
    """RotorLB agent with the slice step and relay intake compiled.

    ``on_slice`` runs relay, local and VLB phases in C on a fault-free
    agent and hands a disabled or failure-armed one to the Python body
    (the failure seam); ``accept_relay`` is what the route table's
    ``relay`` and ``requeue`` reach. ``submit``, ``requeue`` and the
    failure-only paths stay Python; the Python slice step makes its
    packets through the kernel's ``acquire``.
    """

    __slots__ = ()

    acquire = _ckernel.acquire
    on_slice = _ckernel.agent_on_slice
    accept_relay = _ckernel.agent_accept_relay


class CKBulkSink(BulkSink):
    """Bulk sink with the dedup and delivery count compiled.

    ``c_host_receive`` calls it directly, as it calls the compiled NDP
    endpoints.
    """

    __slots__ = ()

    on_packet = _ckernel.bulk_sink_on_packet


class CKPacket(_ckernel.PacketTail):
    """Packet whose ints are int64 fields of the ``PacketTail`` base.

    ``flow_id``, ``src_host``, ``dst_host``, ``seq``, ``size_bytes``,
    ``salt``, ``hops``, the nullable ``slice_stamp``, ``next_rack`` and
    ``relay_to``, and ``_pooled`` take ints only (``TypeError``) that fit
    in int64 (the kernel's ``OverflowError``); ``kind``, ``priority`` and
    ``recv_args`` stay slots. The kernel makes and frees these through
    its own free list (``_ckernel.acquire`` / ``release``); constructing
    one directly runs :meth:`Packet.__init__`, as for the oracle.
    """

    __slots__ = ()


_ckernel.register(
    CKSimulator,
    CKPort,
    CKHost,
    CKSwitchNode,
    CKNdpSource,
    CKNdpSink,
    CKPullPacer,
    CKRotorLBAgent,
    CKBulkSink,
    CKPacket,
)
