"""Compiled-kernel engine classes.

Importing this module requires the compiled extension
(:mod:`repro.net.kernel._ckernel`); :func:`repro.net.kernel.engine_classes`
imports it only once the checked loader has found the extension present
and built from its source, and otherwise falls back to the pure-Python
engine.

The ``CK*`` classes add no slots (``__slots__ = ()``) — they rebind the
hot methods to the C implementations, which operate on the base classes'
``__slots__`` through member-descriptor offsets captured by
``_ckernel.init`` below. One slot changes type: :class:`CKSimulator`
stores a native ``_ckernel.EventHeap`` in ``_heap`` instead of the
oracle's list of ``(time_ps, seq, callback, args)`` tuples (see
:mod:`repro.net.kernel`). Everything else (construction, cold paths,
introspection, repr) is inherited from the pure-Python classes, and the
C functions themselves delegate any call they cannot prove is on the
fast path (no native heap, non-integral line rate, subclasses, test
doubles) back to the pure-Python implementations passed to ``init``.
"""

from __future__ import annotations

from operator import index

from .. import sim as _sim_mod
from ..link import _LAZY, Port, PortStats
from ..ndp import NdpSink, NdpSource, PullPacer
from ..node import CONSUMED, MAX_HOPS, Host, SwitchNode
from ..packet import (
    _POOL,
    _POOL_MAX,
    HEADER_BYTES,
    Packet,
    PacketKind,
    Priority,
    acquire,
)
from ..sim import Simulator
from . import _ckernel

__all__ = [
    "CKSimulator",
    "CKPort",
    "CKHost",
    "CKSwitchNode",
    "CKNdpSource",
    "CKNdpSink",
    "CKPullPacer",
]


def _conform_entries(entries):
    """Any sequence of ``(time_ps, callback, args)`` triples, as the list of
    exact ``(int, callback, tuple)`` triples the compiled ``at_many`` reads."""
    return [(index(t), callback, tuple(args)) for t, callback, args in entries]


_ckernel.init(
    {
        "Simulator": Simulator,
        "Port": Port,
        "Packet": Packet,
        "Host": Host,
        "SwitchNode": SwitchNode,
        "PortStats": PortStats,
        "TRAIN": _sim_mod._TRAIN,
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
        "POOL": _POOL,
        "POOL_MAX": _POOL_MAX,
        "MAX_HOPS": MAX_HOPS,
        "HEADER_BYTES": HEADER_BYTES,
        "SORT_KEY": _sim_mod._T0,
        "py_at": Simulator.at,
        "py_after": Simulator.after,
        "py_at_many": Simulator.at_many,
        "py_conform_entries": _conform_entries,
        "py_run": Simulator.run,
        "py_past_error": Simulator._past_error,
        "py_enqueue": Port.enqueue,
        "py_kick": Port._kick,
        "py_receive": Host.receive,
        "py_acquire": acquire,
        "py_src_on_packet": NdpSource.on_packet,
        "py_sink_on_packet": NdpSink.on_packet,
        "py_emit_pull": NdpSink.emit_pull,
        "py_pacer_tick": PullPacer._tick,
    }
)


class CKSimulator(Simulator):
    """Simulator with the scheduling/run loop compiled.

    On the heap scheduler the event heap is a native
    ``_ckernel.EventHeap``: int64 ``(time, seq)`` keys instead of boxed
    tuples, and the heap owns the sequence counter (``_seq`` is unused).
    ``len(self._heap)`` still counts pending entries, so :attr:`pending`
    is unchanged. The wheel scheduler keeps the Python structures and
    every method delegates to the pure-Python engine.
    """

    __slots__ = ()

    def __init__(
        self,
        scheduler: str | None = None,
        coalesce: bool | None = None,
        coalesce_gap_ps: int | None = None,
    ) -> None:
        super().__init__(scheduler, coalesce, coalesce_gap_ps)
        if self._wheel is None:
            self._heap = _ckernel.EventHeap()

    @property
    def sched_pushes(self) -> int:
        """:attr:`Simulator.sched_pushes`, counted by the native heap."""
        heap = self._heap
        seq = self._seq if heap.__class__ is list else heap.seq
        return seq + self.train_repushes

    at = _ckernel.at
    after = _ckernel.after
    at_many = _ckernel.at_many
    run = _ckernel.run


class CKPort(Port):
    """Port with enqueue and the serializer kick compiled.

    ``Port.__init__`` binds ``self._kick_cb = self._kick``, which resolves
    through the rebound class attribute — so every kick event a compiled
    port schedules dispatches straight into C.
    """

    __slots__ = ()

    enqueue = _ckernel.enqueue
    _kick = _ckernel._kick


class CKHost(Host):
    """Host with the receive/dispatch-to-endpoint path compiled."""

    __slots__ = ()

    receive = _ckernel.receive


class CKSwitchNode(SwitchNode):
    """Switch whose fused dispatch closure is built in C.

    The base setter performs the install-once check and builds the
    pure-Python fused closure; that closure is kept as the fallback for
    packets/ports the C dispatch cannot prove are fast-path.
    """

    __slots__ = ()

    @property
    def router(self):
        return self._router

    @router.setter
    def router(self, route) -> None:
        SwitchNode.router.__set__(self, route)
        py_dispatch = self.receive_cb
        self.receive_cb = _ckernel.make_dispatch(self, route, py_dispatch)


class CKNdpSource(NdpSource):
    """NDP source with the ACK/NACK/PULL receive handler compiled."""

    __slots__ = ()

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
    compiled pacer schedules dispatches straight into C.
    """

    __slots__ = ()

    _tick = _ckernel.pacer_tick


_ckernel.register(
    CKSimulator,
    CKPort,
    CKHost,
    CKSwitchNode,
    CKNdpSource,
    CKNdpSink,
    CKPullPacer,
)
