"""Engine-kernel seam: pure-Python oracle vs compiled fast path.

PR 5's profile evidence was unambiguous: after coalescing, batched slice
boundaries and allocation-free dispatch, the remaining per-event cost of
the packet engine lives in the *bodies* of the hot callbacks —
``Port.enqueue``, the serializer commit, endpoint dispatch — not in event
structure. This package provides a compiled kernel for exactly that inner
loop, selected with ``REPRO_KERNEL`` (mirroring ``REPRO_SCHEDULER`` /
``REPRO_COALESCE``):

* ``py``   — the pure-Python engine classes, unchanged. This path is the
  differential oracle: every observable of a ``c``-kernel run must be
  bit-identical to it (``tests/test_kernel.py``).
* ``c``    — compiled implementations of the hot methods. Falls back to
  ``py`` (with a one-time warning) when the compiled module is absent.
* ``auto`` (default) — ``c`` when the compiled module imports, else ``py``.

Design: **one data layout, two method implementations — except the
event heap.** The compiled kernel is a set of C functions that read and
write the *existing* ``__slots__`` of ``Simulator`` / ``Port`` /
``Packet`` / ``Host`` / ``SwitchNode`` through member-descriptor
offsets, plus thin subclasses (:mod:`.engine`) that rebind only the hot
methods to those C implementations. Packets are the same free-listed
``Packet`` objects and trains the same ``(group, pos)`` entries.

The event heap is the one structure the kernels do not share. A native
sampling profile of the fig07 Clos 25%-load cell under ``c`` (SIGPROF
instruction-pointer samples) put 35% of engine time in unboxing the
oracle's ``(time_ps, seq, callback, args)`` tuples — ``PyLong_AsLongLong``
takes a byte-array round trip for every value >= 2**30 ps — and 11% in
the sift. So ``CKSimulator`` keeps a native ``_ckernel.EventHeap`` in its
``_heap`` slot: a binary heap of ``{int64 time, int64 seq, callback,
args}`` structs that also owns the sequence counter. Keys are unique, so
it dispatches in the oracle's ``(time, seq)`` order bit for bit, and its
``len()`` keeps ``pending`` identical. What stays shared: the clock,
every counter slot, the callbacks and their args tuples. Python code
that schedules onto a compiled simulator — the pure-Python bodies the C
entry points fall back to — goes through ``sim.at`` / ``at_many``, never
``heapq``; a simulator without a native heap (a plain ``Simulator``, the
wheel scheduler) keeps the oracle's structures, and every C path that
would schedule onto it delegates to the pure-Python implementation.
Bit-identity reduces to the C code replicating the Python control flow —
which the differential tests pin per scheduler x coalesce x executor.

The compiled module is built by ``setup.py`` (``pip install -e .`` or
``python setup.py build_ext --inplace``) from the hand-written CPython
extension ``_ckernel.c`` (mypyc/Cython are not part of the pinned
toolchain, and hand-written C manipulates the ``__slots__`` layout
directly); the extension is declared optional, so a missing compiler
degrades to the pure-Python kernel instead of failing the install.

**The failure seam.** Live failure injection (``repro.core.faults`` +
``OperaSimNetwork.install_failures``) adds *zero* kernel code. Two
deliberate properties of this seam make that possible:

* The compiled ``SwitchNode`` calls the *Python* route closure per
  packet (``_ckernel.c`` invokes ``route(switch, packet)`` exactly like
  the pure engine), so blackholing on failed hops, dead-rack checks and
  slice-parking live in one closure both kernels execute.
* ``Port.resolver`` is re-read on every transmit in both kernels, so
  the injector can swap a failure-aware uplink resolver in live.

Dynamic state reaches the closures through one-slot mutable cells
(actual failed sets mutated in place; the *detected* view swapped at
hello epochs), never by reinstalling routers. Consequently ``py`` and
``c`` runs stay byte-identical under active failures — CI's
``faults-smoke`` job and ``tests/test_faults_dynamic.py`` pin this —
and arming an empty schedule is bitwise invisible to either kernel.

**The telemetry seam.** Metrics (``repro.obs.metrics``) likewise add
*zero* kernel code. Every counter the snapshot reports already lives in
shared ``__slots__`` both kernels write — ``Simulator.events_processed``
and friends (via :meth:`~repro.net.sim.Simulator.counters`),
``PortStats``'s per-port tallies, ``StatsCollector``'s flow records —
and ``drain_network`` merely *reads* them into the registry after the
run's observables are computed. Because the compiled kernel updates the
same slots through member descriptors, a ``py`` and a ``c`` run of the
same cell produce byte-identical metric snapshots by construction (CI's
``telemetry-smoke`` job and ``tests/test_obs.py`` pin this), and an
armed run's simulated results stay bitwise identical to an off run:
observation happens strictly after simulation.
"""

from __future__ import annotations

import os
import warnings
from typing import NamedTuple

__all__ = [
    "KERNELS",
    "EngineClasses",
    "engine_classes",
    "kernel_default",
    "compiled_available",
]

#: Recognised kernel names (``auto`` additionally accepted in the env var).
KERNELS = ("py", "c")


class EngineClasses(NamedTuple):
    """The engine classes a network builder instantiates, per kernel."""

    name: str
    Simulator: type
    Port: type
    Host: type
    SwitchNode: type
    NdpSource: type
    NdpSink: type
    PullPacer: type


_PY: EngineClasses | None = None
#: ``None`` = not probed yet, ``False`` = probed and unavailable.
_COMPILED: EngineClasses | bool | None = None
_WARNED = False


def kernel_default() -> str:
    """Process-wide kernel selection: ``REPRO_KERNEL=py|c|auto``."""
    raw = os.environ.get("REPRO_KERNEL", "") or "auto"
    if raw not in (*KERNELS, "auto"):
        raise ValueError(
            f"unknown kernel {raw!r} in REPRO_KERNEL; known: py, c, auto"
        )
    return raw


def _python_classes() -> EngineClasses:
    global _PY
    if _PY is None:
        from ..link import Port
        from ..ndp import NdpSink, NdpSource, PullPacer
        from ..node import Host, SwitchNode
        from ..sim import Simulator

        _PY = EngineClasses(
            "py", Simulator, Port, Host, SwitchNode, NdpSource, NdpSink, PullPacer
        )
    return _PY


def _compiled_classes() -> EngineClasses | None:
    """The compiled class set, or ``None`` when the module is absent."""
    global _COMPILED
    if _COMPILED is None:
        try:
            from . import engine
        except ImportError:
            _COMPILED = False
        else:
            _COMPILED = EngineClasses(
                "c",
                engine.CKSimulator,
                engine.CKPort,
                engine.CKHost,
                engine.CKSwitchNode,
                engine.CKNdpSource,
                engine.CKNdpSink,
                engine.CKPullPacer,
            )
    return _COMPILED or None


def compiled_available() -> bool:
    """True when the compiled kernel imported successfully."""
    return _compiled_classes() is not None


def engine_classes(kernel: str | None = None) -> EngineClasses:
    """Resolve the engine class set for ``kernel`` (env default).

    ``c`` with no compiled module degrades to the pure-Python classes
    with a one-time :class:`RuntimeWarning` — a build problem must not
    make simulations *fail*, only run unaccelerated. ``auto`` degrades
    silently.
    """
    global _WARNED
    if kernel is None:
        kernel = kernel_default()
    elif kernel not in (*KERNELS, "auto"):
        raise ValueError(f"unknown kernel {kernel!r}; known: py, c, auto")
    if kernel == "py":
        return _python_classes()
    compiled = _compiled_classes()
    if compiled is not None:
        return compiled
    if kernel == "c" and not _WARNED:
        _WARNED = True
        warnings.warn(
            "REPRO_KERNEL=c requested but the compiled kernel module "
            "(repro.net.kernel._ckernel) is not importable; falling back "
            "to the pure-Python engine. Build it with "
            "`python setup.py build_ext --inplace`.",
            RuntimeWarning,
            stacklevel=2,
        )
    return _python_classes()
