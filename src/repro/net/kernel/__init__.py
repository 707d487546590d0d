"""Compiled-kernel seam: pure-Python oracles vs compiled fast paths.

The compiled module ``_ckernel`` holds two compiled paths, each with a
pure-Python oracle it must match bit for bit:

* **the engine** — hot methods of the packet engine, selected with
  ``REPRO_KERNEL`` through :func:`engine_classes` (most of this docstring);
* **the factorization walk** — ``random_perfect_matching``, the exact twin
  of :func:`repro.core.matchings._random_perfect_matching`, looked up with
  :func:`compiled_walk` (see *The factorization walk* below).

One checked loader serves both, so neither can run a stale build (see
*The stale-source check* below).

Profiles of the pure-Python engine put the per-event cost in the *bodies*
of the hot callbacks — ``Port.enqueue``, the serializer commit, endpoint
dispatch — not in event structure. This package provides a compiled
kernel for exactly that inner loop, selected with ``REPRO_KERNEL``:

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
``Packet`` objects.

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
entry points fall back to — goes through ``sim.at`` / ``sim.after``,
never ``heapq``; a simulator without a native heap (a plain
``Simulator``) keeps the oracle's list, and every C path that would
schedule onto it delegates to the pure-Python implementation.
Bit-identity reduces to the C code replicating the Python control flow —
which the differential tests pin per executor.

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

**The factorization walk.** ``random_factorization`` draws each Opera and
RotorNet topology as random perfect matchings, and nearly all of its time
is the random-walk repair in ``_random_perfect_matching``. The compiled
walk returns the same list, or ``None`` on the same failures, and leaves
the generator in the same state, because it follows the Python walk
literally:

* it draws only through the generator's own bound ``random`` and
  ``getrandbits``: first ``n`` ``random()`` calls for the sort keys in
  vertex order, then every ``choice`` as CPython's
  ``_randbelow_with_getrandbits`` (``k = m.bit_length()``, redraw
  ``getrandbits(k)`` until the draw is below ``m``) — no native Mersenne
  Twister, no ``getstate()``;
* it orders vertices by ``(degree, key)`` with a stable sort;
* it reads each vertex's neighbours once per call, in the set's own
  iteration order (what ``tuple(s)`` and a comprehension see);
* it takes a list of sets of ints in ``[0, n)`` and raises on anything
  else, never reading out of bounds, in O(sum of degrees) memory.

``random_factorization`` runs it only for an exact :class:`random.Random`
(a subclass may draw differently) and otherwise runs the Python walk,
which stays the oracle (``tests/test_compiled_walk.py``) and the path
wherever no compiler exists. ``REPRO_KERNEL`` picks engine classes, not
the walk; it only decides whether a stale module raises.

**The stale-source check.** The module is committed prebuilt, so a
forgotten rebuild after editing ``_ckernel.c`` would otherwise run old
engine C, or miss the walk, silently. ``setup.py`` bakes the sha256 of
``_ckernel.c`` into the module as ``SOURCE_SHA256``. When a
``_ckernel.c`` sits beside the loaded module and its hash differs, or the
module carries no hash, the module is stale: ``REPRO_KERNEL=c`` raises a
:class:`RuntimeError` naming ``python setup.py build_ext --inplace``, and
``auto`` (or ``py``) falls back to the Python engine and walk with the
one-time :class:`RuntimeWarning`. A module with no source beside it (an
install without sources) is trusted; a missing module behaves as before.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from typing import NamedTuple

__all__ = [
    "KERNELS",
    "EngineClasses",
    "engine_classes",
    "kernel_default",
    "compiled_available",
    "compiled_walk",
]

#: Recognised kernel names (``auto`` additionally accepted in the env var).
KERNELS = ("py", "c")

#: How to rebuild the compiled module in place, named in every refusal.
REBUILD = "python setup.py build_ext --inplace"


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
#: The checked ``_ckernel`` module: ``None`` = not probed yet, ``False`` =
#: absent or stale.
_MODULE: object = None
#: Why the imported module was refused as stale, else ``None``.
_STALE: str | None = None
_WARNED = False


def kernel_default() -> str:
    """Process-wide kernel selection: ``REPRO_KERNEL=py|c|auto``."""
    raw = os.environ.get("REPRO_KERNEL", "") or "auto"
    if raw not in (*KERNELS, "auto"):
        raise ValueError(
            f"unknown kernel {raw!r} in REPRO_KERNEL; known: py, c, auto"
        )
    return raw


def _warn_once(message: str) -> None:
    global _WARNED
    if not _WARNED:
        _WARNED = True
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def _source_mismatch(module: object) -> str | None:
    """Why ``module`` was not built from the ``_ckernel.c`` beside it, if so.

    ``None`` when the hashes agree, or when no source sits beside the
    module (an install without sources has nothing to compare against).
    """
    source = os.path.join(os.path.dirname(module.__file__), "_ckernel.c")
    if not os.path.isfile(source):
        return None
    baked = getattr(module, "SOURCE_SHA256", None)
    if baked is None:
        return "carries no source hash"
    with open(source, "rb") as fh:
        actual = hashlib.sha256(fh.read()).hexdigest()
    if baked != actual:
        return f"was built from another _ckernel.c ({baked[:12]}, not {actual[:12]})"
    return None


def _checked_module(kernel: str | None = None):
    """The compiled ``_ckernel`` module, or ``None`` when absent or stale.

    A stale module (see :func:`_source_mismatch`) raises under kernel
    ``c`` (default: ``REPRO_KERNEL``) and otherwise falls back with the
    one-time warning: stale engine C or a stale walk never runs silently.
    """
    global _MODULE, _STALE
    if _MODULE is None:
        try:
            from . import _ckernel
        except ImportError:
            _MODULE = False
        else:
            _STALE = _source_mismatch(_ckernel)
            _MODULE = False if _STALE else _ckernel
    if _STALE is not None:
        detail = f"the compiled kernel module (repro.net.kernel._ckernel) {_STALE}"
        if (kernel or kernel_default()) == "c":
            raise RuntimeError(
                f"REPRO_KERNEL=c but {detail}; rebuild it with `{REBUILD}`."
            )
        _warn_once(
            f"{detail}; falling back to the pure-Python engine and "
            f"factorization walk. Rebuild it with `{REBUILD}`."
        )
    return _MODULE or None


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


def _compiled_classes(kernel: str | None = None) -> EngineClasses | None:
    """The compiled class set, or ``None`` when the module is unusable."""
    global _COMPILED
    module = _checked_module(kernel)
    if _COMPILED is None:
        if module is None:
            _COMPILED = False
        else:
            from . import engine

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
    """True when the compiled kernel imported and matches its source."""
    return _compiled_classes() is not None


def compiled_walk():
    """The compiled factorization walk, or ``None`` when it cannot run.

    ``repro.core.matchings.random_factorization`` calls this; like the
    engine it goes through the checked loader, so a stale module falls
    back (or raises under ``REPRO_KERNEL=c``). Which engine ``REPRO_KERNEL``
    picks plays no other part: the walk's oracle is the Python walk.
    """
    module = _checked_module()
    return getattr(module, "random_perfect_matching", None)


def engine_classes(kernel: str | None = None) -> EngineClasses:
    """Resolve the engine class set for ``kernel`` (env default).

    ``c`` with no compiled module degrades to the pure-Python classes
    with a one-time :class:`RuntimeWarning` — a build problem must not
    make simulations *fail*, only run unaccelerated. ``auto`` degrades
    silently. A *stale* module is different: ``c`` refuses it with a
    :class:`RuntimeError`, ``auto`` falls back with the one-time warning.
    """
    if kernel is None:
        kernel = kernel_default()
    elif kernel not in (*KERNELS, "auto"):
        raise ValueError(f"unknown kernel {kernel!r}; known: py, c, auto")
    if kernel == "py":
        return _python_classes()
    compiled = _compiled_classes(kernel)
    if compiled is not None:
        return compiled
    if kernel == "c":
        _warn_once(
            "REPRO_KERNEL=c requested but the compiled kernel module "
            "(repro.net.kernel._ckernel) is not importable; falling back "
            f"to the pure-Python engine. Build it with `{REBUILD}`."
        )
    return _python_classes()
