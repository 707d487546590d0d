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
event heap, the queues and the native tails.** The compiled kernel is a
set of C functions that read and write the *existing* ``__slots__`` of
``Simulator`` / ``Port`` / ``Packet`` / ``Host`` / ``SwitchNode``, the
NDP endpoints, RotorLB's agent, flows and bulk sink, and the flow
records and stats collector through member-descriptor offsets, plus
thin subclasses (:mod:`.engine`) that rebind only the hot methods to
those C implementations. Packets are the same free-listed ``Packet``
objects.

The event heap is the first structure the kernels do not share. A native
sampling profile of the fig07 Clos 25%-load cell under ``c`` (SIGPROF
instruction-pointer samples) put 35% of engine time in unboxing the
oracle's ``(time_ps, seq, callback, args)`` tuples — ``PyLong_AsLongLong``
takes a byte-array round trip for every value >= 2**30 ps — and 11% in
the sift. So ``CKSimulator`` keeps a native ``_ckernel.EventHeap`` in its
``_heap`` slot: a binary heap of ``{int64 time, int64 seq, callback,
args}`` structs that also owns the sequence counter. Keys are unique, so
it dispatches in the oracle's ``(time, seq)`` order bit for bit, and its
``len()`` keeps ``pending`` identical. What stays shared: the
simulator's counter slots, the callbacks and their args tuples. Python
code that schedules onto a compiled simulator (the seams below) goes
through ``sim.at`` / ``sim.after``, never ``heapq``; the oracle's
``Port`` pushes onto its simulator's list heap, so it runs only on a
plain ``Simulator``.

The queues are the other structures the kernels do not share. A compiled
port holds native ``_ckernel.Fifo`` rings in ``_q_control`` / ``_q_data``
/ ``_q_bulk``, a ``_ckernel.Ledger`` of int64 ``(start_ps, size)`` pairs
in ``_committed_control`` and ``_ckernel.PortCounters`` (the six
``PortStats`` counters as int64) in ``stats``; a compiled NDP source's
``_rtx`` and a compiled pacer's ``_tokens`` are Fifos. The engine
classes install them at construction. With the routing tables native,
the largest C-API cost left in the ``clos@0.25`` cell was reaching those
queues through by-name ``deque.append`` / ``popleft`` calls, packing a
tuple per committed control packet and boxing every counter bump. Each
native type offers the Python bodies exactly what they use on the
object it replaces (``append``, ``popleft``, ``len()`` and truth; the
ledger's ``[0]`` and tuples; the counters' names and ``counters()``),
so the Python methods that still run on compiled objects
(``queued_bytes`` and ``busy``, from RotorLB's failure path and from
telemetry) run unchanged on it. Every compiled call checks the exact
native type of each such slot before its first write (see *The
contract* below). Bit-identity reduces to the C code replicating the
Python control flow — which the differential tests pin per executor.

The native tails hold the last per-hop ints. ``_ckernel.init`` derives
``_ckernel.SimTail`` from :class:`~repro.net.sim.Simulator` and
``_ckernel.PortTail`` from :class:`~repro.net.link.Port` with
``PyType_FromSpecWithBases``; ``CKSimulator`` and ``CKPort`` subclass
them. A tail appends int64 fields after the base's slots: the clock
``now``; a port's ``_busy_until``, ``_bytes_control`` / ``_bytes_data`` /
``_bytes_bulk``, ``_kick_pending`` (a flag), ``_ps_per_byte``,
``propagation_ps`` and the three queue capacities. Getset descriptors
named after the slots they shadow serve every Python reader unchanged
(``Port.__init__``, ``queued_bytes``, ``busy``, RotorLB's failure path,
``sim.now``), while the kernel reads and writes the fields in place. In
the native profile of the ``clos@0.25`` cell, allocating, freeing and
converting those ints had become the largest C-API cost: every event
boxed the clock, every packet its line-free time, every queued packet
its byte count twice. The setters take ints only (``TypeError``) that
fit in int64 (the kernel's ``OverflowError``), so a bad value fails
where it is assigned; the shadowed slots stay allocated but unset, as
``_seq`` is on a compiled simulator. A stamped route table reads the
clock from the tail of its compiled simulator, and so does the delivery
count below.

**RotorLB and delivery in C.** Bulk traffic on Opera and RotorNet never
leaves the kernel either. ``CKRotorLBAgent`` runs
:meth:`~repro.net.rotorlb.RotorLBAgent.on_slice` (relay, then local,
then VLB per circuit, under per-host NIC budgets) and ``accept_relay``
in C on the agent's own slots; its per-destination queues stay
``collections.deque``, driven through deque's methods. ``CKBulkSink``
runs ``BulkSink.on_packet``, which ``c_host_receive`` calls directly, as
it calls the compiled NDP endpoints. One C twin of
:meth:`~repro.net.stats.StatsCollector.delivered` serves both sinks on an
exact ``StatsCollector`` and slotted ``FlowRecord``, and the NDP
endpoints read the record's fields by offset. The Python bodies stay the
oracle: the slice step hands the call back, before its first write, to a
disabled agent or one with a failure view or forced relay (the failure
seam below), so failure-armed agents run Python exactly as before.
A bulk drop while a circuit fills runs a Python handler that may
requeue into the very relay queue being drained, so the C step re-reads
every entry after each enqueue, as the Python body does.

The compiled module is built by ``setup.py`` (``pip install -e .`` or
``python setup.py build_ext --inplace``) from the hand-written CPython
extension ``_ckernel.c`` (mypyc/Cython are not part of the pinned
toolchain, and hand-written C manipulates the ``__slots__`` layout
directly); the extension is declared optional, so a missing compiler
degrades to the pure-Python kernel instead of failing the install.

**The contract.** The compiled engine is a closed world. A compiled
method runs only on what :func:`engine_classes` ``("c")`` builds:
exactly the ``CK*`` classes of :mod:`.engine`, on a ``CKSimulator``, with
their native queues; exact ``Packet``, ``FlowRecord``,
``StatsCollector`` and ``BulkFlow`` objects; and a line rate that is a
whole number of ps per byte. ``CKPort`` refuses any other simulator or
rate at construction; any other object (a plain ``Simulator``, a Python
``Port`` on a compiled simulator, a subclass, a test double, a swapped
native slot) makes the compiled call raise one :class:`TypeError`
naming ``REPRO_KERNEL=py``, before its first write, and no Python body
runs in its place. The kernel calls Python only at these seams: the
failure seam below; the bulk-drop, undeliverable and relay callbacks;
``packet.acquire`` when the free list is empty; a routing table's own
call for a value the native interpreter cannot prove in range; and the
duck-typed ``receive_cb`` (else ``receive``) of a delivery target and
``enqueue`` of an egress that is not a compiled port. ``_ckernel.c``'s
header lists them.

**Routing as data.** Every switch forwards from a
:class:`~repro.net.node.RouteTable` and every fault-free rotor port
resolves through a :class:`~repro.net.link.SliceResolver`, tables the
network builders fill once. Calling a table is its pure-Python
interpretation, which the ``py`` kernel runs. ``_ckernel.init``
registers both types, and the compiled dispatch and serializer
interpret an exact instance natively (anything not provably in range
goes to the Python interpretation, before any write), so a fault-free
hop enters no Python frame; a relay goes to the compiled agent's
``accept_relay``.

**The failure seam.** Live failure injection (``repro.core.faults`` +
``OperaSimNetwork.install_failures``) adds *zero* kernel code. Three
deliberate properties of this seam make that possible:

* A route table's ``fallback`` slot is read per packet in both kernels.
  Arming failures sets every Opera ToR's fallback to a *Python*
  fault-aware route closure, which both kernels then call instead of
  interpreting the table, so blackholing on failed hops, dead-rack
  checks and slice-parking live in one closure both kernels execute.
* ``Port.resolver`` is re-read on every transmit in both kernels, so
  the injector can swap a failure-aware uplink resolver in live; any
  resolver that is not a ``SliceResolver`` is called as Python.
* ``RotorLBAgent.on_slice`` runs as Python for an agent the injector
  disabled or gave a failure view or forced relay.

Dynamic state reaches the closures through objects mutated in place
(actual failed sets; the *detected* view swapped at hello epochs),
never by reinstalling routers. Consequently ``py`` and ``c`` runs stay
byte-identical under active failures — CI's ``faults-smoke`` job and
``tests/test_faults_dynamic.py`` pin this — and arming an empty
schedule is bitwise invisible to either kernel.

**The telemetry seam.** Metrics (``repro.obs.metrics``) likewise add
*zero* kernel code. Every counter the snapshot reports is one both
kernels already keep — ``Simulator.events_processed`` in a shared slot
and the scheduler's push count (the oracle's ``_seq``, the native heap's
counter under ``c``), both via :meth:`~repro.net.sim.Simulator.counters`,
each port's six tallies in its ``stats`` (a ``PortStats`` under ``py``,
a native ``PortCounters`` with the same names and ``counters()`` under
``c``), ``StatsCollector``'s flow records, the RotorLB agents' byte and
requeue counts — and ``drain_network``
merely *reads* them into the registry after the run's observables are
computed. Because the compiled kernel counts the same events into the
same names, a ``py`` and a ``c`` run of the same cell produce
byte-identical metric snapshots (CI's ``telemetry-smoke`` job and
``tests/test_obs.py`` pin this), and an armed run's simulated results
stay bitwise identical to an off run: observation happens strictly
after simulation.

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
    RotorLBAgent: type
    BulkSink: type


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
        from ..rotorlb import BulkSink, RotorLBAgent
        from ..sim import Simulator

        _PY = EngineClasses(
            "py",
            Simulator,
            Port,
            Host,
            SwitchNode,
            NdpSource,
            NdpSink,
            PullPacer,
            RotorLBAgent,
            BulkSink,
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
                engine.CKRotorLBAgent,
                engine.CKBulkSink,
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
