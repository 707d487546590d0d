"""Differential tests for the compiled engine kernel (``REPRO_KERNEL``).

The kernel contract is that the compiled fast path is *invisible*: a run
under ``REPRO_KERNEL=c`` must be bit-identical to the pure-Python oracle
(``REPRO_KERNEL=py``) — same timestamps, tie-breaks, FCT rows, hop and
drop counts, ``events_processed`` and ``pending`` — on every executor.
These tests pin that with random event cascades, full packet workloads on
every network kind compared observable-by-observable, scenario Runner
rows (including a distributed smoke run whose spawned workers inherit the
kernel selection), and the seam mechanics themselves (env parsing,
graceful fallback when the compiled module is absent).
"""

import hashlib
import os
import random
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments.fctsim import MS, build_network
from repro.net import kernel as kernel_mod
from repro.net.kernel import compiled_available, engine_classes, kernel_default
from repro.net.packet import HEADER_BYTES, MTU_BYTES, Packet, PacketKind, Priority
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.distributions import DATAMINING

requires_c = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel (_ckernel) not built in this environment",
)

NETWORK_KINDS = ["opera", "expander", "clos", "rotornet", "rotornet-hybrid"]


def packet_workload(kind="opera", seed=11, step_ms=None):
    """A small mixed fig07-style run; returns the full observable state.

    ``step_ms`` drains the run in horizon steps of that length instead of
    one call.
    """
    net = build_network(kind, k=8, n_racks=8, seed=seed)
    arrivals = PoissonArrivals(
        DATAMINING.truncated(500_000),
        load=0.15,
        n_hosts=len(net.hosts),
        hosts_per_rack=4,
        seed=seed,
    )
    threshold = getattr(
        getattr(net, "network", None), "bulk_threshold_bytes", 1 << 62
    )
    for flow in arrivals.flows(duration_ps=int(1.0 * MS)):
        if flow.size_bytes >= threshold:
            net.start_bulk_flow(
                flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
            )
        else:
            net.start_low_latency_flow(
                flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
            )
    horizon = int(5.0 * MS)
    if step_ms is None:
        net.run(until_ps=horizon)
    else:
        step = int(step_ms * MS)
        for until_ps in (*range(step, horizon, step), horizon):
            net.run(until_ps=until_ps)
    ports = {}
    for host in net.hosts:
        ports[f"nic{host.host_id}"] = host.nic
    ports.update({f"down{h}": p for h, p in getattr(net, "host_ports", {}).items()})
    for i, group in enumerate(getattr(net, "uplink_ports", [])):
        ports.update({f"up{i}.{w}": p for w, p in group.items()})
    return {
        "events": net.sim.events_processed,
        "final_now": net.sim.now,
        "pending": net.sim.pending,
        "fcts": [
            (fid, rec.fct_ps, rec.delivered_bytes, rec.retransmissions)
            for fid, rec in sorted(net.stats.flows.items())
        ],
        "port_stats": {
            name: (
                p.stats.sent_packets,
                p.stats.sent_bytes,
                p.stats.trimmed,
                p.stats.dropped_control,
                p.stats.dropped_bulk,
                p.stats.undeliverable,
            )
            for name, p in ports.items()
        },
        "drops": [tor.drops for tor in getattr(net, "tors", [])],
    }


def kernel_workload(monkeypatch, kernel, kind="opera", seed=11):
    """packet_workload with the kernel pinned via the env seam."""
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    return packet_workload(kind=kind, seed=seed)


class TestKernelSeam:
    def test_known_kernels(self):
        assert kernel_mod.KERNELS == ("py", "c")

    def test_env_default_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_default() == "auto"
        monkeypatch.setenv("REPRO_KERNEL", "py")
        assert kernel_default() == "py"
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ValueError, match="turbo"):
            kernel_default()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="pypy"):
            engine_classes("pypy")

    def test_py_classes_are_the_plain_engine(self):
        from repro.net.link import Port
        from repro.net.ndp import NdpSink, NdpSource, PullPacer
        from repro.net.node import Host, SwitchNode
        from repro.net.rotorlb import BulkSink, RotorLBAgent
        from repro.net.sim import Simulator

        classes = engine_classes("py")
        assert classes.name == "py"
        assert classes.Simulator is Simulator
        assert classes.Port is Port
        assert classes.Host is Host
        assert classes.SwitchNode is SwitchNode
        assert classes.NdpSource is NdpSource
        assert classes.NdpSink is NdpSink
        assert classes.PullPacer is PullPacer
        assert classes.RotorLBAgent is RotorLBAgent
        assert classes.BulkSink is BulkSink

    @requires_c
    def test_c_classes_subclass_the_python_engine(self):
        py = engine_classes("py")
        ck = engine_classes("c")
        assert ck.name == "c"
        assert ck._fields == py._fields
        for field in ("Simulator", "Port", "Host", "SwitchNode",
                      "NdpSource", "NdpSink", "PullPacer",
                      "RotorLBAgent", "BulkSink"):
            c_cls, py_cls = getattr(ck, field), getattr(py, field)
            assert c_cls is not py_cls
            assert issubclass(c_cls, py_cls)
            # One data layout, two method implementations.
            assert c_cls.__slots__ == ()

    @requires_c
    def test_auto_prefers_compiled(self):
        assert engine_classes("auto").name == "c"

    def test_missing_compiled_module_degrades_with_warning(self, monkeypatch):
        # REPRO_KERNEL=c without the extension must *run* (pure-Python
        # classes), warning once — a build problem never fails a sim.
        monkeypatch.setattr(kernel_mod, "_COMPILED", False)
        monkeypatch.setattr(kernel_mod, "_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            classes = engine_classes("c")
        assert classes.name == "py"
        # Second resolution is silent (one-time warning) and still works.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engine_classes("c").name == "py"
            assert engine_classes("auto").name == "py"


def loaded_ckernel():
    """The compiled module as imported, skipping where it does not load."""
    try:
        from repro.net.kernel import _ckernel
    except ImportError:
        pytest.skip("compiled kernel (_ckernel) not built for this interpreter")
    return _ckernel


class TestStaleModule:
    """A module built from another ``_ckernel.c`` never runs silently."""

    def test_loaded_module_carries_its_source_hash(self):
        module = loaded_ckernel()
        source = Path(module.__file__).with_name("_ckernel.c")
        assert module.SOURCE_SHA256 == hashlib.sha256(source.read_bytes()).hexdigest()

    def test_source_mismatch_reasons(self, tmp_path):
        source = tmp_path / "_ckernel.c"
        source.write_bytes(b"/* kernel */\n")
        module = types.SimpleNamespace(__file__=str(tmp_path / "_ckernel.so"))
        assert "no source hash" in kernel_mod._source_mismatch(module)
        module.SOURCE_SHA256 = hashlib.sha256(b"/* other */\n").hexdigest()
        assert "another _ckernel.c" in kernel_mod._source_mismatch(module)
        module.SOURCE_SHA256 = hashlib.sha256(source.read_bytes()).hexdigest()
        assert kernel_mod._source_mismatch(module) is None
        source.unlink()  # installed without sources: nothing to compare
        del module.SOURCE_SHA256
        assert kernel_mod._source_mismatch(module) is None

    def test_stale_copy_falls_back_under_auto_and_raises_under_c(self, tmp_path):
        loaded_ckernel()
        shutil.copytree(
            Path(repro.__file__).parent,
            tmp_path / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        with open(tmp_path / "repro" / "net" / "kernel" / "_ckernel.c", "a") as fh:
            fh.write("/* edited after the build */\n")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(tmp_path)
        probe = (
            "import random\n"
            "from repro.core.matchings import random_factorization\n"
            "from repro.net.kernel import compiled_available, compiled_walk, engine_classes\n"
            "print(compiled_available(), engine_classes().name, compiled_walk())\n"
            "print(len(random_factorization(8, random.Random(0))))\n"
        )

        def run(kernel):
            return subprocess.run(
                [sys.executable, "-c", probe],
                env={**env, "REPRO_KERNEL": kernel},
                cwd=tmp_path,
                capture_output=True,
                text=True,
                timeout=120,
            )

        auto = run("auto")
        assert auto.returncode == 0, auto.stderr
        assert auto.stdout.split() == ["False", "py", "None", "8"]
        assert "another _ckernel.c" in auto.stderr
        assert "falling back" in auto.stderr
        assert kernel_mod.REBUILD in auto.stderr

        strict = run("c")
        assert strict.returncode != 0
        assert "RuntimeError" in strict.stderr
        assert "python setup.py build_ext --inplace" in strict.stderr


#: Drain schedules a cascade is run under: horizons and event budgets
#: that cut through the storm and resume it, and one uncut drain.
DRAINS = {
    "chunked": (
        dict(until_ps=100_000_000, max_events=500),
        dict(until_ps=2_000_000_000),
        dict(max_events=3_000),
        dict(),
    ),
    "one-shot": (dict(),),
}


def kernel_cascade(kernel, seed, drain="chunked"):
    """Seeded self-scheduling storm on the selected kernel's Simulator."""
    sim = engine_classes(kernel).Simulator()
    rng = random.Random(seed)
    trace = []

    def fire(tag):
        trace.append((sim.now, tag))
        k = rng.choices((0, 1, 2, 3), weights=(5, 3, 2, 1))[0]
        for i in range(k):
            delay = rng.choice(
                (0, rng.randrange(1, 80_000), rng.randrange(1, 5_000_000_000))
            )
            sim.at(sim.now + delay, fire, f"{tag}.{i}")

    for i in range(40):
        sim.at(rng.randrange(0, 50_000_000), fire, str(i))
    for chunk in DRAINS[drain]:
        sim.run(**chunk)
    return tuple(trace), sim.now, sim.events_processed, sim.pending


@requires_c
class TestKernelCascades:
    @pytest.mark.parametrize("seed", range(10))
    def test_cascades_identical_across_kernel_and_combos(self, seed):
        # Every kernel x drain combo: c == py in full, and where a drain
        # is cut never changes what is dispatched, when, or how often.
        runs = {
            (kernel, drain): kernel_cascade(kernel, seed, drain)
            for kernel in ("py", "c")
            for drain in DRAINS
        }
        for drain in DRAINS:
            assert runs["c", drain] == runs["py", drain], drain
        trace, _now, events, pending = runs["py", "chunked"]
        assert len(trace) == events and pending == 0
        for combo, (other, _now, n, left) in runs.items():
            assert (other, n, left) == (trace, events, pending), combo

    def test_compiled_run_loop_is_exercised(self):
        # The c cascade must actually run through CKSimulator.run — pin
        # that the resolved class is the compiled subclass, not a silent
        # fallback.
        sim_cls = engine_classes("c").Simulator
        assert sim_cls.__name__ == "CKSimulator"
        assert sim_cls.run is not engine_classes("py").Simulator.run


@requires_c
class TestKernelPacketDifferential:
    """Full packet workloads: c == py observable-by-observable."""

    OBSERVABLES = ("events", "final_now", "pending", "fcts", "port_stats", "drops")

    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    def test_every_network_kind_bit_identical(self, kind, monkeypatch):
        py = kernel_workload(monkeypatch, "py", kind=kind)
        ck = kernel_workload(monkeypatch, "c", kind=kind)
        for key in self.OBSERVABLES:
            assert ck[key] == py[key], (kind, key)
        # The runs do real work (the differential is not vacuous).
        assert py["events"] > 1_000 and py["fcts"]

    def test_retransmission_path_is_exercised_and_identical(self, monkeypatch):
        # Higher load on the small fabric forces trims -> NACK -> rtx, so
        # the kernel's NACK/PULL handlers are differentially covered.
        py = kernel_workload(monkeypatch, "py", kind="clos", seed=5)
        ck = kernel_workload(monkeypatch, "c", kind="clos", seed=5)
        assert py["fcts"] == ck["fcts"]
        assert any(rtx for _fid, _fct, _b, rtx in py["fcts"]) or any(
            t for *_s, t in [(s[2],) for s in py["port_stats"].values()]
        )


class TestKernelRunnerDifferential:
    """REPRO_KERNEL=py == c through the scenario Runner."""

    OVERRIDES = {
        "loads": (0.02, 0.05),
        "networks": ("opera", "rotornet"),
        "duration_ms": 0.4,
        "scale": "ci",
    }

    @requires_c
    def test_fig07_rows_identical_across_kernels(self, monkeypatch):
        from repro.scenarios import Runner

        monkeypatch.setenv("REPRO_KERNEL", "py")
        py = Runner(cache=None).execute("fig07", **self.OVERRIDES)
        monkeypatch.setenv("REPRO_KERNEL", "c")
        ck = Runner(cache=None).execute("fig07", **self.OVERRIDES)
        assert py == ck

    @requires_c
    def test_fig09_rows_identical_across_kernels(self, monkeypatch):
        from repro.scenarios import Runner

        overrides = {
            "loads": (0.02,),
            "networks": ("opera", "clos"),
            "duration_ms": 0.4,
            "scale": "ci",
        }
        monkeypatch.setenv("REPRO_KERNEL", "py")
        py = Runner(cache=None).execute("fig09", **overrides)
        monkeypatch.setenv("REPRO_KERNEL", "c")
        ck = Runner(cache=None).execute("fig09", **overrides)
        assert py == ck

    @requires_c
    def test_distributed_smoke_under_c_kernel(self, monkeypatch, tmp_path):
        # Spawned workers inherit REPRO_KERNEL from the environment; a
        # distributed c-kernel run must match the in-process py oracle.
        from repro.scenarios import ResultCache, Runner

        tiny = {
            "loads": (0.02,),
            "networks": ("opera",),
            "duration_ms": 0.4,
            "scale": "ci",
        }
        monkeypatch.setenv("REPRO_KERNEL", "py")
        plain = Runner(cache=None).execute("fig07", **tiny)
        monkeypatch.setenv("REPRO_KERNEL", "c")
        dist = Runner(
            cache=ResultCache(tmp_path), executor="distributed", workers=2
        ).run(names=["fig07"], overrides=tiny)[0]
        assert dist.value == plain


# ---------------------------------------------------------------- native heap

#: Timestamps around CPython's one-digit int boundary (2**30) and far
#: beyond it, where the compiled heap's int64 keys must still order
#: exactly like the oracle's Python ints.
INT64_EDGES = (2**30 - 1, 2**30, 2**31, 2**60, 2**62)


def int64_cascade(kernel, seed):
    """Seeded cascade whose events cluster around each of INT64_EDGES."""
    sim = engine_classes(kernel).Simulator()
    rng = random.Random(seed)
    trace = []

    def fire(tag, depth):
        trace.append((sim.now, tag))
        if not depth:
            return
        for i in range(rng.randrange(0, 4)):
            sim.at(
                sim.now + rng.choice((0, 1, rng.randrange(2, 200_000))),
                fire, f"{tag}.{i}", depth - 1,
            )
        if rng.random() < 0.5:
            sim.after(rng.randrange(0, 1_000), fire, f"{tag}.a", depth - 1)

    for edge in INT64_EDGES:
        for i in range(6):
            sim.at(edge + rng.randrange(-3, 4), fire, f"{edge}.{i}", 3)
    chunks = []
    for edge in INT64_EDGES:
        sim.run(until_ps=edge, max_events=40)
        chunks.append((sim.now, sim.events_processed, sim.pending))
        sim.run(until_ps=edge + 100_000)
        chunks.append((sim.now, sim.events_processed, sim.pending))
    sim.run()
    return (tuple(trace), tuple(chunks), sim.now, sim.events_processed,
            sim.pending, sim.sched_pushes)


@requires_c
class TestKernelInt64Edges:
    @pytest.mark.parametrize("seed", range(3))
    def test_cascade_across_int_digit_boundaries_identical(self, seed):
        py = int64_cascade("py", seed)
        assert len(py[0]) > 100
        assert int64_cascade("c", seed) == py

    @pytest.mark.parametrize("kernel", ["py", "c"])
    def test_overflowing_schedules(self, kernel):
        # The py kernel's ints are unbounded; the compiled heap's keys are
        # int64, and every overflow raises the one hinted OverflowError.
        sim_cls = engine_classes(kernel).Simulator

        def overflowing(call):
            sim = sim_cls()
            sim.at(2**63 - 10, lambda: None)
            sim.run()
            assert sim.now == 2**63 - 10
            if kernel == "py":
                call(sim)
            else:
                with pytest.raises(OverflowError, match="REPRO_KERNEL=py"):
                    call(sim)

        overflowing(lambda sim: sim.at(2**63, lambda: None))
        overflowing(lambda sim: sim.run(until_ps=2**63))
        overflowing(lambda sim: sim.after(100, lambda: None))


@requires_c
class TestNativeHeap:
    def test_compiled_simulator_owns_the_native_heap(self):
        sim_cls = engine_classes("c").Simulator
        assert type(sim_cls()._heap).__name__ == "EventHeap"

    def test_list_heap_counts_pushes_in_seq(self):
        # A compiled simulator runs only on its native heap: one whose
        # _heap was replaced by a list is outside the kernel's contract,
        # so its next at, after or run raises instead of running the
        # Python body onto the list.
        sim = engine_classes("c").Simulator()
        sim._heap = []
        for call in (lambda: sim.at(5, print, "x"), lambda: sim.after(5, print), sim.run):
            with pytest.raises(TypeError, match="_heap .*REPRO_KERNEL=py"):
                call()
        assert sim._heap == [] and sim.now == 0 and sim.events_processed == 0

    def test_finished_network_is_collected(self, monkeypatch):
        # Pending kick/pacer events keep callbacks -> ports -> simulator
        # alive through the native heap; the collector must still see
        # (and break) that cycle once the network is dropped.
        import gc
        import weakref

        from repro.experiments.fctsim import build_network

        monkeypatch.setenv("REPRO_KERNEL", "c")
        net = build_network("clos", k=8, n_racks=8, seed=3)
        assert type(net.sim).__name__ == "CKSimulator"
        for i in range(8):
            net.start_low_latency_flow(i, 31 - i, 200_000, 1_000 * i)
        net.run(until_ps=20_000_000)
        assert net.sim.pending > 0
        record = weakref.ref(next(iter(net.stats.flows.values())))
        heap = net.sim._heap
        assert gc.is_tracked(heap)
        # Queued packets and a pacer's sinks (which point back at the
        # pacer) are reachable only through native Fifos.
        nic = net.hosts[0].nic
        assert all(
            gc.is_tracked(q) for q in (nic._q_control, nic._q_data, nic._q_bulk)
        )
        assert gc.is_tracked(net.pacers[31]._tokens)
        del net, heap, nic
        gc.collect()
        assert record() is None


#: Queue operations for the replay below; appends outnumber pops, so a
#: long sequence grows past the rings' initial capacity of 8 and wraps.
QUEUE_OPS = st.lists(
    st.sampled_from(["append", "append", "append", "popleft", "popleft", "front"]),
    max_size=300,
)


def replay(queue, ops, values):
    """Apply ``ops`` to ``queue``: what each returned or raised, and the size."""
    out = []
    for op, value in zip(ops, values):
        try:
            if op == "append":
                out.append(queue.append(value))
            elif op == "popleft":
                out.append(queue.popleft())
            else:
                out.append(queue[0])
        except IndexError:
            out.append(IndexError)
        out.append((len(queue), bool(queue)))
    return out


@requires_c
class TestNativeQueues:
    """The native types behave as the deque, tuples and PortStats they replace."""

    @given(QUEUE_OPS)
    @settings(max_examples=150, deadline=None)
    def test_fifo_replays_like_a_deque(self, ops):
        from repro.net.kernel._ckernel import Fifo

        ops = [op for op in ops if op != "front"]  # a Fifo has no [i]
        values = [object() for _ in ops]
        assert replay(Fifo(), ops, values) == replay(deque(), ops, values)

    @given(QUEUE_OPS, st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_ledger_replays_like_a_deque_of_tuples(self, ops, seed):
        from repro.net.kernel._ckernel import Ledger

        rng = random.Random(seed)
        pairs = [(rng.getrandbits(63), rng.getrandbits(40)) for _ in ops]
        assert replay(Ledger(), ops, pairs) == replay(deque(), ops, pairs)

    def test_rings_grow_while_wrapped(self):
        from repro.net.kernel._ckernel import Fifo, Ledger

        # Six in, five out, then twenty in: the back wraps past the end of
        # the first ring of 8, which then grows while wrapped (and again
        # at 16); the last pop finds the ring empty.
        ops = ["append"] * 6 + ["popleft"] * 5 + ["append"] * 20 + ["popleft"] * 22
        items = [object() for _ in ops]
        assert replay(Fifo(), ops, items) == replay(deque(), ops, items)
        pairs = [(2**40 + i, i) for i in range(len(ops))]
        ops[-1] = "front"
        assert replay(Ledger(), ops, pairs) == replay(deque(), ops, pairs)

    def test_port_counters_bumped_from_python_match_port_stats(self):
        from repro.net.kernel._ckernel import PortCounters
        from repro.net.link import PortStats

        native, oracle = PortCounters(), PortStats()
        assert native.counters() == oracle.counters()
        for stats in (native, oracle):
            stats.sent_packets += 3
            stats.sent_bytes += 2**40
            stats.trimmed += 1
            stats.dropped_control += 2
            stats.dropped_bulk += 5
            stats.undeliverable += 1
            stats.undeliverable += 1
        assert native.counters() == oracle.counters()
        assert list(native.counters()) == list(oracle.counters())
        assert native.undeliverable == 2

    def test_compiled_endpoints_hold_the_native_types(self, monkeypatch):
        from repro.net.kernel import _ckernel

        monkeypatch.setenv("REPRO_KERNEL", "c")
        net = build_network("clos", k=8, n_racks=8, seed=0)
        record = net.start_low_latency_flow(0, 31, 20_000)
        port = net.hosts[0].nic
        assert type(port).__name__ == "CKPort"
        for name in ("_q_control", "_q_data", "_q_bulk"):
            assert type(getattr(port, name)) is _ckernel.Fifo
        assert type(port._committed_control) is _ckernel.Ledger
        assert type(port.stats) is _ckernel.PortCounters
        source = net.hosts[0].sources[record.flow_id]
        assert type(source).__name__ == "CKNdpSource"
        assert type(source._rtx) is _ckernel.Fifo
        assert type(net.pacers[31]._tokens) is _ckernel.Fifo


#: The int64 fields of a compiled port's native tail, by Python name.
PORT_TAIL_FIELDS = (
    "_busy_until",
    "_bytes_control",
    "_bytes_data",
    "_bytes_bulk",
    "_ps_per_byte",
    "propagation_ps",
    "data_queue_bytes",
    "control_queue_bytes",
    "bulk_queue_bytes",
)

#: A replay step: an enqueue on port 0 or 1 (priority, size up to an MTU)
#: or a run to a horizon that many ps ahead. At 10 Gb/s an MTU takes
#: 1.2 us on the wire, so short runs leave queues behind and long ones
#: drain them.
TAIL_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("enqueue"),
            st.integers(0, 1),
            st.sampled_from(tuple(Priority)),
            st.integers(1, MTU_BYTES),
        ),
        st.tuples(st.just("run"), st.integers(0, 6_000_000)),
    ),
    max_size=80,
)


def tail_state(sim, ports):
    """The clock, and each port's tail fields, busy, queued bytes and stats.

    The raw fields are read before ``queued_bytes``, which settles the
    committed-control ledger.
    """
    return sim.now, [
        (
            port._busy_until,
            port._bytes_control,
            port._bytes_data,
            port._bytes_bulk,
            port._kick_pending,
            port.busy,
            [port.queued_bytes(p) for p in (None, *Priority)],
            port.stats.counters(),
        )
        for port in ports
    ]


def tail_replay(kernel, ops):
    """Replay ``ops`` on one simulator and two ports of ``kernel``.

    Port 0 trims at 10 Gb/s with small queues; port 1 runs drop-tail at
    2.5 Gb/s (3,200 ps per byte), slower than port 0. Returns what each
    step returned and the state after it, the arrivals and the bulk drops.
    """
    classes = engine_classes(kernel)
    sim = classes.Simulator()
    arrivals, dropped = [], []

    class Sink:
        def receive_cb(self, packet):
            arrivals.append((sim.now, packet.seq, packet.size_bytes))

    sink = Sink()
    ports = [
        classes.Port(
            sim, "trim", target=sink,
            data_queue_bytes=3 * MTU_BYTES,
            control_queue_bytes=2 * MTU_BYTES,
            bulk_queue_bytes=4 * MTU_BYTES,
            on_bulk_drop=lambda p: dropped.append(p.seq),
        ),
        classes.Port(
            sim, "drop-tail", resolver=lambda _p, _now: sink,
            rate_bps=2_500_000_000, propagation_ps=0,
            data_queue_bytes=2 * MTU_BYTES, trimming=False,
        ),
    ]
    out = []
    for seq, op in enumerate(ops):
        if op[0] == "enqueue":
            _, i, priority, size = op
            kind = PacketKind.ACK if priority is Priority.CONTROL else PacketKind.DATA
            out.append(ports[i].enqueue(Packet(1, kind, 0, 1, seq, size, priority)))
        else:
            out.append(sim.run(until_ps=sim.now + op[1]))
        out.append(tail_state(sim, ports))
    out.append(sim.run())
    out.append(tail_state(sim, ports))
    return out, arrivals, dropped


@requires_c
class TestNativeTails:
    """The clock and port fields in the native tails behave as the slots."""

    @given(TAIL_OPS)
    @settings(max_examples=200, deadline=None)
    def test_replay_matches_the_oracle(self, ops):
        assert tail_replay("c", ops) == tail_replay("py", ops)

    def test_replay_trims_drops_and_queues(self):
        # A burst on each port then a drain: every branch the replay
        # compares is taken at least once.
        LL, CTL, BULK = Priority.LOW_LATENCY, Priority.CONTROL, Priority.BULK
        ops = (
            [("enqueue", 0, LL, MTU_BYTES)] * 6
            + [("enqueue", 0, CTL, 700)] * 5
            + [("enqueue", 0, BULK, MTU_BYTES)] * 6
            + [("enqueue", 1, LL, MTU_BYTES)] * 4
            + [("run", 2_500_000), ("enqueue", 0, CTL, 64), ("run", 0)]
        )
        ck, py = tail_replay("c", ops), tail_replay("py", ops)
        assert ck == py
        results, arrivals, dropped = py
        _now, (trim, tail) = results[-1]
        stats = trim[-1]
        assert stats["trimmed"] and stats["dropped_control"] and dropped
        # One on the idle line and two queued; the fourth is dropped.
        assert tail[-1]["sent_packets"] == 3 and not tail[-1]["trimmed"]
        assert len(arrivals) == stats["sent_packets"] + 3
        # The control burst was committed back-to-back: some state saw
        # bytes in the ledger that queued_bytes then settled.
        states = [r for r in results if isinstance(r, tuple)]
        assert any(p[1] != p[6][1] for _now, ports in states for p in ports)

    def test_setters_take_int64_ints_only(self):
        ck = engine_classes("c")
        sim = ck.Simulator()
        port = ck.Port(sim, "p", target=object())
        for obj, name in ((sim, "now"), *((port, f) for f in PORT_TAIL_FIELDS)):
            with pytest.raises(TypeError, match=name):
                setattr(obj, name, 1.0)
            with pytest.raises(OverflowError, match="REPRO_KERNEL=py"):
                setattr(obj, name, 2**63)
            with pytest.raises(TypeError, match=name):
                delattr(obj, name)
            for value in (2**63 - 1, -(2**63), 7):
                setattr(obj, name, value)
                assert getattr(obj, name) == value

    def test_bad_port_argument_fails_at_construction(self):
        # Port.__init__ assigns through the descriptors, so a bad value
        # fails there, not at the first hop. The py oracle's ints are
        # unbounded.
        from repro.net.link import Port
        from repro.net.sim import Simulator

        ck = engine_classes("c")
        with pytest.raises(OverflowError, match="REPRO_KERNEL=py"):
            ck.Port(ck.Simulator(), "p", target=object(), propagation_ps=2**63)
        with pytest.raises(TypeError, match="data_queue_bytes"):
            ck.Port(ck.Simulator(), "p", target=object(), data_queue_bytes=12e3)
        port = Port(Simulator(), "p", target=object(), propagation_ps=2**63)
        assert port.propagation_ps == 2**63

    def test_kick_pending_is_a_flag(self):
        ck = engine_classes("c")
        port = ck.Port(ck.Simulator(), "p", target=object())
        assert port._kick_pending is False
        for value, flag in ((True, True), (0, False), (5, True), (False, False)):
            port._kick_pending = value
            assert port._kick_pending is flag
        with pytest.raises(TypeError, match="_kick_pending"):
            port._kick_pending = None

    def test_tails_add_no_slots(self):
        # No __slots__ on the CK classes, no __dict__ or __weakref__ from
        # the tails; the slots they shadow stay allocated but unset.
        from repro.net.kernel import _ckernel
        from repro.net.link import Port
        from repro.net.sim import Simulator

        ck = engine_classes("c")
        for cls, tail, base in (
            (ck.Simulator, _ckernel.SimTail, Simulator),
            (ck.Port, _ckernel.PortTail, Port),
        ):
            assert cls.__dict__["__slots__"] == () and "__slots__" not in tail.__dict__
            assert cls.__basicsize__ == tail.__basicsize__ > base.__basicsize__
            assert cls.__weakrefoffset__ == cls.__dictoffset__ == 0
        sim = ck.Simulator()
        port = ck.Port(sim, "p", target=object())
        with pytest.raises(AttributeError):
            Port._busy_until.__get__(port)
        with pytest.raises(AttributeError):
            Simulator.now.__get__(sim)


def serializer_run(sim_cls, port_cls, rate_bps):
    """The serializer pins of test_link_serializer on any class pair."""
    from test_link_serializer import ArrivalLog, control_packet, make_packet

    sim = sim_cls()
    sink = ArrivalLog(sim)
    port = port_cls(sim, "t", resolver=lambda _p, _n: sink, rate_bps=rate_bps)
    port.enqueue(make_packet(0))  # idle line: delivery pushed inline
    port.enqueue(make_packet(1))  # busy line: queued behind a kick
    for seq in (10, 11, 12):  # control burst: committed by one kick
        port.enqueue(control_packet(seq))
    sim.at(600_000, port.enqueue, control_packet(99))
    observed = [(sim.now, sim.events_processed, sim.pending)]
    sim.run(max_events=2)
    observed.append((sim.now, sim.events_processed, sim.pending))
    sim.run(until_ps=5_000_000)
    observed.append((sim.now, sim.events_processed, sim.pending))
    sim.run()
    observed.append((sim.now, sim.events_processed, sim.pending))
    return sink.arrivals, observed


@requires_c
class TestPythonFallbacksOnCompiledSim:
    """No Python body runs in place of a compiled one.

    The compiled pair matches the oracle at a line rate that is a whole
    number of ps per byte (10 Gb/s). Every other pairing is outside the
    kernel's contract and raises: a compiled port at 3 Gb/s or on a plain
    ``Simulator`` is refused at construction, and a Python ``Port`` on a
    compiled simulator fails at its first serialization, when it pushes
    onto the list heap the compiled simulator does not have.
    """

    @pytest.mark.parametrize("rate_bps", [3_000_000_000, 10_000_000_000])
    def test_serializer_identical_on_every_class_pairing(self, rate_bps):
        py = engine_classes("py")
        ck = engine_classes("c")
        baseline = serializer_run(py.Simulator, py.Port, rate_bps)
        assert len(baseline[0]) == 6
        if rate_bps == 10_000_000_000:
            assert serializer_run(ck.Simulator, ck.Port, rate_bps) == baseline
        else:
            with pytest.raises(TypeError, match="3000000000 b/s.*REPRO_KERNEL=py"):
                serializer_run(ck.Simulator, ck.Port, rate_bps)
        with pytest.raises(TypeError, match="on a Simulator.*REPRO_KERNEL=py"):
            serializer_run(py.Simulator, ck.Port, rate_bps)
        with pytest.raises(TypeError, match="must be (a )?list"):
            serializer_run(ck.Simulator, py.Port, rate_bps)


class Egress:
    """A stand-in egress port: records what it was handed."""

    def __init__(self, name):
        self.name = name

    def enqueue(self, packet):
        return True


def route_outcomes(kernel):
    """Each branch of a RouteTable, routed through one switch of ``kernel``.

    Three racks of two hosts; the switch is rack 1's. The stamped table
    has two 100 ps slices: in slice 1 rack 0 has no options, so a packet
    stamped there is re-stamped, or dropped when the current slice has
    none either. Returns, per packet, where it went and the fields the
    table writes, or the exception the table raised.
    """
    from repro.net.node import CONSUMED, RouteTable
    from repro.net.packet import Packet, PacketKind, Priority

    classes = engine_classes(kernel)
    sim = classes.Simulator()
    hosts = [Egress("h0"), Egress("h1")]
    up = [Egress("u0"), Egress("u1"), Egress("u2")]
    relayed = []
    stamped = RouteTable(
        1, 2, hosts,
        [[(up[0], up[1]), (), (up[2],)], [(), (), (up[0], up[1], up[2])]],
        bumps=[True, False, False],
        relay=relayed.append,
        sim=sim,
        slice_ps=100,
    )
    flat = RouteTable(-1, 2, (), [(up[0],), (up[1], up[2]), ()], bumps=[True, False, True])
    switches = {}
    for name, table in (("stamped", stamped), ("flat", flat)):
        switches[name] = classes.SwitchNode(sim, name)
        switches[name].router = table
    LL, BULK, DATA = Priority.LOW_LATENCY, Priority.BULK, PacketKind.DATA
    cases = [
        # (switch, now, dst_host, salt, hops, stamp, priority)
        ("stamped", 0, 2, 0, 0, None, LL),  # local host 0
        ("stamped", 0, 3, 9, 4, None, BULK),  # local bulk: host 1, no relay
        ("stamped", 0, 0, 5, 0, None, BULK),  # foreign bulk: relay
        ("stamped", 0, 0, 5, 1, None, LL),  # stamp slice 0, salt+hops picks
        ("stamped", 50, 5, 3, 2, None, LL),  # no bump toward rack 2
        ("stamped", 150, 0, 0, 0, None, LL),  # slice 1 empty twice: drop
        ("stamped", 150, 0, 1, 0, 0, LL),  # a kept stamp
        ("stamped", 50, 0, 1, 0, 1, LL),  # stale stamp: re-stamped to 0
        ("stamped", 150, 4, 7, 1, None, LL),  # three-way choice
        ("stamped", 0, 0, 0, 33, None, LL),  # past MAX_HOPS: drop
        ("stamped", 0, 0, 0, 0, 5, LL),  # stamp out of range
        ("flat", 0, 0, 0, 0, None, BULK),  # no relay: bulk is routed
        ("flat", 0, 3, 6, 1, None, LL),  # two options, no bump
        ("flat", 0, 5, 0, 0, None, LL),  # no options: drop
        ("flat", 0, 7, 0, 0, None, LL),  # dst rack out of range
    ]
    outcomes = []
    for name, now, dst, salt, hops, stamp, prio in cases:
        sim.now = now
        packet = Packet(1, DATA, 0, dst, 0, 1500, prio, stamp, salt, hops)
        went = []
        for egress in (*hosts, *up):
            egress.enqueue = lambda p, _e=egress: went.append(_e.name)
        before = (switches[name].drops, len(relayed))
        try:
            switches[name].receive_cb(packet)
        except IndexError as exc:
            outcomes.append(("raised", type(exc).__name__))
            continue
        drops, relays = switches[name].drops - before[0], len(relayed) - before[1]
        outcomes.append((went, drops, relays, packet.hops, packet.slice_stamp))
    # The fallback replaces the table outright (the failure seam).
    stamped.fallback = lambda _switch, _packet: CONSUMED
    packet = Packet(1, DATA, 0, 0, 0, 1500, LL, None, 0, 0)
    switches["stamped"].receive_cb(packet)
    outcomes.append(("fallback", packet.hops, packet.slice_stamp, len(relayed)))
    return outcomes


def resolver_outcomes(kernel):
    """Where a SliceResolver port sends packets started at chosen times.

    Three 10 us slices: slice 0 is never dark, slice 1 is an identity
    assignment (the port idles, undeliverable), slice 2 is dark from 6 us
    in.
    """
    from repro.net.link import SliceResolver
    from repro.net.packet import Packet, PacketKind, Priority

    classes = engine_classes(kernel)
    sim = classes.Simulator()
    arrivals = []

    class Node:
        def __init__(self, name):
            self.receive_cb = lambda p: arrivals.append((name, p.seq))

    resolver = SliceResolver(
        10_000_000, [Node("a"), None, Node("b")], [10_000_000, 10_000_000, 6_000_000]
    )
    dark = []
    port = classes.Port(
        sim, "p", resolver=resolver, on_undeliverable=lambda p: dark.append(p.seq)
    )
    times = [0, 9_900_000, 10_000_000, 15_000_000, 20_000_000, 25_900_000,
             26_000_000, 29_900_000, 30_000_000, 56_000_000]
    for seq, t in enumerate(times):
        packet = Packet(1, PacketKind.DATA, 0, 1, seq, 64, Priority.LOW_LATENCY)
        sim.at(t, port.enqueue, packet)
    sim.run()
    return sorted(arrivals), dark


@requires_c
class TestRoutingTables:
    """The compiled kernel interprets the routing tables as Python does."""

    def test_every_route_table_branch_identical(self):
        py, ck = route_outcomes("py"), route_outcomes("c")
        assert ck == py
        # Not vacuous: the re-stamp, the drop and the relay happened.
        assert py[7] == (["u1"], 0, 0, 1, 0)
        assert py[5] == ([], 1, 0, 0, 1)
        assert py[2] == ([], 0, 1, 1, None)
        assert py[10] == ("raised", "IndexError")
        assert py[-1] == ("fallback", 0, None, 1)

    def test_slice_resolver_identical(self):
        py, ck = resolver_outcomes("py"), resolver_outcomes("c")
        assert ck == py
        assert py == (
            [("a", 0), ("a", 1), ("a", 8), ("b", 4), ("b", 5)],
            [2, 3, 6, 7, 9],
        )

    def test_router_must_be_a_route_table(self):
        switch = engine_classes("c").SwitchNode(engine_classes("c").Simulator(), "s")
        with pytest.raises(TypeError, match="RouteTable"):
            switch.router = lambda _switch, _packet: None


def contract_world():
    """One compiled object of each kind, wired as the network builders wire them.

    A host whose NIC reaches a recording far end, an NDP flow (source, sink
    and pacer) and a bulk sink on it, a switch routing to the NIC, and a
    RotorLB agent from ``test_rotorlb``'s hand-built pair.
    """
    from test_rotorlb import agent_pair

    from repro.net.node import RouteTable
    from repro.net.stats import FlowRecord, StatsCollector

    ck = engine_classes("c")
    sim = ck.Simulator()

    class Far:
        def __init__(self):
            self.got = []

        def receive_cb(self, packet):
            self.got.append(packet.seq)

    far = Far()
    host = ck.Host(sim, 0, 0)
    host.nic = ck.Port(sim, "nic", target=far)
    stats = StatsCollector()
    record = stats.flow_started(FlowRecord(1, 0, 1, 100_000, "ll", 0))
    pacer = ck.PullPacer(sim, host, 10_000_000_000)
    source = ck.NdpSource(sim, host, record)
    sink = ck.NdpSink(sim, host, record, host, pacer, stats, source)
    bulk_record = stats.flow_started(FlowRecord(2, 0, 1, 100_000, "bulk", 0))
    bulk = ck.BulkSink(sim, host, bulk_record, stats)
    switch = ck.SwitchNode(sim, "s")
    switch.router = RouteTable(0, 2, (host.nic, host.nic), [()], bumps=[False])
    _agent_sim, (agent, _peer), _recorders = agent_pair("c")
    return types.SimpleNamespace(
        ck=ck, sim=sim, far=far, host=host, source=source, sink=sink,
        pacer=pacer, bulk=bulk, switch=switch, agent=agent,
    )


class Endpoint:
    """A test double on a host's endpoint table: records what it got."""

    def __init__(self):
        self.got = []

    def on_packet(self, packet):
        self.got.append(packet)


def swapped_heap(w, call):
    w.sim._heap = []
    call(w.sim)


def double_endpoint(w):
    w.host.sinks[1] = Endpoint()
    w.host.receive(Packet(1, PacketKind.DATA, 1, 0, 0, MTU_BYTES, Priority.LOW_LATENCY))


def subclassed_table(w):
    from repro.net.node import RouteTable

    class Table(RouteTable):
        __slots__ = ()

    w.ck.SwitchNode(w.sim, "t").router = Table(0, 2, (), [()], bumps=[False])


def foreign_sender(w):
    from repro.net.rotorlb import BulkFlow
    from repro.net.stats import FlowRecord

    class Flow(BulkFlow):
        __slots__ = ()

    w.agent.submit(Flow(FlowRecord(3, 0, 5, 100_000, "bulk", 0)))
    w.agent.on_slice(0)


def swapped_slot(obj, name, value, call):
    setattr(obj, name, value)
    call()


#: One call per compiled entry point on one object outside the kernel's
#: contract: a non-Packet, a test double, a Python twin's method, a
#: subclass or a swapped native slot. Each must raise the contract
#: TypeError instead of running the Python body.
OUTSIDE_CALLS = {
    "at": lambda w: swapped_heap(w, lambda sim: sim.at(5, print)),
    "after": lambda w: swapped_heap(w, lambda sim: sim.after(5, print)),
    "run": lambda w: swapped_heap(w, lambda sim: sim.run()),
    "enqueue": lambda w: w.host.nic.enqueue(object()),
    "_kick": lambda w: swapped_slot(w.host.nic, "_q_data", deque(), w.host.nic._kick),
    "receive": double_endpoint,
    "dispatch": lambda w: w.switch.receive_cb(object()),
    "make_dispatch": subclassed_table,
    "src_on_packet": lambda w: w.source.on_packet(object()),
    "sink_on_packet": lambda w: w.sink.on_packet(object()),
    "emit_pull": lambda w: swapped_slot(w.sink, "_send", w.host.send, w.sink.emit_pull),
    "pacer_tick": lambda w: swapped_slot(w.pacer, "_tokens", deque([w.sink]), w.pacer._tick),
    "on_slice": foreign_sender,
    "accept_relay": lambda w: w.agent.accept_relay(object()),
    "bulk_sink_on_packet": lambda w: w.bulk.on_packet(object()),
    "port_on_a_simulator": lambda w: w.ck.Port(
        engine_classes("py").Simulator(), "p", target=w.far
    ),
}

#: Calls every engine entry point of a freshly imported _ckernel, before
#: repro.net.kernel.engine has run init(), and prints what each raised.
PRE_INIT_PROBE = """
from repro.net.kernel import _ckernel

junk = object()
calls = {
    "at": (junk, 1, print), "after": (junk, 1, print), "run": (junk,),
    "enqueue": (junk, junk), "_kick": (junk,), "receive": (junk, junk),
    "src_on_packet": (junk, junk), "sink_on_packet": (junk, junk),
    "sink_emit_pull": (junk,), "pacer_tick": (junk,),
    "agent_on_slice": (junk, 0), "agent_accept_relay": (junk, junk),
    "bulk_sink_on_packet": (junk, junk), "make_dispatch": (junk, junk),
}
for name, args in calls.items():
    try:
        getattr(_ckernel, name)(*args)
    except Exception as exc:
        print(name, type(exc).__name__, flush=True)
    else:
        print(name, "returned", flush=True)
"""


@requires_c
class TestKernelContract:
    """Compiled methods run only on what ``engine_classes("c")`` builds."""

    @pytest.mark.parametrize("entry", sorted(OUTSIDE_CALLS))
    def test_outside_objects_raise_the_contract_error(self, entry):
        w = contract_world()
        with pytest.raises(TypeError, match="outside the compiled kernel's contract.*REPRO_KERNEL=py"):
            OUTSIDE_CALLS[entry](w)
        # Nothing ran first: no event was scheduled or delivered, no
        # endpoint or double saw a packet, no counter moved.
        assert w.sim.pending == 0 and w.sim.events_processed == 0
        assert w.far.got == [] and w.host.dropped == 0
        assert w.host.nic.stats.sent_packets == 0 and w.sink._pull_seq == 0
        assert all(not getattr(e, "got", ()) for e in w.host.sinks.values())
        assert w.agent._host_budget == {}

    def test_the_compiled_world_runs(self):
        # Inside the contract the same world runs, so each call above
        # fails on the one object it swaps in, not on the wiring.
        w = contract_world()
        w.source.start()
        w.sim.run()
        w.host.receive(Packet(1, PacketKind.DATA, 1, 0, 0, MTU_BYTES, Priority.LOW_LATENCY))
        w.sim.run()
        assert w.far.got and w.host.nic.stats.sent_packets > 12
        assert w.sink.record.delivered_bytes == MTU_BYTES - HEADER_BYTES
        assert w.sink._pull_seq == 1
        w.agent.on_slice(0)
        assert w.agent._host_budget  # the slice step ran

    @pytest.mark.parametrize("slot", ["_deliver", "trimming"])
    def test_unset_port_slot_raises(self, slot):
        # A slot enqueue reads, deleted: AttributeError, as the oracle
        # raises, not a NULL dereference. The first packet binds the
        # delivery on the idle line, the second waits behind it and the
        # third overflows the one-MTU data queue, so it is trimmed.
        w = contract_world()
        port = w.ck.Port(w.sim, "p", target=w.far, data_queue_bytes=MTU_BYTES)
        delattr(port, slot)
        with pytest.raises(AttributeError, match=slot):
            for seq in range(3):
                port.enqueue(
                    Packet(1, PacketKind.DATA, 0, 1, seq, MTU_BYTES, Priority.LOW_LATENCY)
                )

    def test_entry_points_raise_before_init(self):
        # A process can hold _ckernel before repro.net.kernel.engine runs
        # init() (the checked loader imports it alone): every entry point
        # must raise there, not crash the interpreter.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
        probe = subprocess.run(
            [sys.executable, "-c", PRE_INIT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert probe.returncode == 0, (probe.returncode, probe.stderr)
        raised = dict(line.split() for line in probe.stdout.splitlines())
        assert len(raised) == 14
        assert set(raised.values()) == {"RuntimeError"}, raised
