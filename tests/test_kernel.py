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

import pytest

import repro
from repro.experiments.fctsim import MS, build_network
from repro.net import kernel as kernel_mod
from repro.net.kernel import compiled_available, engine_classes, kernel_default
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

    @requires_c
    def test_c_classes_subclass_the_python_engine(self):
        py = engine_classes("py")
        ck = engine_classes("c")
        assert ck.name == "c"
        for field in ("Simulator", "Port", "Host", "SwitchNode",
                      "NdpSource", "NdpSink", "PullPacer"):
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
        del net, heap
        gc.collect()
        assert record() is None


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
    """Python paths that schedule must work on a compiled simulator.

    The C fast path declines a port whose line rate does not divide 8
    bits/ps (exact big-int serialization) and a simulator without a
    native heap; those calls run the pure-Python bodies, which must
    schedule onto whatever heap the simulator owns.
    """

    @pytest.mark.parametrize("rate_bps", [3_000_000_000, 10_000_000_000])
    def test_serializer_identical_on_every_class_pairing(self, rate_bps):
        py = engine_classes("py")
        ck = engine_classes("c")
        baseline = serializer_run(py.Simulator, py.Port, rate_bps)
        assert len(baseline[0]) == 6
        for sim_cls, port_cls in (
            (ck.Simulator, ck.Port),  # compiled port declines (3 Gb/s)
            (ck.Simulator, py.Port),  # Python port on the native heap
            (py.Simulator, ck.Port),  # compiled port on a plain Simulator
        ):
            run = serializer_run(sim_cls, port_cls, rate_bps)
            assert run == baseline, (sim_cls.__name__, port_cls.__name__)
