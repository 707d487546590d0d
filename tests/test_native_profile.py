"""Tests for the native profiler (``benchmarks/native_profile.py``).

A hand-built result pins the interval line the report prints, and
hand-built stacks pin how samples inside ``c_sim_run`` are split and
charged to kernel frames. The smoke test profiles one ci-scale fig07
cell in a child process, so the SIGPROF handler never touches the test
process; it checks the report's arithmetic, not any timing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from native_profile import (  # noqa: E402
    c_api_by_caller,
    interval_line,
    split_kernel_run,
)

KERNEL, PYTHON = "_ckernel.cpython-311-x86_64-linux-gnu.so", "libpython3.11.so.1.0"
#: Every sample's outer frames: the interpreter calling the kernel's run.
RUN = [(KERNEL, "c_sim_run"), (PYTHON, "cfunction_call"), (PYTHON, "main")]


def test_interval_line_reports_effective_and_nominal_interval():
    # 1,328 samples over 4.8 s of CPU: one per ~3.6 ms, though 500 us
    # was asked for (what a timer that fires at the kernel's tick gives).
    result = {
        "samples": 1328,
        "dropped": 0,
        "cpu_s": 4.8,
        "clock": "CLOCK_MONOTONIC",
        "interval_us": 500,
        "effective_interval_us": round(1e6 * 4.8 / 1328),
    }
    assert interval_line(result) == (
        "1328 samples over 4.80 s of CPU: one per 3614 us "
        "(nominal 500 us, CLOCK_MONOTONIC)"
    )
    result.update(dropped=3)
    assert interval_line(result).endswith(
        "(nominal 500 us, CLOCK_MONOTONIC), 3 dropped"
    )
    result.update(samples=0, dropped=0, effective_interval_us=None)
    assert interval_line(result) == (
        "0 samples over 4.80 s of CPU: no samples (nominal 500 us, CLOCK_MONOTONIC)"
    )


def test_c_api_samples_are_charged_to_the_nearest_kernel_frame():
    stacks = [
        # C-API under a kernel function the run called through Python's
        # call machinery: charged to that function, not to c_sim_run.
        [(PYTHON, "_PyObject_Malloc"), (PYTHON, "PyLong_FromLongLong"),
         (KERNEL, "c_transmit"), (KERNEL, "c_port_kick"),
         (PYTHON, "cfunction_vectorcall_FASTCALL"), (PYTHON, "_PyObject_Call"),
         *RUN],
        [(PYTHON, "PyLong_FromLongLong"), (KERNEL, "c_transmit"),
         (KERNEL, "c_port_kick"), *RUN],
        # The call machinery itself, directly under the run.
        [(PYTHON, "method_vectorcall"), *RUN],
        [(PYTHON, "_PyObject_Malloc"), (PYTHON, "PyLong_FromLongLong"),
         (KERNEL, "c_transmit"), *RUN],
        # Kernel self: not charged.
        [(KERNEL, "eh_pop"), *RUN],
        # Python re-entry, even with a kernel frame above the leaf: not
        # charged.
        [(PYTHON, "PyLong_FromLongLong"), (KERNEL, "c_port_enqueue_impl"),
         (PYTHON, "_PyEval_EvalFrameDefault"), *RUN],
        # Outside c_sim_run: neither split nor charged.
        [(PYTHON, "_PyObject_Malloc"), (KERNEL, "c_port_enqueue_impl"),
         (PYTHON, "main")],
    ]
    assert split_kernel_run(stacks) == {"c_api": 4, "kernel_self": 1, "python": 1}
    assert c_api_by_caller(stacks) == {
        ("_PyObject_Malloc", "c_transmit"): 2,
        ("PyLong_FromLongLong", "c_transmit"): 1,
        ("method_vectorcall", "c_sim_run"): 1,
    }


@pytest.mark.skipif(
    not (shutil.which("cc") and shutil.which("nm") and os.path.exists("/proc/self/maps")),
    reason="the native profiler needs Linux, cc and nm",
)
def test_one_ci_cell_shares_sum_to_100(tmp_path):
    out = tmp_path / "profile.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks" / "native_profile.py"),
            "--scale", "ci", "--seed", "0", "--cells", "opera@0.25",
            "--json", str(out),
        ],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    phases = result["phases"]
    assert result["samples"] > 0 and phases["run"]["samples"] > 0
    assert result["cpu_s"] > 0 and result["effective_interval_us"] > 0
    # The cell is CPU-bound: its samples come at the nominal rate, not at
    # the kernel's scheduler tick (4 ms at 250 Hz).
    assert result["clock"] == "CLOCK_MONOTONIC"
    assert result["effective_interval_us"] <= 2 * result["interval_us"]
    shares = [100.0 * p["samples"] / result["samples"] for p in phases.values()]
    assert sum(shares) == pytest.approx(100.0)
    for phase in phases.values():
        assert sum(count for _leaf, count in phase["leaves"]) == phase["samples"]
    split = result["c_sim_run"]
    pairs = result["c_api_by_caller"]
    if result["kernel"] == "c":
        assert split["samples"] > 0
        assert split["kernel_self"] + split["c_api"] + split["python"] == pytest.approx(100.0)
        assert "c_sim_run (" in proc.stdout
        # Every C-API sample is charged to exactly one (leaf, frame) pair.
        c_api = round(split["c_api"] * split["samples"] / 100.0)
        assert sum(count for _pair, count in pairs) == c_api
        assert all(leaf and frame for (leaf, frame), _count in pairs)
        assert "by nearest kernel frame" in proc.stdout
    else:
        assert split["samples"] == 0 and pairs == []
