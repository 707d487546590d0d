"""Smoke test for the native profiler (``benchmarks/native_profile.py``).

One ci-scale fig07 cell, profiled in a child process so the SIGPROF
handler never touches the test process. It checks the report's
arithmetic, not any timing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
    shares = [100.0 * p["samples"] / result["samples"] for p in phases.values()]
    assert sum(shares) == pytest.approx(100.0)
    for phase in phases.values():
        assert sum(count for _leaf, count in phase["leaves"]) == phase["samples"]
    split = result["c_sim_run"]
    if result["kernel"] == "c":
        assert split["samples"] > 0
        assert split["kernel_self"] + split["c_api"] + split["python"] == pytest.approx(100.0)
        assert "c_sim_run (" in proc.stdout
    else:
        assert split["samples"] == 0
