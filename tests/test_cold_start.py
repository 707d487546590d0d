"""Cold start: a process imports only the experiment module it runs.

``repro.experiments.SCENARIO_MODULES`` maps every bundled scenario name
and alias to the module that registers it, so a fig07 sweep's parent,
its pool children and its distributed workers import ``fig07_datamining``
and its ``fctsim`` harness, never the other experiment modules or numpy.
The test process has imported everything already, so each import-set pin
runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import SCENARIO_MODULES
from repro.scenarios import all_scenarios, get, to_portable

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")

#: What a fig07 unit loads: the scenario's module and its FCT harness.
FIG07_MODULES = ["repro.experiments.fctsim", "repro.experiments.fig07_datamining"]

#: fig07 overrides for one cheap ci-scale cell per network, so the pins
#: cover every network's import path.
ONE_LOAD = {"scale": "ci", "loads": (0.01,)}

#: Every bundled scenario name (aliases excluded).
BUILTIN = sorted(
    sc.name for sc in all_scenarios() if sc.module.startswith("repro.experiments.")
)

#: Appended to every probe: the import set it left behind, as JSON.
_REPORT = """
import json as _json, sys as _sys
from repro.scenarios import registry as _registry
print(_json.dumps({
    "experiments": sorted(
        m for m in _sys.modules if m.startswith("repro.experiments.")
    ),
    "numpy": "numpy" in _sys.modules,
    "registered": sorted(_registry._REGISTRY),
    "extra": globals().get("extra"),
}))
"""


def _fresh(body: str, *args: str) -> dict:
    """Run ``body`` in a fresh interpreter; report what it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body) + _REPORT, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportSet:
    def test_fig07_cells_import_only_fig07(self):
        got = _fresh(
            f"""
            from repro.scenarios import registry
            from repro.scenarios.runner import _execute_cell

            sc = registry.get("fig07")
            for cell in sc.shard_plan(**sc.bind({ONE_LOAD!r})):
                doc, _value = _execute_cell("fig07", cell.key, cell.params)
                assert "error" not in doc, doc["error"]
            """
        )
        assert got["experiments"] == FIG07_MODULES
        assert not got["numpy"]
        assert got["registered"] == ["fig07"]

    def test_worker_lease_imports_only_fig07(self):
        sc = get("fig07")
        leases = [
            {
                "type": "lease",
                "uid": uid,
                "kind": "cell",
                "name": "fig07",
                "cell_key": cell.key,
                "params": to_portable(cell.params),
            }
            for uid, cell in enumerate(sc.shard_plan(**sc.bind(ONE_LOAD)))
        ]
        got = _fresh(
            """
            import json, sys
            from repro.distrib.worker import _execute_lease

            for msg in json.loads(sys.argv[1]):
                doc = _execute_lease(msg)
                assert "error" not in doc, doc["error"]
            """,
            json.dumps(leases),
        )
        assert got["experiments"] == FIG07_MODULES
        assert not got["numpy"]

    def test_select_alias_imports_only_its_module(self):
        got = _fresh(
            """
            from repro.scenarios import registry

            picked = registry.select(["fig07_datamining"])
            assert [sc.name for sc in picked] == ["fig07"], picked
            """
        )
        assert got["experiments"] == FIG07_MODULES
        assert not got["numpy"]

    @pytest.mark.parametrize(
        "call",
        [
            'registry.select(["fig0*"])',
            'registry.select(tags=["packet"])',
            "registry.all_scenarios()",
            'main(["list"])',
        ],
    )
    def test_whole_registry_views_load_every_module(self, call):
        got = _fresh(
            f"""
            from repro.cli import main
            from repro.scenarios import registry

            {call}
            """
        )
        assert got["registered"] == BUILTIN


def test_table_matches_registrations():
    """Each table module registers exactly the names and aliases mapped to
    it, and no module outside the table registers any."""
    got = _fresh(
        """
        import importlib, pkgutil
        import repro.experiments as pkg
        from repro.scenarios import registry

        extra = {}
        for info in sorted(pkgutil.iter_modules(pkg.__path__), key=lambda i: i.name):
            before = set(registry._REGISTRY)
            importlib.import_module(f"repro.experiments.{info.name}")
            for name in sorted(set(registry._REGISTRY) - before):
                for token in (name, *registry._REGISTRY[name].aliases):
                    extra[token] = info.name
        """
    )
    assert got["extra"] == SCENARIO_MODULES
    assert len(BUILTIN) == 20
