"""Regenerate the golden fixtures in ``tests/golden/`` (deliberate use only).

Run after an *intended* output change::

    PYTHONPATH=src python tests/regen_golden.py

and commit the diff alongside the change that caused it.
"""

import json
from pathlib import Path

from repro.scenarios import Runner

#: Single source of truth for the fixture set — tests/test_golden.py
#: imports these so the regenerator and the assertions cannot drift.
#: Each fixture name maps to the scenario it runs and the parameter
#: overrides it is run with. The packet scenarios run at ``ci`` scale:
#: they freeze the event engine's rows against the code that produced
#: them, not just one engine path against another of the same commit.
#: ``fig07-expander-default`` adds one default-scale expander cell: at
#: ci scale (8 racks) an expander's second hop always has one option, so
#: only the larger fabric pins the hop count that salts its ECMP choice.
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = {
    "fig04": ("fig04", {}),
    "table1": ("table1", {}),
    "table2": ("table2", {}),
    "fig07": ("fig07", {"scale": "ci"}),
    "fig09": ("fig09", {"scale": "ci"}),
    "fig11_dynamic": ("fig11_dynamic", {"scale": "ci", "fractions": (0.25,)}),
    "fig07-expander-default": (
        "fig07",
        {"scale": "default", "networks": ("expander",), "loads": (0.1,)},
    ),
}
GOLDEN_NAMES = tuple(GOLDEN)


def golden_document(result) -> dict:
    """The exact JSON document a fixture freezes for one ScenarioResult."""
    return {
        "scenario": result.name,
        "params": result.params,
        "rows": result.rows,
        "payload": result.payload,
    }


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    runner = Runner(cache=None)
    for name, (scenario, overrides) in GOLDEN.items():
        doc = golden_document(runner.run(names=[scenario], overrides=overrides)[0])
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
