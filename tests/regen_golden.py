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
#: Each fixture name maps to the parameter overrides it is run with. The
#: packet scenarios run at ``ci`` scale: they freeze the event engine's
#: rows against the code that produced them, not just one engine path
#: against another of the same commit.
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_OVERRIDES = {
    "fig04": {},
    "table1": {},
    "table2": {},
    "fig07": {"scale": "ci"},
    "fig09": {"scale": "ci"},
    "fig11_dynamic": {"scale": "ci", "fractions": (0.25,)},
}
GOLDEN_NAMES = tuple(GOLDEN_OVERRIDES)


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
    for name, overrides in GOLDEN_OVERRIDES.items():
        doc = golden_document(runner.run(names=[name], overrides=overrides)[0])
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
