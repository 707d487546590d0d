"""Golden regression tests: frozen scenario outputs vs the live runner.

``tests/golden/<name>.json`` freezes the exact output (rows + canonical
JSON payload) of a few scenarios: three cheap analysis ones at registry
defaults, the packet-engine scenarios ``fig07``, ``fig09`` and
``fig11_dynamic`` at ``ci`` scale, and one default-scale ``fig07``
expander cell (scenario and overrides per fixture in ``GOLDEN``). The
packet fixtures pin the engine's rows across commits, which no py-vs-c
differential of one commit can do. The runner must
reproduce them bit-for-bit live, through a cold cache write, and through a
warm cache read — any drift in the experiment code, the parameter schema,
the encoder, or the cache layer fails here first.

Regenerate deliberately (after an intended change) with::

    PYTHONPATH=src python tests/regen_golden.py
"""

import json

import pytest
from regen_golden import GOLDEN, GOLDEN_DIR, GOLDEN_NAMES

from repro.scenarios import ResultCache, Runner


def load_golden(name):
    with (GOLDEN_DIR / f"{name}.json").open() as fh:
        return json.load(fh)


def test_every_fixture_on_disk_is_in_the_golden_set():
    """A fixture the regenerator no longer produces must not linger."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(GOLDEN_NAMES)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
class TestGoldenOutputs:
    def test_cache_off_reproduces_fixture(self, name):
        golden = load_golden(name)
        scenario, overrides = GOLDEN[name]
        res = Runner(cache=None).run(names=[scenario], overrides=overrides)[0]
        assert res.cached is False
        assert res.rows == golden["rows"]
        assert res.payload == golden["payload"]

    def test_cache_on_reproduces_fixture_cold_and_warm(self, name, tmp_path):
        golden = load_golden(name)
        runner = Runner(cache=ResultCache(tmp_path))
        scenario, overrides = GOLDEN[name]
        cold = runner.run(names=[scenario], overrides=overrides)[0]
        warm = runner.run(names=[scenario], overrides=overrides)[0]
        assert (cold.cached, warm.cached) == (False, True)
        for res in (cold, warm):
            assert res.rows == golden["rows"]
            assert res.payload == golden["payload"]
        # The cache round-trips the exact parameter binding too.
        assert warm.params == cold.params

    def test_fixture_params_match_current_schema(self, name):
        """A schema-default change must be a conscious fixture regeneration."""
        golden = load_golden(name)
        scenario, overrides = GOLDEN[name]
        res = Runner(cache=None).resolve(names=[scenario], overrides=overrides)[0]
        assert json.loads(json.dumps(res.params)) == golden["params"]
