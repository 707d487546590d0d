"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.scenarios import registry as registry_mod


@pytest.fixture
def scratch_registry():
    """Allow tests to register throwaway scenarios without leaking them.

    The builtins load *before* the snapshot: the registry imports an
    experiment module on first use, so a snapshot taken earlier would let
    the teardown erase builtins that a test in the window registered, and
    their cached modules would never register them again.
    """
    registry_mod.load_builtin()
    before = dict(registry_mod._REGISTRY)
    yield registry_mod._REGISTRY
    registry_mod._REGISTRY.clear()
    registry_mod._REGISTRY.update(before)
