"""Declarative scenario registry.

Every paper artifact (and any future workload) is described by a
:class:`Scenario`: a name, a parameter schema derived from the entry
point's signature, a set of tags (``analysis`` / ``fluid`` / ``packet``),
and a cost hint. Experiment modules register themselves with the
:func:`scenario` decorator::

    from ..scenarios import scenario

    @scenario("fig04", tags=("analysis", "graph"), cost="medium",
              title="path-length CDFs (Figure 4)")
    def run(k: int = 12, n_racks: int | None = None, seed: int = 0): ...

Registration is import-time and side-effect free beyond the registry
dict. :data:`repro.experiments.SCENARIO_MODULES` maps each bundled name
and alias to the module that registers it, so :func:`get` and an
exact-name :func:`select` import only the modules they name: a pool child
or distributed worker running fig07 loads ``fig07_datamining`` alone.
Globs, tags, :func:`all_scenarios`, :func:`all_tags` and ``repro list``
import every bundled module (:func:`load_builtin`).
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

# The name -> module table only: importing the package imports no experiment.
from ..experiments import SCENARIO_MODULES

__all__ = [
    "Param",
    "Scenario",
    "ScenarioError",
    "scenario",
    "register",
    "get",
    "all_scenarios",
    "all_tags",
    "select",
    "load_builtin",
]

#: Recognised cost hints, cheapest first (used for ordering ``list`` output
#: and for scheduling expensive scenarios first in the worker pool).
COST_HINTS = ("cheap", "medium", "heavy")

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


class ScenarioError(ValueError):
    """Unknown scenario, unknown parameter, or malformed override."""


@dataclass(frozen=True)
class Param:
    """One entry of a scenario's parameter schema."""

    name: str
    default: Any

    def coerce(self, text: str) -> Any:
        """Parse a ``--set name=value`` string to the default's type.

        Tuples parse as comma-separated element lists typed after the
        default tuple's first element; booleans accept ``true/false`` and
        friends; ``None`` defaults try int, then float, then keep the
        string (the literal ``none`` stays ``None``).
        """
        default = self.default
        try:
            if isinstance(default, bool):
                low = text.strip().lower()
                if low in _TRUE:
                    return True
                if low in _FALSE:
                    return False
                raise ValueError(f"not a boolean: {text!r}")
            if isinstance(default, int):
                return int(text)
            if isinstance(default, float):
                return float(text)
            if isinstance(default, (tuple, list)):
                elem = default[0] if len(default) else None
                parts = [p for p in (s.strip() for s in text.split(",")) if p]
                return tuple(_coerce_free(p, elem) for p in parts)
            if default is None:
                return _coerce_free(text, None)
            return text
        except ValueError as exc:
            raise ScenarioError(
                f"cannot parse {text!r} for parameter {self.name!r} "
                f"(default {default!r}): {exc}"
            ) from None


def _coerce_free(text: str, like: Any) -> Any:
    """Coerce ``text`` after an element exemplar, or by best effort."""
    if isinstance(like, bool):
        return Param("<elem>", like).coerce(text)
    if isinstance(like, int):
        return int(text)
    if isinstance(like, float):
        return float(text)
    if isinstance(like, str):
        return text
    if text.strip().lower() == "none":
        return None
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    return text


@dataclass(frozen=True)
class Scenario:
    """A registered, parameterized, tagged experiment entry point.

    ``sharder`` / ``cell_runner`` / ``merger`` name module-level hooks (like
    ``formatter``) that let the Runner decompose one run into independent,
    independently cached cells: ``sharder(**params)`` returns the
    :class:`~repro.scenarios.sharding.Cell` plan, ``cell_runner(**cell
    params)`` executes one cell, and ``merger(values, **params)`` folds the
    cell values (in plan order) back into the scenario's ordinary return
    value.
    """

    name: str
    func: Callable[..., Any]
    module: str
    description: str
    tags: tuple[str, ...] = ()
    cost: str = "cheap"
    params: dict[str, Param] = field(default_factory=dict)
    formatter: str = "format_rows"
    sharder: str | None = None
    cell_runner: str | None = None
    merger: str | None = None
    #: Alternate spellings that resolve to this scenario (e.g. the source
    #: module's name, so ``repro run fig07_datamining`` works).
    aliases: tuple[str, ...] = ()

    # ------------------------------------------------------------ parameters

    def defaults(self) -> dict[str, Any]:
        return {p.name: p.default for p in self.params.values()}

    def bind(
        self, overrides: Mapping[str, Any] | None = None, *, strict: bool = True
    ) -> dict[str, Any]:
        """Full parameter dict: schema defaults + ``overrides``.

        String override values are coerced to the schema's types; non-string
        values pass through unchanged (callers already hold python values).
        With ``strict`` off, keys the scenario doesn't accept are silently
        dropped (used when one ``--set`` applies across a selection).
        """
        params = self.defaults()
        for key, value in (overrides or {}).items():
            if key not in self.params:
                if strict:
                    raise ScenarioError(
                        f"scenario {self.name!r} has no parameter {key!r} "
                        f"(accepts: {', '.join(self.params) or 'none'})"
                    )
                continue
            if isinstance(value, str):
                value = self.params[key].coerce(value)
            params[key] = value
        return params

    def accepts(self, key: str) -> bool:
        return key in self.params

    # ------------------------------------------------------------- execution

    def execute(self, **params: Any) -> Any:
        """Run the underlying entry point with ``params``."""
        return self.func(**params)

    # -------------------------------------------------------------- sharding

    @property
    def shardable(self) -> bool:
        return self.sharder is not None

    def _hook(self, attr_name: str | None, role: str) -> Callable[..., Any]:
        fn = getattr(sys.modules[self.module], attr_name or "", None)
        if fn is None:
            raise ScenarioError(
                f"scenario {self.name!r}: {role} hook {attr_name!r} not found "
                f"in module {self.module!r}"
            )
        return fn

    def shard_plan(self, **params: Any) -> list[Any]:
        """The scenario's :class:`Cell` plan for ``params`` (validated)."""
        from .sharding import validate_plan

        plan = self._hook(self.sharder, "shards")(**params)
        return validate_plan(self.name, list(plan))

    def run_cell(self, **cell_params: Any) -> Any:
        """Execute one cell of a sharded run."""
        return self._hook(self.cell_runner, "cell")(**cell_params)

    def merge(self, values: Sequence[Any], **params: Any) -> Any:
        """Fold cell values (in plan order) into the scenario's value."""
        return self._hook(self.merger, "merge")(list(values), **params)

    def format(self, value: Any) -> list[str]:
        """Human-readable rows for a :meth:`execute` result."""
        formatter = getattr(sys.modules[self.module], self.formatter, None)
        if formatter is None:
            return [repr(value)]
        return formatter(value)

    def matches(self, token: str) -> bool:
        """True if ``token`` names this scenario (or an alias), exactly or
        as a glob."""
        return any(
            token == name or fnmatch.fnmatchcase(name, token)
            for name in (self.name, *self.aliases)
        )


_REGISTRY: dict[str, Scenario] = {}


def register(sc: Scenario) -> Scenario:
    """Insert (or replace, e.g. on module reload) a scenario."""
    _REGISTRY[sc.name] = sc
    return sc


def scenario(
    name: str,
    *,
    tags: Sequence[str] = (),
    cost: str = "cheap",
    title: str | None = None,
    defaults: Mapping[str, Any] | None = None,
    formatter: str = "format_rows",
    shards: str | None = None,
    cell: str | None = None,
    merge: str | None = None,
    aliases: Sequence[str] = (),
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register ``fn`` as scenario ``name``; returns ``fn``.

    The parameter schema is read from the signature (every keyword with a
    default becomes a :class:`Param`); ``defaults`` overrides individual
    schema defaults without touching the function's own (used where the
    registry wants a cheaper default than the library API, e.g. fig04's
    slice subsampling). ``title`` overrides the docstring-derived
    description. ``shards`` / ``cell`` / ``merge`` name the module-level
    shard hooks (all three or none); see :class:`Scenario`. ``aliases``
    are alternate selection spellings (conventionally the experiment
    module's name).
    """
    if cost not in COST_HINTS:
        raise ValueError(f"cost hint must be one of {COST_HINTS}, got {cost!r}")
    shard_hooks = (shards, cell, merge)
    if any(h is not None for h in shard_hooks) and not all(
        h is not None for h in shard_hooks
    ):
        raise ValueError(
            f"scenario {name!r}: shards/cell/merge must be declared together"
        )

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        params: dict[str, Param] = {}
        for p in inspect.signature(fn).parameters.values():
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                continue
            if p.default is inspect.Parameter.empty:
                raise ValueError(
                    f"scenario {name!r}: parameter {p.name!r} has no default; "
                    "scenario entry points must be fully defaulted"
                )
            params[p.name] = Param(p.name, p.default)
        for key, value in (defaults or {}).items():
            if key not in params:
                raise ValueError(
                    f"scenario {name!r}: defaults override unknown "
                    f"parameter {key!r}"
                )
            params[key] = Param(key, value)
        description = title or (inspect.getdoc(fn) or name).splitlines()[0]
        register(
            Scenario(
                name=name,
                func=fn,
                module=fn.__module__,
                description=description,
                tags=tuple(tags),
                cost=cost,
                params=params,
                formatter=formatter,
                sharder=shards,
                cell_runner=cell,
                merger=merge,
                aliases=tuple(aliases),
            )
        )
        return fn

    return decorate


def _import_builtin(module: str) -> None:
    importlib.import_module(f"repro.experiments.{module}")


def load_builtin() -> None:
    """Import every bundled experiment module (idempotent).

    Registration happens as a decorator side effect, so importing the
    modules populates the registry. Only whole-registry views need this
    (globs, tags, :func:`all_scenarios`, ``repro list``); :func:`get` and
    exact-name :func:`select` import just the modules they name.
    """
    for module in SCENARIO_MODULES.values():
        _import_builtin(module)


def get(name: str) -> Scenario:
    """The scenario named ``name`` (or aliased so).

    A bundled name imports only its own module; any other name loads every
    bundled module first, so a third-party registration still resolves
    and an unknown name's error lists every scenario.
    """
    module = SCENARIO_MODULES.get(name)
    if module is None:
        load_builtin()
    else:
        _import_builtin(module)
    try:
        return _REGISTRY[name]
    except KeyError:
        for sc in _REGISTRY.values():
            if name in sc.aliases:
                return sc
        known = ", ".join(sorted(_REGISTRY))
        raise ScenarioError(
            f"unknown scenario {name!r}; known: {known}"
        ) from None


def all_scenarios() -> list[Scenario]:
    """Every registered scenario, sorted by name."""
    load_builtin()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def all_tags() -> list[str]:
    load_builtin()
    return sorted({t for sc in _REGISTRY.values() for t in sc.tags})


def select(
    names: Iterable[str] = (), tags: Iterable[str] = ()
) -> list[Scenario]:
    """Scenarios matching any name/glob in ``names`` or any tag in ``tags``.

    Order follows the registry's sorted order; unknown names (that match
    nothing, even as a glob) and unknown tags raise :class:`ScenarioError`.
    A selection of bundled names and aliases alone imports only their
    modules; a glob, a tag or any other name imports every bundled module.
    """
    names = list(names)
    tags = list(tags)
    if not tags and all(token in SCENARIO_MODULES for token in names):
        for token in names:
            _import_builtin(SCENARIO_MODULES[token])
    else:
        load_builtin()
    known_tags = {t for sc in _REGISTRY.values() for t in sc.tags}
    for tag in tags:
        if tag not in known_tags:
            raise ScenarioError(
                f"unknown tag {tag!r}; known: {', '.join(sorted(known_tags))}"
            )
    picked: list[Scenario] = []
    for name in sorted(_REGISTRY):
        sc = _REGISTRY[name]
        if any(sc.matches(token) for token in names) or any(
            t in sc.tags for t in tags
        ):
            picked.append(sc)
    for token in names:
        if not any(sc.matches(token) for sc in picked):
            known = ", ".join(sorted(_REGISTRY))
            raise ScenarioError(f"unknown scenario {token!r}; known: {known}")
    return picked
