"""Parallel scenario executor with per-scenario seeds and result caching.

The :class:`Runner` is the single execution path shared by the CLI, the
pytest-benchmark harness, and the test suite: resolve a selection of
registered scenarios, bind parameter overrides, derive deterministic
per-scenario seeds, consult the content-addressed cache, and fan the
remaining work out over a ``multiprocessing`` pool. Only the picklable
job descriptor crosses the process boundary, never a function object: a
worker resolves the scenario by name, which imports just the experiment
module that registers it (see :mod:`.registry`).

Sharded execution
-----------------
A scenario that declares shard hooks (see :mod:`.sharding`) is decomposed
into independent *cells* that fan out across the pool alongside ordinary
jobs. Every unit of work — a whole scenario or one cell — carries a cost
estimate, and the pool schedules expensive units first so the tail stays
short. Cells are cached under their own content-addressed keys the moment
they finish (``imap_unordered`` streams them back), so a killed
paper-scale sweep resumes from its completed cells instead of restarting;
the merged scenario document is cached under the ordinary key once every
cell is in. Cell values travel as the portable encoding
(:func:`~repro.scenarios.encode.to_portable`), which reconstructs the
exact python value, so a merge over pooled or cache-restored cells is
bit-identical to the unsharded in-process run.

Executors
---------
The ``executor`` seam picks how units run once decomposition and cache
checks are done: ``"local"`` executes in-process, ``"pool"`` fans out
over a ``multiprocessing`` pool, and ``"distributed"`` stands up a
:class:`repro.distrib.Coordinator` and leases units to TCP workers —
auto-spawned local subprocesses by default (``workers=N``), or external
``repro worker HOST:PORT`` processes when a ``listen`` address is given.
All three feed the same stream-consumption loop (cache writes, shard
merges, progress), so results are bit-identical across executors by
construction; only transport differs.

Cost ordering is adaptive: cell units start from their static estimates
(scale x network x load for FCT grids), and when the cell cache holds
recorded durations for a scenario's cell keys, those durations are
calibrated into the static scale (:func:`~repro.scenarios.sharding.
calibrate_costs`) and take over the ordering.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
import multiprocessing
import os
import subprocess
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..distrib.chaos import ChaosCrash, injector as chaos_injector
from ..distrib.journal import RunJournal, journal_path, load_journal
from ..obs.metrics import REGISTRY as _METRICS, armed as _telemetry_armed
from ..obs.trace import Tracer, TraceWriter, trace_path
from . import registry
from .cache import ResultCache
from .encode import (
    EncodeError,
    canonical_json,
    content_hash,
    from_portable,
    to_jsonable,
    to_portable,
)
from .registry import Scenario, ScenarioError
from .sharding import Cell, calibrate_costs, quarantine_row

__all__ = [
    "Runner",
    "ScenarioResult",
    "ScenarioExecutionError",
    "derive_seed",
    "Progress",
]

logger = logging.getLogger(__name__)


class ScenarioExecutionError(RuntimeError):
    """A scenario raised; carries the worker-side traceback text."""

    def __init__(self, name: str, params: Mapping[str, Any], tb: str) -> None:
        super().__init__(f"scenario {name!r} failed with params {dict(params)!r}:\n{tb}")
        self.scenario = name
        self.params = dict(params)
        self.worker_traceback = tb


def _apply_scale_env(
    sc: Scenario, params: dict[str, Any], overrides: Mapping[str, Any]
) -> None:
    """Fold the ``REPRO_SCALE`` profile into a scenario's bound params.

    Any scenario accepting a ``scale`` parameter follows the environment
    profile (``ci`` | ``default`` | ``paper``) unless the caller overrode
    ``scale`` explicitly. The substitution happens at bind time so cached
    results are keyed by the *effective* profile, never by ambient
    environment state.
    """
    env = os.environ.get("REPRO_SCALE")
    if env and sc.accepts("scale") and "scale" not in overrides:
        params["scale"] = env


def derive_seed(base_seed: int, name: str) -> int:
    """Stable 32-bit seed for one scenario of a seeded batch run.

    Hash-derived (not ``base_seed + i``) so the seed a scenario gets does
    not depend on which other scenarios were selected alongside it.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class ScenarioResult:
    """Outcome of one scenario execution (live or cache hit)."""

    name: str
    params: dict[str, Any]
    rows: list[str]
    payload: Any = None
    value: Any = None
    cached: bool = False
    duration_s: float = 0.0
    #: ``(cells computed, cells restored from cache, cells total)`` for a
    #: sharded execution; ``None`` for ordinary scenarios and full-doc hits.
    cells: tuple[int, int, int] | None = None
    #: Units given up on under ``policy="degraded"``: ``[{"label": ...,
    #: "error": <full traceback>}]``. ``None`` for a clean result.
    quarantined: list[dict[str, str]] | None = None


@dataclass(frozen=True)
class Progress:
    """One completed unit of work, reported to the Runner's callback."""

    done: int
    total: int
    label: str
    duration_s: float
    eta_s: float | None
    failed: bool = False
    #: Name of the (remote or auto-spawned) worker that completed the
    #: unit; ``None`` for in-process and pool execution.
    worker: str | None = None


@dataclass
class _Job:
    scenario: Scenario
    params: dict[str, Any]


#: Relative cost of a whole non-sharded scenario by its registry hint,
#: on the same (arbitrary, comparable) scale shard cells use: a ``heavy``
#: packet scenario is worth a few hundred default-scale cells' load units.
_HINT_COST = {"cheap": 1.0, "medium": 25.0, "heavy": 400.0}

#: Sentinel: the unit's raw python value did not travel (pooled execution).
_NO_VALUE = object()

#: One-time-warning ledger for executor degradation, mirroring the
#: ``REPRO_KERNEL=c`` fallback pattern: each (from, to) edge warns once per
#: process, because a degraded sweep must be *loud* exactly once, not per
#: sweep point. Tests reset this to re-observe the warning.
_DEGRADE_WARNED: set[tuple[str, str]] = set()


def _warn_degrade(from_mode: str, to_mode: str, reason: str) -> None:
    if (from_mode, to_mode) in _DEGRADE_WARNED:
        return
    _DEGRADE_WARNED.add((from_mode, to_mode))
    warnings.warn(
        f"executor {from_mode!r} unavailable ({reason}); degrading to "
        f"{to_mode!r} execution — results are bit-identical across "
        f"executors, only parallelism is lost",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass
class _Unit:
    """One schedulable piece of work: a whole scenario or a single cell."""

    uid: int
    job_index: int
    kind: str  # "scenario" | "cell"
    name: str
    params: dict[str, Any]
    cell_key: str | None = None
    cost: float = 1.0
    #: Further job indexes whose plans contain this exact cell (same
    #: scenario, key and params) — the cell runs once and its value fans
    #: out to every owner.
    extra_jobs: list[int] = field(default_factory=list)

    @property
    def job_indexes(self) -> list[int]:
        return [self.job_index, *self.extra_jobs]

    @property
    def label(self) -> str:
        return self.name if self.cell_key is None else f"{self.name}:{self.cell_key}"


@dataclass
class _ShardState:
    """Per-job bookkeeping while a sharded scenario's cells are in flight."""

    plan: list[Cell]
    values: dict[str, Any] = field(default_factory=dict)
    durations: dict[str, float] = field(default_factory=dict)
    restored: int = 0
    error: str | None = None
    #: cell key -> full error text, for cells given up on under
    #: ``policy="degraded"`` (merge is skipped; the result reports them).
    quarantined: dict[str, str] = field(default_factory=dict)


def _attach_telemetry(doc: dict[str, Any]) -> None:
    """Side-channel the unit's metric snapshot onto its result document.

    The ``"telemetry"`` key rides the same transport as the doc (pickle
    over the pool pipe, JSON frames over TCP) but is popped by the
    Runner's stream loop *before* any cache write — cached documents are
    byte-identical with telemetry armed or off, which is what makes the
    bitwise-invisibility pins in ``tests/test_obs.py`` trivial to hold.
    """
    if _telemetry_armed() and _METRICS:
        doc["telemetry"] = _METRICS.portable()


def _execute(name: str, params: dict[str, Any]) -> tuple[dict[str, Any], Any]:
    """Run one scenario; return (cacheable doc, raw python value)."""
    sc = registry.get(name)
    if _telemetry_armed():
        _METRICS.reset()  # per-unit snapshots, whichever process runs us
    start = time.perf_counter()
    try:
        value = sc.execute(**params)
        duration = time.perf_counter() - start
        # Formatters are scenario code too: a formatter crash must surface
        # as a ScenarioExecutionError with context, not escape the pool raw.
        rows = sc.format(value)
        try:
            payload = to_jsonable(value)
        except EncodeError:
            payload = None
    except Exception:
        # KeyboardInterrupt/SystemExit are BaseException and propagate;
        # scenario failures become error docs, but never silently — the
        # log line carries the unit label even when no caller inspects
        # the doc (e.g. a worker whose lease is later abandoned).
        logger.warning("scenario %r failed (params=%r)", name, params, exc_info=True)
        doc = {"scenario": name, "params": params, "error": traceback.format_exc()}
        return doc, None
    doc = {
        "scenario": name,
        "params": params,
        "rows": rows,
        "payload": payload,
        "duration_s": duration,
    }
    _attach_telemetry(doc)
    return doc, value


def _execute_cell(
    name: str, cell_key: str, params: dict[str, Any]
) -> tuple[dict[str, Any], Any]:
    """Run one cell; return (cacheable doc, raw python value).

    The portable encoding *is* the cell's transport and cache format, so a
    cell value outside the portable vocabulary is an execution error (there
    is no rows-only fallback at cell granularity).
    """
    sc = registry.get(name)
    if _telemetry_armed():
        _METRICS.reset()
    start = time.perf_counter()
    try:
        value = sc.run_cell(**params)
        portable = to_portable(value)
    except Exception:
        logger.warning(
            "scenario %r cell %r failed (params=%r)",
            name,
            cell_key,
            params,
            exc_info=True,
        )
        doc = {
            "scenario": name,
            "cell": cell_key,
            "params": params,
            "error": traceback.format_exc(),
        }
        return doc, None
    doc = {
        "scenario": name,
        "cell": cell_key,
        "params": params,
        "value": portable,
        "duration_s": time.perf_counter() - start,
    }
    _attach_telemetry(doc)
    return doc, value


def _execute_unit(
    payload: tuple[int, str, str, str | None, dict[str, Any]]
) -> tuple[int, dict[str, Any]]:
    """Pool worker entry: only the picklable doc crosses the boundary."""
    uid, kind, name, cell_key, params = payload
    if kind == "cell":
        assert cell_key is not None
        doc, _value = _execute_cell(name, cell_key, params)
    else:
        doc, _value = _execute(name, params)
    return uid, doc


class Runner:
    """Execute selections of registered scenarios, cached and in parallel.

    Parameters
    ----------
    workers:
        Worker-pool size; ``None`` and values ``<= 1`` run in-process
        (keeping rich python return values available to callers).
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching entirely.
    use_cache:
        When off, the cache (if any) is still *written* but never read —
        matching the CLI's ``--no-cache`` refresh semantics.
    base_seed:
        When set, every selected scenario that accepts a ``seed`` parameter
        and wasn't explicitly overridden gets :func:`derive_seed`'s stable
        per-scenario value instead of its schema default.
    progress:
        Optional callback invoked (in the parent process) with a
        :class:`Progress` record each time a unit of work — a scenario or
        one shard cell — finishes, with a cost-weighted ETA. Units
        completed by remote workers flow through the same callback (the
        record's ``worker`` field names who ran it), so ``[done/total]``
        accounting covers the whole distributed plan.
    executor:
        ``"local"`` | ``"pool"`` | ``"distributed"`` | ``"service"``, or
        ``None`` to pick automatically (``pool`` when ``workers > 1``,
        else ``local``). ``distributed`` stands up a TCP coordinator and
        leases units to workers: ``workers=N`` auto-spawns N local
        subprocess workers (the default backend), and ``listen``
        additionally accepts external ``repro worker`` processes.
        ``service`` submits the sweep to a long-lived ``repro serve``
        coordinator named by ``service`` instead of standing up its own
        — the job shares that coordinator's worker fleet with whatever
        else is running there, and results stream back through the same
        cache/merge path, bitwise identical to every other executor.
    service:
        ``"host:port"`` of the ``repro serve`` coordinator (required for
        — and only meaningful with — ``executor="service"``).
    secret:
        Shared secret (bytes) for the service coordinator's
        authenticated handshake; ``None`` for open coordinators.
    listen:
        ``"host:port"`` (or tuple) for the distributed coordinator to
        accept workers on; port 0 binds an ephemeral port. ``None`` keeps
        the coordinator on loopback with an ephemeral port, which only
        auto-spawned workers can find — so ``workers`` must be > 0 then.
    lease_timeout:
        Seconds of silence (no heartbeat, no result) before a distributed
        worker's lease is re-queued for another worker.
    max_respawns:
        Budget for replacing auto-spawned local workers that die while
        leased units remain.
    on_listen:
        Callback invoked with the coordinator's resolved ``(host, port)``
        once it is accepting workers (the CLI prints it so a second
        terminal can join).
    policy:
        Completion policy for failed units. ``"strict"`` (default)
        preserves the historical contract: every success is cached as it
        streams back, then the first failure raises
        :class:`ScenarioExecutionError` after the batch drains.
        ``"degraded"`` never raises for unit failures: a failed or
        poison unit is *quarantined* — its label and traceback land in
        the ``ScenarioResult.quarantined`` field (and the result rows)
        while every healthy sibling completes normally — so one bad cell
        cannot wedge a fleet-scale sweep.
    max_cell_attempts:
        How many distinct worker losses one distributed unit survives
        before the coordinator quarantines it as poison (maps onto
        :class:`repro.distrib.Coordinator`'s ``max_releases``).
    resume_journal:
        Resume a crashed distributed run from its write-ahead journal:
        prior quarantine verdicts are honored without re-execution, a
        recorded injected coordinator crash is disarmed (so a
        ``crash_coordinator`` chaos scenario converges on the second
        run), and completed cells restore from the cell cache as always.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        base_seed: int | None = None,
        progress: Callable[[Progress], None] | None = None,
        executor: str | None = None,
        listen: str | tuple[str, int] | None = None,
        lease_timeout: float = 60.0,
        max_respawns: int = 8,
        on_listen: Callable[[tuple[str, int]], None] | None = None,
        policy: str = "strict",
        max_cell_attempts: int = 3,
        resume_journal: bool = False,
        service: str | tuple[str, int] | None = None,
        secret: bytes | None = None,
    ) -> None:
        if executor not in (None, "local", "pool", "distributed", "service"):
            raise ValueError(
                f"executor must be local|pool|distributed|service, got {executor!r}"
            )
        if policy not in ("strict", "degraded"):
            raise ValueError(f"policy must be strict|degraded, got {policy!r}")
        if executor == "distributed" and not (workers or 0) and listen is None:
            raise ValueError(
                "distributed executor with no auto-spawned workers "
                "(workers=0) needs a listen address external workers can "
                "reach"
            )
        if executor == "service" and service is None:
            raise ValueError(
                "service executor needs the coordinator's address "
                "(service='host:port' / repro sweep --service HOST:PORT)"
            )
        if service is not None:
            from ..distrib.protocol import parse_address

            service = parse_address(service)
        if listen is not None:
            # Normalize (and reject garbage) at construction, where the
            # CLI can turn the ValueError into a clean exit — not minutes
            # into a run.
            from ..distrib.protocol import parse_address

            listen = parse_address(listen)
        self.workers = workers
        self.cache = cache
        self.use_cache = use_cache
        self.base_seed = base_seed
        self.progress = progress
        self.executor = executor
        self.listen = listen
        self.lease_timeout = lease_timeout
        self.max_respawns = max_respawns
        self.on_listen = on_listen
        self.policy = policy
        self.max_cell_attempts = max_cell_attempts
        self.resume_journal = resume_journal
        self.service = service
        self.secret = secret

    # ------------------------------------------------------------ resolution

    def resolve(
        self,
        names: Iterable[str] = (),
        tags: Iterable[str] = (),
        overrides: Mapping[str, Any] | None = None,
    ) -> list[_Job]:
        """Selection -> fully-bound jobs (overrides coerced per scenario).

        A single override set applies across the whole selection: each key
        must be accepted by at least one selected scenario (else it is a
        typo and raises), and binds loosely everywhere else.
        """
        scenarios = registry.select(names, tags)
        overrides = dict(overrides or {})
        for key in overrides:
            if not any(sc.accepts(key) for sc in scenarios):
                accepted = sorted({p for sc in scenarios for p in sc.params})
                raise ScenarioError(
                    f"no selected scenario accepts parameter {key!r} "
                    f"(accepted: {', '.join(accepted) or 'none'})"
                )
        strict = len(scenarios) == 1
        return [
            _Job(sc, self._bind_with_seed(sc, overrides, strict=strict))
            for sc in scenarios
        ]

    def _bind_with_seed(
        self, sc: Scenario, overrides: Mapping[str, Any], *, strict: bool = True
    ) -> dict[str, Any]:
        """Bind overrides, then apply the seed and scale-profile policies."""
        params = sc.bind(overrides, strict=strict)
        if (
            self.base_seed is not None
            and sc.accepts("seed")
            and "seed" not in overrides
        ):
            params["seed"] = derive_seed(self.base_seed, sc.name)
        _apply_scale_env(sc, params, overrides)
        return params

    # ------------------------------------------------------------- execution

    def execute(self, name: str, **overrides: Any) -> Any:
        """Run one scenario in-process and return its raw python value.

        This is the benchmark entry point: same registry, same parameter
        binding and validation as the CLI, no cache, no pool — so a
        pytest-benchmark measurement times exactly the scenario body.
        """
        sc = registry.get(name)
        params = sc.bind(overrides)
        _apply_scale_env(sc, params, overrides)
        return sc.execute(**params)

    def run(
        self,
        names: Iterable[str] = (),
        tags: Iterable[str] = (),
        overrides: Mapping[str, Any] | None = None,
    ) -> list[ScenarioResult]:
        """Resolve a selection and execute it; results in selection order."""
        return self._run_jobs(self.resolve(names, tags, overrides))

    def sweep(
        self,
        name: str,
        grid: Mapping[str, Sequence[Any]],
        overrides: Mapping[str, Any] | None = None,
    ) -> list[ScenarioResult]:
        """Run ``name`` once per point of the cartesian parameter grid."""
        sc = registry.get(name)
        fixed = dict(overrides or {})
        keys = list(grid)
        jobs = []
        for combo in itertools.product(*(grid[k] for k in keys)):
            point = dict(fixed)
            point.update(zip(keys, combo))
            jobs.append(_Job(sc, self._bind_with_seed(sc, point)))
        return self._run_jobs(jobs)

    # -------------------------------------------------------------- internal

    def _read_cache(self) -> bool:
        return self.cache is not None and self.use_cache

    def _decompose(
        self,
        jobs: list[_Job],
        results: dict[int, ScenarioResult],
        tracer: Tracer | None = None,
    ) -> tuple[list[_Unit], dict[int, _ShardState]]:
        """Cache-check every job and expand the misses into work units.

        Ordinary scenarios become one unit each; shardable scenarios expand
        into one unit per cell-cache miss, with cells already in the cache
        restored to the job's shard state immediately.
        """
        units: list[_Unit] = []
        shard_states: dict[int, _ShardState] = {}
        # Sweep points often share cells (same scenario, key, params —
        # e.g. two `networks` grids both containing opera@0.25): run each
        # distinct cell once per batch and fan its value out to every
        # owning job.
        pending_cells: dict[tuple[str, str, str], _Unit] = {}
        for i, job in enumerate(jobs):
            sc = job.scenario
            doc = (
                self.cache.get(sc.name, job.params) if self._read_cache() else None
            )
            if doc is not None and "rows" in doc:
                results[i] = ScenarioResult(
                    name=sc.name,
                    params=job.params,
                    rows=list(doc["rows"]),
                    payload=doc.get("payload"),
                    cached=True,
                    duration_s=float(doc.get("duration_s", 0.0)),
                )
                if tracer:
                    tracer.emit(
                        {"ev": "cache-hit", "label": sc.name, "kind": "doc"}
                    )
                continue
            if not sc.shardable:
                units.append(
                    _Unit(
                        uid=len(units),
                        job_index=i,
                        kind="scenario",
                        name=sc.name,
                        params=job.params,
                        cost=_HINT_COST.get(sc.cost, 1.0),
                    )
                )
                continue
            try:
                state = _ShardState(plan=sc.shard_plan(**job.params))
            except Exception:
                # Decomposition happens before any work runs, so aborting
                # here loses nothing — but it is still scenario code failing
                # and must carry scenario context.
                raise ScenarioExecutionError(
                    sc.name, job.params, traceback.format_exc()
                ) from None
            shard_states[i] = state
            for cell in state.plan:
                cdoc = (
                    self.cache.get_cell(sc.name, cell.key, cell.params)
                    if self._read_cache()
                    else None
                )
                if cdoc is not None and "value" in cdoc:
                    state.values[cell.key] = from_portable(cdoc["value"])
                    state.durations[cell.key] = float(cdoc.get("duration_s", 0.0))
                    state.restored += 1
                    if tracer:
                        tracer.emit(
                            {
                                "ev": "cache-hit",
                                "label": f"{sc.name}:{cell.key}",
                                "kind": "cell",
                            }
                        )
                    continue
                dedup = (sc.name, cell.key, canonical_json(cell.params))
                if dedup in pending_cells:
                    pending_cells[dedup].extra_jobs.append(i)
                    continue
                unit = _Unit(
                    uid=len(units),
                    job_index=i,
                    kind="cell",
                    name=sc.name,
                    params=cell.params,
                    cell_key=cell.key,
                    cost=cell.cost,
                )
                pending_cells[dedup] = unit
                units.append(unit)
        return units, shard_states

    def _serial_stream(
        self, ordered: list[_Unit]
    ) -> Iterator[tuple[_Unit, dict[str, Any], Any, str | None]]:
        for unit in ordered:
            if unit.kind == "cell":
                assert unit.cell_key is not None
                doc, value = _execute_cell(unit.name, unit.cell_key, unit.params)
            else:
                doc, value = _execute(unit.name, unit.params)
            yield unit, doc, value, None

    def _pool_stream(
        self, ordered: list[_Unit], pool: multiprocessing.pool.Pool
    ) -> Iterator[tuple[_Unit, dict[str, Any], Any, str | None]]:
        """Stream unit docs back as workers finish them.

        ``imap_unordered(chunksize=1)`` lets short units return while long
        cells are still running, so successes are cached (and failures
        surfaced through the progress callback) without waiting for the
        whole batch. The pool is created *eagerly* by :meth:`_make_stream`
        (a spawn failure there degrades to local execution); this
        generator owns and closes it.
        """
        by_uid = {unit.uid: unit for unit in ordered}
        payloads = [
            (u.uid, u.kind, u.name, u.cell_key, u.params) for u in ordered
        ]
        with pool:
            for uid, doc in pool.imap_unordered(_execute_unit, payloads, chunksize=1):
                yield by_uid[uid], doc, _NO_VALUE, None

    def _unit_jkey(self, unit: _Unit) -> str | None:
        """The unit's cache key — its durable identity in the run journal."""
        if self.cache is None:
            return None
        if unit.kind == "cell":
            assert unit.cell_key is not None
            return self.cache.cell_key(unit.name, unit.cell_key, unit.params)
        return self.cache.key(unit.name, unit.params)

    def _setup_distributed(
        self,
        ordered: list[_Unit],
        journal: RunJournal | None,
        crash_after: int | None,
        tracer: Tracer | None = None,
        status_extra: dict[str, Any] | None = None,
    ) -> Iterator[tuple[_Unit, dict[str, Any], Any, str | None]]:
        """Eagerly stand up the coordinator + initial worker fleet.

        Setup failures — the listen socket cannot bind, the worker
        subprocess cannot spawn — raise ``OSError`` *here*, before any
        unit runs, so :meth:`_make_stream` can degrade to pool/local
        execution. Mid-run failures inside the returned generator do not
        degrade: the recovery machinery (re-lease, respawn, backoff)
        owns those.
        """
        from ..distrib import Coordinator, spawn_local_worker

        on_event = None
        if tracer:
            by_uid = {u.uid: u for u in ordered}

            def on_event(kind: str, uid: int, worker: str) -> None:
                unit = by_uid.get(uid)
                tracer.emit(
                    {
                        "ev": kind,
                        "uid": uid,
                        "label": unit.label if unit is not None else None,
                        "worker": worker,
                    }
                )

        host, port = self.listen if self.listen is not None else ("127.0.0.1", 0)
        coord = Coordinator(
            host,
            port,
            lease_timeout=self.lease_timeout,
            max_releases=self.max_cell_attempts,
            journal=journal,
            crash_after=crash_after,
            on_event=on_event,
            status_extra=status_extra,
        )
        procs: list[Any] = []
        #: Monotonic worker-role counter (``REPRO_CHAOS_ROLE=worker-N``):
        #: every spawn — initial or respawn — gets a fresh seeded chaos
        #: stream, so replacement workers do not replay their
        #: predecessor's fault sequence.
        roles = itertools.count()
        try:
            if self.on_listen is not None:
                self.on_listen(coord.address)
            for _ in range(min(self.workers or 0, len(ordered))):
                procs.append(
                    spawn_local_worker(coord.address, role=f"worker-{next(roles)}")
                )
        except OSError:
            coord.close()
            for p in procs:
                if p.poll() is None:
                    p.terminate()
            raise
        return self._distributed_stream(ordered, coord, procs, roles)

    def _distributed_stream(
        self,
        ordered: list[_Unit],
        coord: Any,
        procs: list[Any],
        roles: Iterator[int],
    ) -> Iterator[tuple[_Unit, dict[str, Any], Any, str | None]]:
        """Lease units to TCP workers via a coordinator; stream docs back.

        With ``workers=N`` the Runner spawns N local subprocess workers
        against its own coordinator (and replaces ones that die while work
        remains, up to ``max_respawns``); a ``listen`` address additionally
        lets external ``repro worker`` processes join the same run. The
        documents streaming back are produced by the very same executor
        functions the pool path uses, so everything downstream is shared.
        Lease payloads carry each unit's cache key (``jkey``) so the
        coordinator's write-ahead journal records grants/completions
        under the same identity the cell cache uses.
        """
        from ..distrib import spawn_local_worker

        by_uid = {unit.uid: unit for unit in ordered}
        payloads = [
            {
                "uid": u.uid,
                "kind": u.kind,
                "name": u.name,
                "cell_key": u.cell_key,
                "params": to_portable(u.params),
                "jkey": self._unit_jkey(u),
            }
            for u in ordered
        ]
        n_spawn = len(procs)
        budget = self.max_respawns

        def watchdog(c: Any) -> None:
            nonlocal budget
            if not n_spawn:
                return
            live = [p for p in procs if p.poll() is None]
            lost = len(procs) - len(live)
            procs[:] = live
            if lost and c.unfinished:
                for _ in range(min(lost, max(budget, 0))):
                    procs.append(
                        spawn_local_worker(
                            c.address, role=f"worker-{next(roles)}"
                        )
                    )
                    budget -= 1
            # With no listen address there is no other way for workers to
            # appear: an empty fleet plus an exhausted budget means the
            # run can never finish, and hanging silently is the one
            # unacceptable outcome. (The coordinator's per-unit release
            # bound usually fails a poison unit long before this trips.)
            if (
                not procs
                and budget <= 0
                and c.unfinished
                and self.listen is None
            ):
                raise RuntimeError(
                    "distributed run stalled: every auto-spawned worker "
                    f"died and the respawn budget ({self.max_respawns}) is "
                    "exhausted"
                )

        try:
            for uid, doc, worker in coord.run(payloads, watchdog=watchdog):
                yield by_uid[uid], doc, _NO_VALUE, worker
        finally:
            coord.close()
            for p in procs:
                if p.poll() is None:
                    p.terminate()
            for p in procs:
                # Only the two failures reaping can legitimately hit:
                # a worker that ignores SIGTERM (escalate to SIGKILL) or
                # an OS-level error on an already-gone process. Anything
                # else — including KeyboardInterrupt — propagates.
                try:
                    p.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    logger.warning(
                        "worker pid %s ignored terminate; killing", p.pid
                    )
                    p.kill()
                    p.wait(timeout=5)
                except OSError:
                    pass

    def _service_stream(
        self, ordered: list[_Unit], run_key: str | None = None
    ) -> Iterator[tuple[_Unit, dict[str, Any], Any, str | None]]:
        """Submit the batch to a long-lived ``repro serve`` coordinator.

        The payloads are byte-for-byte the ones the ``distributed``
        executor would lease (portable params, cache jkeys), and the
        coordinator's workers run them through the same executor
        functions, so the documents streaming back — and therefore the
        merged rows — are bitwise identical to an in-process run.

        Deliberately *no* graceful degradation here: the user named a
        specific coordinator, so an unreachable or refusing service is
        an answer for them, not something to paper over with a silent
        local run (which could take hours they budgeted a fleet for).
        """
        from ..distrib.jobs import ServiceClient

        assert self.service is not None
        by_uid = {unit.uid: unit for unit in ordered}
        payloads = [
            {
                "uid": u.uid,
                "kind": u.kind,
                "name": u.name,
                "cell_key": u.cell_key,
                "params": to_portable(u.params),
                "jkey": self._unit_jkey(u),
            }
            for u in ordered
        ]
        label = ",".join(sorted({u.name for u in ordered}))
        client = ServiceClient(self.service, secret=self.secret)
        client.submit(payloads, label=label, run_key=run_key)
        for uid, doc, worker in client.stream_results():
            yield by_uid[uid], doc, _NO_VALUE, worker

    def _make_stream(
        self,
        ordered: list[_Unit],
        mode: str,
        n_workers: int,
        journal: RunJournal | None,
        crash_after: int | None,
        tracer: Tracer | None = None,
        status_extra: dict[str, Any] | None = None,
        run_key: str | None = None,
    ) -> Iterator[tuple[_Unit, dict[str, Any], Any, str | None]]:
        """Stand up the requested executor, degrading gracefully.

        ``distributed → pool → local``: when the coordinator's listen
        socket cannot bind or the initial worker spawn fails, the run
        proceeds on the next-simpler executor with a one-time
        :class:`RuntimeWarning` (mirroring the ``REPRO_KERNEL=c``
        fallback) — results are bit-identical across executors, so
        degradation costs parallelism, never correctness. The
        ``service`` executor never degrades (see
        :meth:`_service_stream`).
        """
        if mode == "service" and ordered:
            return self._service_stream(ordered, run_key)
        if mode == "distributed" and ordered:
            can_pool = n_workers > 1 and len(ordered) > 1
            try:
                return self._setup_distributed(
                    ordered, journal, crash_after, tracer, status_extra
                )
            except OSError as exc:
                _warn_degrade(
                    "distributed", "pool" if can_pool else "local", str(exc)
                )
                mode = "pool"
        if mode == "pool" and n_workers > 1 and len(ordered) > 1:
            try:
                pool = multiprocessing.Pool(min(n_workers, len(ordered)))
            except OSError as exc:
                _warn_degrade("pool", "local", str(exc))
            else:
                return self._pool_stream(ordered, pool)
        return self._serial_stream(ordered)

    def _adapt_costs(self, units: list[_Unit]) -> None:
        """Upgrade static cell-cost estimates with recorded durations.

        Per scenario, recorded per-cell wall clocks from the cell cache
        (:meth:`ResultCache.cell_duration_records`) are calibrated into
        the static estimate scale and replace the estimates of cells with
        history; cells without history keep their static cost, comparable
        through the shared calibration. Only *comparable* history counts:
        a record feeds a unit when its params match the unit's in
        everything but ``seed`` (same cell key, same scale, same horizon —
        different randomness), so ci-scale telemetry can never misorder a
        paper-scale sweep. Duration telemetry is read even under
        ``use_cache=False`` — ordering hints are not cached *results*.
        """
        if self.cache is None:
            return
        cells_by_name: dict[str, list[_Unit]] = {}
        for unit in units:
            if unit.kind == "cell":
                cells_by_name.setdefault(unit.name, []).append(unit)

        def _shape(params: Mapping[str, Any]) -> str:
            # canonical_json normalizes tuples (unit params) vs lists
            # (JSON-restored doc params) into one comparable form.
            return canonical_json(
                {k: v for k, v in params.items() if k != "seed"}
            )

        for name, cell_units in cells_by_name.items():
            records = self.cache.cell_duration_records(name)
            if not records:
                continue
            totals: dict[tuple[str, str], tuple[float, int]] = {}
            for key, params, duration in records:
                probe = (key, _shape(params))
                prev = totals.get(probe, (0.0, 0))
                totals[probe] = (prev[0] + duration, prev[1] + 1)
            static = {u.uid: u.cost for u in cell_units}
            history = {}
            for u in cell_units:
                assert u.cell_key is not None
                hit = totals.get((u.cell_key, _shape(u.params)))
                if hit is not None:
                    history[u.uid] = hit[0] / hit[1]
            blended = calibrate_costs(static, history)
            for u in cell_units:
                u.cost = blended[u.uid]

    def _run_key(self, jobs: list[_Job]) -> str:
        """Stable identity of one batch, for the run-journal filename.

        Hashes the ordered ``(scenario, canonical params)`` list — the
        same command resumes the same journal; a different sweep can
        never read another sweep's state.
        """
        return content_hash(
            {
                "version": 1,
                "journal": [
                    [job.scenario.name, canonical_json(job.params)]
                    for job in jobs
                ],
            }
        )

    def _progress_sink(self, event: dict[str, Any]) -> None:
        """Adapt ``completed`` span events into the ``progress`` callback.

        The callback is a *consumer of the span stream*: the stderr
        progress line and the trace file read the same event, so they can
        never disagree about done counts, ETAs or who ran what.
        """
        if event.get("ev") != "completed" or self.progress is None:
            return
        self.progress(
            Progress(
                done=event["done"],
                total=event["total"],
                label=event["label"],
                duration_s=event["duration_s"],
                eta_s=event["eta_s"],
                failed=event["failed"],
                worker=event.get("worker"),
            )
        )

    def _run_jobs(self, jobs: list[_Job]) -> list[ScenarioResult]:
        run_key = self._run_key(jobs)
        # One span stream, two optional sinks: the JSONL trace file (when
        # telemetry is armed and a cache root exists to hold it) and the
        # progress callback. With neither, every emit is one falsy check.
        tracer = Tracer()
        writer: TraceWriter | None = None
        if self.cache is not None and _telemetry_armed():
            writer = TraceWriter(trace_path(self.cache.root, run_key))
            tracer.add_sink(writer.write)
        if self.progress is not None:
            tracer.add_sink(self._progress_sink)
        results: dict[int, ScenarioResult] = {}
        units, shard_states = self._decompose(jobs, results, tracer)
        self._adapt_costs(units)

        # Schedule expensive units first so the pool tail is short. Sweep
        # points and shard cells carry real cost estimates (recorded
        # durations when the cache has them, else e.g. load descending for
        # FCT grids); plain scenarios rank by their hint.
        ordered = sorted(units, key=lambda u: (-u.cost, u.uid))

        n_workers = self.workers or 0
        mode = self.executor or ("pool" if n_workers > 1 else "local")

        # Distributed runs with a cache keep a write-ahead journal next to
        # it: grants/completions for crash forensics, quarantine verdicts
        # and injected-crash records for --resume-journal.
        journal: RunJournal | None = None
        pre_resolved: list[tuple[_Unit, dict[str, Any]]] = []
        inj = chaos_injector()
        crash_after = inj.config.crash_coordinator if inj is not None else None
        if mode == "distributed" and ordered and self.cache is not None:
            jpath = journal_path(self.cache.root, run_key)
            prior = load_journal(jpath) if self.resume_journal else None
            if prior is not None:
                if prior.crashed:
                    # The injected crash already fired on the previous
                    # run; the resume run must finish, not crash again.
                    crash_after = None
                if prior.quarantined:
                    live: list[_Unit] = []
                    for unit in ordered:
                        verdict = prior.quarantined.get(self._unit_jkey(unit))
                        if verdict is None:
                            live.append(unit)
                            continue
                        doc = {
                            "scenario": unit.name,
                            "params": to_portable(unit.params),
                            "error": verdict["error"],
                            "quarantined": True,
                        }
                        if unit.cell_key:
                            doc["cell"] = unit.cell_key
                        pre_resolved.append((unit, doc))
                    ordered = live
            journal = RunJournal(jpath, resume=prior is not None)
            journal.start(run_key, len(ordered))

        total_units = len(pre_resolved) + len(ordered)
        status_extra = None
        if tracer:
            doc_hits = len(results)
            cell_hits = sum(st.restored for st in shard_states.values())
            status_extra = {
                "run": run_key[:12],
                "jobs": len(jobs),
                "cache_hits": {"docs": doc_hits, "cells": cell_hits},
            }
            tracer.emit(
                {
                    "ev": "run-start",
                    "run": run_key,
                    "units": total_units,
                    "jobs": len(jobs),
                    "restored": doc_hits + cell_hits,
                }
            )
            for unit in ordered:
                tracer.emit(
                    {
                        "ev": "queued",
                        "uid": unit.uid,
                        "label": unit.label,
                        "cost": round(unit.cost, 6),
                    }
                )
        stream = itertools.chain(
            ((u, d, _NO_VALUE, None) for u, d in pre_resolved),
            self._make_stream(
                ordered,
                mode,
                n_workers,
                journal,
                crash_after,
                tracer,
                status_extra,
                run_key,
            ),
        )

        # Cache every success the moment it streams back, and only surface
        # the first failure after the batch drains: one bad scenario or cell
        # must not throw away minutes of completed work.
        failure: ScenarioExecutionError | None = None
        total_cost = (
            sum(u.cost for u, _ in pre_resolved) + sum(u.cost for u in ordered)
        ) or 1.0
        done_cost = 0.0
        started = time.perf_counter()
        try:
            for done, (unit, doc, value, worker) in enumerate(stream, start=1):
                # The metric snapshot is a side channel, never part of the
                # result: pop it before anything downstream (cache writes
                # included) can see the doc, so cached bytes are identical
                # with telemetry armed or off.
                telemetry = doc.pop("telemetry", None)
                failed = "error" in doc
                if failed and self.policy == "degraded":
                    err = doc["error"]
                    # Coordinator poison docs and journal-restored verdicts
                    # are already journaled; only fresh execution failures
                    # need a quarantine record here.
                    if journal is not None and not doc.get("quarantined"):
                        journal.quarantine(
                            self._unit_jkey(unit), unit.label, err
                        )
                    if unit.kind == "cell":
                        assert unit.cell_key is not None
                        for j in unit.job_indexes:
                            shard_states[j].quarantined[unit.cell_key] = err
                    else:
                        job = jobs[unit.job_index]
                        results[unit.job_index] = ScenarioResult(
                            name=unit.name,
                            params=job.params,
                            rows=[quarantine_row(unit.label, err)],
                            quarantined=[{"label": unit.label, "error": err}],
                        )
                elif unit.kind == "cell":
                    if failed:
                        for j in unit.job_indexes:
                            shard_states[j].error = doc["error"]
                        if failure is None:
                            failure = ScenarioExecutionError(
                                f"{unit.name}[{unit.cell_key}]",
                                unit.params,
                                doc["error"],
                            )
                    else:
                        if self.cache is not None:
                            assert unit.cell_key is not None
                            self.cache.put_cell(
                                unit.name, unit.cell_key, unit.params, doc
                            )
                        cell_value = (
                            from_portable(doc["value"])
                            if value is _NO_VALUE
                            else value
                        )
                        for j in unit.job_indexes:
                            state = shard_states[j]
                            state.values[unit.cell_key] = cell_value
                            state.durations[unit.cell_key] = float(
                                doc["duration_s"]
                            )
                else:
                    job = jobs[unit.job_index]
                    if failed:
                        if failure is None:
                            failure = ScenarioExecutionError(
                                unit.name, unit.params, doc["error"]
                            )
                    else:
                        if self.cache is not None:
                            self.cache.put(unit.name, unit.params, doc)
                        results[unit.job_index] = ScenarioResult(
                            name=unit.name,
                            params=job.params,
                            rows=list(doc["rows"]),
                            payload=doc.get("payload"),
                            value=None if value is _NO_VALUE else value,
                            cached=False,
                            duration_s=float(doc.get("duration_s", 0.0)),
                        )
                done_cost += unit.cost
                if tracer:
                    elapsed = time.perf_counter() - started
                    # Guard the ETA against degenerate inputs: a zero-cost
                    # unit (possible after adaptive re-costing), a finish
                    # inside one clock tick, or non-finite costs (recorded
                    # ``duration_s`` telemetry disagreeing with the static
                    # estimates) must report "unknown", not a division
                    # blow-up, a NaN, or a negative countdown.
                    eta = None
                    if done_cost > 0 and elapsed > 0:
                        eta = max(
                            elapsed * (total_cost - done_cost) / done_cost, 0.0
                        )
                        if not math.isfinite(eta):
                            eta = None
                    event: dict[str, Any] = {
                        "ev": "completed",
                        "uid": unit.uid,
                        "label": unit.label,
                        "duration_s": float(doc.get("duration_s", 0.0)),
                        "failed": failed,
                        "quarantined": bool(doc.get("quarantined")),
                        "worker": worker,
                        "done": done,
                        "total": total_units,
                        "eta_s": eta,
                    }
                    if telemetry is not None:
                        event["telemetry"] = telemetry
                    tracer.emit(event)
        except ChaosCrash as exc:
            # The injected coordinator death: record it in the journal so
            # the resume run disarms the crash, then let it surface — the
            # operator (or the CI script) restarts with --resume-journal.
            if journal is not None:
                journal.crash(str(exc))
                journal.close()
            tracer.emit(
                {
                    "ev": "run-end",
                    "wall_s": round(time.perf_counter() - started, 6),
                    "crashed": True,
                }
            )
            raise
        else:
            if journal is not None:
                journal.end()
            tracer.emit(
                {
                    "ev": "run-end",
                    "wall_s": round(time.perf_counter() - started, 6),
                    "crashed": False,
                }
            )
        finally:
            if journal is not None:
                journal.close()  # idempotent; covers non-chaos exits too
            if writer is not None:
                writer.close()

        failure = self._merge_shards(jobs, shard_states, results, failure)
        if failure is not None:
            raise failure
        return [results[i] for i in range(len(jobs))]

    def _merge_shards(
        self,
        jobs: list[_Job],
        shard_states: dict[int, _ShardState],
        results: dict[int, ScenarioResult],
        failure: ScenarioExecutionError | None,
    ) -> ScenarioExecutionError | None:
        """Fold completed cell sets into scenario results (and the cache)."""
        for i, state in sorted(shard_states.items()):
            if state.error is not None:
                continue  # cell failure already recorded; siblings are cached
            job = jobs[i]
            sc = job.scenario
            if state.quarantined:
                # Degraded completion: some cells were given up on, so no
                # merged value exists — but the sweep point still reports,
                # with every quarantined unit's label and traceback, and
                # every healthy sibling cell is already in the cache (a
                # later run with the poison fixed resumes from them). The
                # partial document is deliberately NOT cached: a cache hit
                # must always mean a complete result.
                quarantined = [
                    {"label": f"{sc.name}:{key}", "error": state.quarantined[key]}
                    for key in sorted(state.quarantined)
                ]
                rows = [
                    f"[degraded] {sc.name}: {len(quarantined)} of "
                    f"{len(state.plan)} cell(s) quarantined; no merged result"
                ]
                rows += [
                    quarantine_row(rec["label"], rec["error"])
                    for rec in quarantined
                ]
                computed = (
                    len(state.plan) - state.restored - len(state.quarantined)
                )
                results[i] = ScenarioResult(
                    name=sc.name,
                    params=job.params,
                    rows=rows,
                    payload=None,
                    value=None,
                    cached=False,
                    duration_s=sum(state.durations.values()),
                    cells=(computed, state.restored, len(state.plan)),
                    quarantined=quarantined,
                )
                continue
            try:
                values = [state.values[cell.key] for cell in state.plan]
                merged = sc.merge(values, **job.params)
                rows = sc.format(merged)
                try:
                    payload = to_jsonable(merged)
                except EncodeError:
                    payload = None
            except Exception:
                # Merge/format failures after a later job already failed
                # would otherwise vanish (only the first failure is
                # raised) — log every one with its scenario label.
                logger.warning(
                    "scenario %r merge failed (params=%r)",
                    sc.name,
                    job.params,
                    exc_info=True,
                )
                if failure is None:
                    failure = ScenarioExecutionError(
                        sc.name, job.params, traceback.format_exc()
                    )
                continue
            duration = sum(state.durations.values())
            computed = len(state.plan) - state.restored
            doc = {
                "scenario": sc.name,
                "params": job.params,
                "rows": rows,
                "payload": payload,
                "duration_s": duration,
                "cells": {"total": len(state.plan), "computed": computed},
            }
            if self.cache is not None:
                self.cache.put(sc.name, job.params, doc)
            results[i] = ScenarioResult(
                name=sc.name,
                params=job.params,
                rows=rows,
                payload=payload,
                value=merged,
                cached=computed == 0,
                duration_s=duration,
                cells=(computed, state.restored, len(state.plan)),
            )
        return failure
