"""Sweep tracing: per-unit span records, JSONL persistence, rendering.

Every unit of a Runner batch leaves a span through the stages it actually
passed: ``queued`` -> ``leased`` (distributed executor only, once per
attempt) -> ``completed`` (or quarantined). Cache restores emit
``cache-hit`` events instead of spans — a restored cell never ran. The
stream is append-only JSONL next to the run journal::

    <cache root>/_trace/<run key>.jsonl

one JSON object per line, ``{"ev": ..., "t": <unix seconds>}``:

``run-start``   batch begins: ``run`` key, ``units``, ``jobs``.
``cache-hit``   a doc/cell was restored, not executed: ``label``, ``kind``.
``queued``      a unit entered the schedule: ``uid``, ``label``, ``cost``.
``leased``      a distributed worker took the unit: ``uid``, ``worker``
                (repeats on re-lease, so span attempt counts are honest).
``released``    a lease died (worker lost); the unit re-queued.
``completed``   a result document landed: ``uid``, ``label``, ``worker``,
                ``duration_s``, ``failed``, ``quarantined``, ``done``/
                ``total``/``eta_s`` (the progress math), and — when
                telemetry is armed — the unit's engine metric
                ``telemetry`` snapshot (portable form).
``run-end``     the batch drained: ``wall_s``, ``crashed``.

Writers flush per event and tolerate a full disk the way the run journal
does (tracing degrades, the sweep survives); readers skip torn lines.
The Runner's ``--progress`` callback is a *sink over this same stream* —
``completed`` events carry everything a progress record needs, so the
stderr line and the trace file can never disagree.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "TRACE_DIR",
    "trace_path",
    "list_traces",
    "Tracer",
    "TraceWriter",
    "load_trace",
    "build_spans",
    "render_trace",
]

logger = logging.getLogger(__name__)

#: Subdirectory of the cache root holding trace streams; underscore-
#: prefixed like ``_journal`` so cache stats/ls never mistake it for a
#: scenario directory.
TRACE_DIR = "_trace"


def trace_path(cache_root: str | os.PathLike[str], run_key: str) -> Path:
    return Path(cache_root) / TRACE_DIR / f"{run_key}.jsonl"


def list_traces(cache_root: str | os.PathLike[str]) -> list[Path]:
    """Recorded trace files, most recent first."""
    root = Path(cache_root) / TRACE_DIR
    if not root.is_dir():
        return []
    paths = [p for p in root.glob("*.jsonl")]
    paths.sort(key=lambda p: (p.stat().st_mtime, p.name), reverse=True)
    return paths


class Tracer:
    """Fan one event stream out to zero or more sinks.

    With no sinks attached, :meth:`emit` is a single falsy check — the
    telemetry-off hot path through the Runner loop stays effectively
    free. Sink exceptions are logged and swallowed: a broken trace sink
    must degrade observability, never the sweep it observes.
    """

    def __init__(self) -> None:
        self._sinks: list[Callable[[dict[str, Any]], None]] = []

    def add_sink(self, sink: Callable[[dict[str, Any]], None]) -> None:
        self._sinks.append(sink)

    def __bool__(self) -> bool:
        return bool(self._sinks)

    def emit(self, event: dict[str, Any]) -> None:
        if not self._sinks:
            return
        if "t" not in event:
            event["t"] = round(time.time(), 6)
        for sink in self._sinks:
            try:
                sink(event)
            except Exception:
                logger.warning(
                    "trace sink %r failed on %r", sink, event.get("ev"),
                    exc_info=True,
                )


class TraceWriter:
    """Append-only JSONL writer for one run's trace file."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Any = open(self.path, "w", encoding="utf-8")
        self._warned = False

    def write(self, event: dict[str, Any]) -> None:
        if self._fh is None:
            return
        line = json.dumps(event, separators=(",", ":"), default=str)
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
        except (OSError, ValueError) as exc:
            if not self._warned:
                self._warned = True
                logger.warning(
                    "trace append failed (%s); tracing degraded for %s",
                    exc,
                    self.path,
                )

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def load_trace(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Decode one trace file; unparseable (torn) lines are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return []
    events: list[dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn append
        if isinstance(rec, dict):
            events.append(rec)
    return events


def build_spans(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold an event stream into per-unit spans plus run-level facts.

    Returns ``{"run": ..., "t0": ..., "wall_s": ..., "crashed": ...,
    "units": ..., "cache_hits": [...], "spans": {uid: span},
    "workers": {name: summary}}`` where each span carries ``label``,
    ``queued_t``, ``first_leased_t``, ``completed_t``, ``duration_s``,
    ``attempts`` (lease count, 1 for local/pool execution), ``worker``,
    ``failed``/``quarantined`` and the unit's ``telemetry`` snapshot when
    one was recorded.

    ``workers`` covers every worker that took a lease (empty for local
    and pool runs): ``units`` it completed, ``busy_s`` (the sum of their
    ``duration_s``), ``first_leased_t``, ``last_completed_t`` and
    ``span_s`` between the two (``None`` until it completes a unit).
    ``busy_s / span_s`` is the worker's busy share. It is deliberately
    not built from completed-to-next-lease gaps: ``completed`` is stamped
    when the Runner consumes a result, which can come after the
    coordinator has already leased that worker its next unit, so such a
    gap would measure a whole unit instead of the wire.
    """
    out: dict[str, Any] = {
        "run": None,
        "t0": None,
        "wall_s": None,
        "crashed": False,
        "units": None,
        "cache_hits": [],
        "spans": {},
        "workers": {},
    }
    spans: dict[int, dict[str, Any]] = {}
    workers: dict[str, dict[str, Any]] = out["workers"]

    def span(uid: int) -> dict[str, Any]:
        sp = spans.get(uid)
        if sp is None:
            sp = spans[uid] = {
                "uid": uid,
                "label": None,
                "queued_t": None,
                "first_leased_t": None,
                "completed_t": None,
                "duration_s": None,
                "attempts": 0,
                "worker": None,
                "failed": False,
                "quarantined": False,
                "telemetry": None,
            }
        return sp

    for ev in events:
        kind = ev.get("ev")
        t = ev.get("t")
        if kind == "run-start":
            out["run"] = ev.get("run")
            out["t0"] = t
            out["units"] = ev.get("units")
        elif kind == "cache-hit":
            out["cache_hits"].append(
                {"label": ev.get("label"), "kind": ev.get("kind")}
            )
        elif kind == "queued":
            sp = span(ev["uid"])
            sp["label"] = ev.get("label")
            sp["queued_t"] = t
        elif kind == "leased":
            sp = span(ev["uid"])
            sp["attempts"] += 1
            if sp["first_leased_t"] is None:
                sp["first_leased_t"] = t
            sp["worker"] = ev.get("worker")
            if sp["worker"] and sp["worker"] not in workers:
                workers[sp["worker"]] = {
                    "units": 0,
                    "busy_s": 0.0,
                    "first_leased_t": t,
                    "last_completed_t": None,
                    "span_s": None,
                }
        elif kind == "completed":
            sp = span(ev["uid"])
            sp["label"] = ev.get("label", sp["label"])
            sp["completed_t"] = t
            sp["duration_s"] = ev.get("duration_s")
            sp["failed"] = bool(ev.get("failed"))
            sp["quarantined"] = bool(ev.get("quarantined"))
            if ev.get("worker"):
                sp["worker"] = ev["worker"]
            w = workers.get(sp["worker"])
            if w is not None:
                w["units"] += 1
                w["busy_s"] += sp["duration_s"] or 0.0
                w["last_completed_t"] = t
                w["span_s"] = t - w["first_leased_t"]
            if sp["attempts"] == 0:
                sp["attempts"] = 1  # local/pool execution: no lease events
            if "telemetry" in ev:
                sp["telemetry"] = ev["telemetry"]
        elif kind == "run-end":
            out["wall_s"] = ev.get("wall_s")
            out["crashed"] = bool(ev.get("crashed"))
    out["spans"] = spans
    return out


def _fmt_t(t: float | None, t0: float | None) -> str:
    if t is None or t0 is None:
        return "      ?"
    return f"+{t - t0:6.2f}s"


def render_trace(events: Iterable[dict[str, Any]]) -> list[str]:
    """Human view of one trace: timeline, stragglers, critical path, workers."""
    doc = build_spans(events)
    spans = sorted(
        doc["spans"].values(),
        key=lambda s: (s["completed_t"] is None, s["completed_t"] or 0.0),
    )
    t0 = doc["t0"]
    run = (doc["run"] or "?")[:12]
    header = f"trace {run} — {doc['units'] if doc['units'] is not None else '?'} unit(s)"
    if doc["cache_hits"]:
        header += f", {len(doc['cache_hits'])} cache hit(s)"
    if doc["wall_s"] is not None:
        header += f", wall {doc['wall_s']:.2f}s"
    if doc["crashed"]:
        header += " [CRASHED]"
    rows = [header]
    rows.append(
        f"{'queued':>8s} {'done':>8s} {'dur':>7s} {'att':>3s} "
        f"{'state':>11s}  {'worker':<18s} label"
    )
    for sp in spans:
        state = (
            "quarantined"
            if sp["quarantined"]
            else "FAILED"
            if sp["failed"]
            else "completed"
            if sp["completed_t"] is not None
            else "incomplete"
        )
        dur = f"{sp['duration_s']:.2f}s" if sp["duration_s"] is not None else "?"
        rows.append(
            f"{_fmt_t(sp['queued_t'], t0):>8s} "
            f"{_fmt_t(sp['completed_t'], t0):>8s} {dur:>7s} "
            f"{sp['attempts']:>3d} {state:>11s}  "
            f"{(sp['worker'] or '-'):<18s} {sp['label'] or '?'}"
        )
    finished = [s for s in spans if s["completed_t"] is not None]
    if finished:
        stragglers = sorted(
            (s for s in finished if s["duration_s"] is not None),
            key=lambda s: -s["duration_s"],
        )[:3]
        if stragglers:
            rows.append(
                "stragglers: "
                + ", ".join(
                    f"{s['label']} ({s['duration_s']:.2f}s)" for s in stragglers
                )
            )
        last = max(finished, key=lambda s: s["completed_t"])
        wait = None
        if last["queued_t"] is not None:
            ran = last["duration_s"] or 0.0
            wait = max(0.0, last["completed_t"] - last["queued_t"] - ran)
        crit = (
            f"critical path: {last['label']} finished last"
            f" at {_fmt_t(last['completed_t'], t0).strip()}"
        )
        if wait is not None:
            crit += (
                f" (waited {wait:.2f}s, ran "
                f"{last['duration_s'] or 0.0:.2f}s, "
                f"{last['attempts']} attempt(s)"
                + (f" on {last['worker']}" if last["worker"] else "")
                + ")"
            )
        rows.append(crit)
    if doc["workers"]:
        rows.append(
            "worker busy share (run time over first lease -> last completion):"
        )
        for name, w in sorted(doc["workers"].items()):
            if w["span_s"]:
                share = (
                    f"{w['busy_s']:7.2f}s / {w['span_s']:7.2f}s "
                    f"{100.0 * w['busy_s'] / w['span_s']:4.0f}% busy"
                )
            else:
                share = "no completed unit"
            rows.append(f"  {name:<24s} {w['units']:4d} unit(s)  {share}")
    telem = [s["telemetry"] for s in spans if s.get("telemetry")]
    if telem:
        from .metrics import merge_snapshots, validate_snapshot

        merged = merge_snapshots(validate_snapshot(t) for t in telem)
        events_n = merged["counters"].get("engine.events", 0)
        hops = merged["counters"].get("port.sent_packets", 0)
        drops = merged["counters"].get(
            "drops.queue_overflow", 0
        ) + merged["counters"].get("drops.failure_blackhole", 0)
        rows.append(
            f"engine telemetry ({len(telem)} unit(s)): "
            f"{events_n:,} events, {hops:,} packet hops, {drops:,} drops"
        )
    return rows
