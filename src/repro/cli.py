"""Command-line interface over the scenario registry.

Usage::

    python -m repro.cli list [--tag analysis]
    python -m repro.cli run fig04 fig16 --workers 4
    python -m repro.cli run --tag analysis
    python -m repro.cli run fig04 --set k=12 --set n_slices=9 --no-cache
    python -m repro.cli sweep fig04 --set k=8,12,16 --workers 4
    python -m repro.cli run fig07 --executor distributed --workers 2
    python -m repro.cli run fig07 --listen 0.0.0.0:7077 --workers 0
    python -m repro.cli worker HOST:7077
    python -m repro.cli cache stats
    python -m repro.cli run fig07 --telemetry --workers 4
    python -m repro.cli trace latest
    python -m repro.cli status HOST:7077
    python -m repro.cli serve 0.0.0.0:7077 --workers 4 --secret-file s.key
    python -m repro.cli submit HOST:7077 fig04 --set k=8,12
    python -m repro.cli jobs HOST:7077
    python -m repro.cli cancel HOST:7077 job-0001
    python -m repro.cli cancel HOST:7077 --drain

``run`` accepts scenario names (globs work: ``'fig1*'``) and/or ``--tag``
selections and executes them through the shared :class:`repro.scenarios.Runner`
— the same code path the pytest benchmarks use — with a multiprocessing
worker pool (``--workers``) and a content-addressed result cache (default
``~/.cache/opera-repro``; override with ``--cache-dir`` or
``$REPRO_CACHE_DIR``, skip reads with ``--no-cache``, disable entirely with
``--cache-dir ''``). ``sweep`` runs one scenario over the cartesian grid of
comma-separated ``--set`` values.

Sharded scenarios (fig07/fig09/fig10/fig11 and the ablations) decompose
into per-cell jobs that fan out across the worker pool and are cached
individually — an interrupted run resumes from its completed cells. A
progress stream (``[done/total] scenario:cell (dur [@worker]) — eta``)
goes to stderr when it is a terminal; force it with ``--progress``.

``--executor distributed`` leases those same units to TCP workers
instead: ``--workers N`` forks N local workers from the ``repro``
process, and ``--listen HOST:PORT`` (which implies the executor) accepts
external ``repro worker HOST:PORT`` processes — see README "Distributed
execution". ``cache`` inspects the content-addressed result/cell cache
(``stats`` | ``ls <scenario>`` | ``clear [scenario]``).

Fault tolerance (README "Fault tolerance & chaos testing"): ``--chaos
SPEC`` arms the seeded fault-injection harness for the run (and its
workers), ``--policy degraded`` quarantines failed units into the
result instead of failing the sweep, and ``--resume-journal`` resumes a
crashed distributed run from its write-ahead journal — an injected
coordinator crash exits with status 3 and prints the resume command.

Service mode (README "Running as a service"): ``serve`` runs a
long-lived multi-sweep coordinator with a job queue; ``submit`` sends a
sweep to it (``sweep`` semantics over the wire — rows come back bitwise
identical to an in-process run), ``jobs`` lists its job table, and
``cancel`` cancels one job or drains the whole service. A shared secret
(``--secret-file`` or ``$REPRO_SECRET``) arms HMAC authentication on
every connection.

Observability (README "Observability"): ``--telemetry`` arms engine
metrics + sweep tracing for the run (``REPRO_TELEMETRY=1``; simulated
results stay bit-identical), ``trace`` renders a recorded run's per-unit
timeline from ``<cache>/_trace/``, ``status`` polls a live distributed
coordinator's cached snapshot, and a global ``-v/--verbose`` flag turns
on module logging (``-v`` INFO, ``-vv`` DEBUG).

The legacy spelling ``python -m repro.cli fig04 [--k 12]`` still works and
maps onto ``run``.
"""

from __future__ import annotations

import argparse
import math
import sys

from .distrib.chaos import ChaosCrash
from .scenarios import (
    Progress,
    ResultCache,
    Runner,
    ScenarioError,
    ScenarioExecutionError,
    all_scenarios,
    all_tags,
)

__all__ = ["main"]


def _format_eta(seconds: float) -> str:
    if not math.isfinite(seconds):
        return "?"
    if seconds >= 90:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _progress_printer(event: Progress) -> None:
    """One stderr line per finished unit: ``[done/total] label — eta``.

    Remote completions carry the worker's name, so a distributed run's
    ``[done/total]`` line accounts for every unit wherever it ran. The
    ETA is omitted (not printed as garbage) when the Runner could not
    compute one — e.g. a zero-duration first unit.

    The record goes out as ONE ``write()`` call, newline included:
    ``print()`` writes the text and the line terminator separately, and
    with several workers completing units concurrently (each process's
    stderr pointed at the same pipe) the interleaving tore lines apart
    mid-record. A single ``write`` of a complete line is atomic enough
    for a pipe (< ``PIPE_BUF``) — ``tests/test_cli.py`` pins this shape.
    """
    status = "FAILED" if event.failed else f"{event.duration_s:.1f}s"
    if event.worker:
        status += f" @{event.worker}"
    eta = (
        f" — eta {_format_eta(event.eta_s)}"
        if event.eta_s is not None and event.done < event.total
        else ""
    )
    sys.stderr.write(
        f"[{event.done}/{event.total}] {event.label} ({status}){eta}\n"
    )
    sys.stderr.flush()


def _parse_sets(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ScenarioError(f"--set expects key=value, got {pair!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _print_listen_banner(address: tuple[str, int]) -> None:
    host, port = address
    # A wildcard bind is not a dialable address; tell the operator to
    # substitute something reachable instead of letting them paste
    # 0.0.0.0 into a remote terminal.
    dial = "<coordinator-host>" if host in ("0.0.0.0", "::", "") else host
    print(
        f"[distrib] coordinator listening on {host}:{port} — attach workers "
        f"with: repro worker {dial}:{port}",
        file=sys.stderr,
        flush=True,
    )


def _make_runner(args: argparse.Namespace) -> Runner:
    cache: ResultCache | None
    if args.cache_dir == "":
        cache = None
    else:
        cache = ResultCache(args.cache_dir)  # None -> default location
    show_progress = (
        args.progress
        if args.progress is not None
        else sys.stderr.isatty()
    )
    executor = args.executor
    if executor is None and args.listen is not None:
        executor = "distributed"  # --listen only means one thing
    service = getattr(args, "service", None)
    if executor is None and service is not None:
        executor = "service"  # --service only means one thing
    secret = None
    if executor == "service":
        from .distrib import AuthError, load_secret

        try:
            secret = load_secret(getattr(args, "secret_file", None))
        except AuthError as exc:
            raise ScenarioError(str(exc)) from None
    if getattr(args, "chaos", None):
        # Validate the spec *here* (a typo must fail the command, not
        # silently run a different experiment), then publish it through
        # the environment — the injector seam in repro.distrib reads it,
        # and forked workers inherit it.
        import os

        from .distrib import ChaosError, parse_chaos

        try:
            parse_chaos(args.chaos)
        except ChaosError as exc:
            raise ScenarioError(str(exc)) from None
        os.environ["REPRO_CHAOS"] = args.chaos
    if getattr(args, "telemetry", False):
        # Published through the environment like --chaos: pool and TCP
        # workers inherit it, so every unit of the run reports metrics.
        import os

        os.environ["REPRO_TELEMETRY"] = "1"
    try:
        return Runner(
            workers=args.workers,
            cache=cache,
            use_cache=not args.no_cache,
            base_seed=args.seed,
            progress=_progress_printer if show_progress else None,
            executor=executor,
            listen=args.listen,
            service=service,
            secret=secret,
            on_listen=_print_listen_banner if executor == "distributed" else None,
            policy=getattr(args, "policy", "strict"),
            resume_journal=getattr(args, "resume_journal", False),
            lease_timeout=getattr(args, "lease_timeout", 60.0),
            max_respawns=getattr(args, "max_respawns", 8),
            max_cell_attempts=getattr(args, "max_cell_attempts", 3),
        )
    except ValueError as exc:  # bad executor/listen combination
        raise ScenarioError(str(exc)) from None


def _print_results(results, quiet: bool) -> None:
    for res in results:
        sc_note = " [cached]" if res.cached else f" [{res.duration_s:.2f}s]"
        if res.cells is not None and not res.cached:
            computed, restored, total = res.cells
            detail = f"{computed} run"
            if restored:
                detail += f" + {restored} cached"
            sc_note = f"{sc_note[:-1]}; cells: {detail} / {total}]"
        print(f"=== {res.name}{sc_note} params={res.params} ===")
        if not quiet:
            for row in res.rows:
                print(row)


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = all_scenarios()
    if args.tag:
        scenarios = [sc for sc in scenarios if any(t in sc.tags for t in args.tag)]
    for sc in scenarios:
        tags = ",".join(sc.tags)
        print(f"{sc.name:>7s}  {sc.cost:>6s}  [{tags}]  {sc.description}")
    if not args.tag:
        print(f"\ntags: {', '.join(all_tags())}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    if not args.names and not args.tag:
        print("nothing selected: give scenario names and/or --tag", file=sys.stderr)
        return 2
    results = runner.run(
        names=args.names, tags=args.tag, overrides=_parse_sets(args.set)
    )
    _print_results(results, args.quiet)
    return 0


def _grid_values(sc, key: str, text: str) -> list:
    """One ``--set`` value -> the grid points it contributes to a sweep.

    Commas separate grid points (``--set k=8,12`` is two runs). For a
    tuple-typed parameter each comma element is its own one-element-tuple
    point (``--set radices=12,16`` sweeps (12,) then (16,)); semicolons
    group multi-element tuples (``--set radices=12,16;24,32`` sweeps
    (12, 16) then (24, 32), and a trailing ``;`` pins one whole tuple:
    ``--set 'networks=opera,clos;'``).
    """
    if key not in sc.params:
        # Unknown keys surface through bind()'s strict validation with the
        # scenario's accepted-parameter list, not a KeyError here.
        return [text]
    param = sc.params[key]
    if ";" in text:
        return [param.coerce(group) for group in text.split(";") if group.strip()]
    return [param.coerce(v) for v in text.split(",")]


def _cmd_sweep(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    sets = _parse_sets(args.set)
    if not sets:
        print("sweep needs at least one --set key=v1,v2,...", file=sys.stderr)
        return 2
    from .scenarios import get

    sc = get(args.name)
    grid = {key: _grid_values(sc, key, value) for key, value in sets.items()}
    results = runner.sweep(args.name, grid)
    _print_results(results, args.quiet)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .distrib import AuthError, load_secret
    from .distrib.worker import AUTH_EXIT, serve

    try:
        return serve(
            args.address,
            connect_timeout=args.connect_timeout,
            secret=load_secret(args.secret_file),
        )
    except AuthError as exc:
        print(f"worker auth error: {exc}", file=sys.stderr)
        return AUTH_EXIT
    except (OSError, ValueError) as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 1


def _format_bytes(n: int) -> str:
    value = float(n)
    for suffix in ("B", "KB", "MB", "GB"):
        if value < 1024 or suffix == "GB":
            return f"{value:.1f}{suffix}" if suffix != "B" else f"{n}B"
        value /= 1024
    return f"{n}B"


def _print_run_file_stats(run_files: dict) -> None:
    """Journal/trace inventory lines under the per-scenario table.

    Run files are not cache entries (they are not content-addressed and
    never restore results), so they get their own lines, with the oldest
    age shown — the signal that a scenario-scoped ``cache clear`` (which
    GCs run files stale past a week) or a full clear is due.
    """
    from .scenarios.cache import STALE_RUN_FILE_S

    for dirname in sorted(run_files):
        entry = run_files[dirname]
        oldest = entry["oldest_age_s"]
        stale = (
            "  (stale; 'repro cache clear' collects)"
            if oldest is not None and oldest > STALE_RUN_FILE_S
            else ""
        )
        kind = "journal" if dirname == "_journal" else "trace"
        print(
            f"{dirname:>22s}  {entry['files']:4d} {kind}(s)  "
            f"{_format_bytes(entry['bytes'])}  oldest {_format_age(oldest)}"
            f"{stale}"
        )


def _format_age(seconds: float | None) -> str:
    if seconds is None:
        return "?"
    if seconds >= 48 * 3600:
        return f"{seconds / 86400:.1f}d"
    if seconds >= 90 * 60:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 90:
        return f"{seconds / 60:.0f}m"
    return f"{seconds:.0f}s"


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_dir == "":
        print("cache: nothing to inspect with the cache disabled", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        run_files = cache.run_file_stats()
        print(f"cache root: {cache.root}")
        if not stats:
            if run_files:
                _print_run_file_stats(run_files)
            else:
                print("(empty)")
            return 0
        total_results = total_cells = total_bytes = total_corrupt = 0
        for name, entry in stats.items():
            corrupt = entry.get("corrupt", 0)
            note = f"  {corrupt} corrupt!" if corrupt else ""
            print(
                f"{name:>22s}  {entry['results']:4d} result(s)  "
                f"{entry['cells']:5d} cell(s)  "
                f"{_format_bytes(entry['bytes'])}{note}"
            )
            total_results += entry["results"]
            total_cells += entry["cells"]
            total_bytes += entry["bytes"]
            total_corrupt += corrupt
        note = f"  {total_corrupt} corrupt!" if total_corrupt else ""
        print(
            f"{'total':>22s}  {total_results:4d} result(s)  "
            f"{total_cells:5d} cell(s)  {_format_bytes(total_bytes)}{note}"
        )
        if total_corrupt:
            print(
                "(corrupt entries were quarantined as *.corrupt and will "
                "be recomputed; 'repro cache clear' removes them)",
                file=sys.stderr,
            )
        _print_run_file_stats(run_files)
        return 0
    if args.action == "ls":
        if not args.scenario:
            print("cache ls needs a scenario name", file=sys.stderr)
            return 2
        entries = cache.entries(args.scenario)
        if not entries:
            print(f"(no cache entries for {args.scenario!r})")
            return 0
        for entry in entries:
            doc = entry["doc"]
            label = doc.get("cell") if entry["kind"] == "cell" else "merged"
            duration = doc.get("duration_s")
            status = "ERROR" if "error" in doc else (
                f"{duration:.2f}s" if isinstance(duration, (int, float)) else "-"
            )
            params = cache.params_json(doc.get("params", {}))
            if len(params) > 60:
                params = params[:57] + "..."
            print(
                f"{entry['kind']:>6s}  {entry['path'].stem[:12]}  "
                f"{label or '-':>18s}  {status:>8s}  {params}"
            )
        return 0
    # clear
    removed = cache.clear(args.scenario)
    scope = f"scenario {args.scenario!r}" if args.scenario else "all scenarios"
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} ({scope})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.cache_dir == "":
        print("trace: traces live under the cache root, which is disabled",
              file=sys.stderr)
        return 2
    import json

    from .obs.trace import build_spans, list_traces, load_trace, render_trace

    cache = ResultCache(args.cache_dir)
    traces = list_traces(cache.root)
    if not args.run:
        if not traces:
            print(f"(no recorded traces under {cache.root}; arm telemetry "
                  "with --telemetry or REPRO_TELEMETRY=1)")
            return 0
        for path in traces:
            doc = build_spans(load_trace(path))
            units = doc["units"] if doc["units"] is not None else len(doc["spans"])
            wall = f"{doc['wall_s']:.2f}s" if doc["wall_s"] is not None else "?"
            state = "CRASHED" if doc["crashed"] else "done"
            print(
                f"{path.stem[:12]}  {units:4d} unit(s)  "
                f"{len(doc['cache_hits']):4d} hit(s)  {wall:>8s}  {state}"
            )
        return 0
    if args.run == "latest":
        path = traces[0] if traces else None
    else:
        path = next((p for p in traces if p.stem.startswith(args.run)), None)
    if path is None:
        print(f"trace: no recorded trace matches {args.run!r}", file=sys.stderr)
        return 2
    events = load_trace(path)
    if args.json:
        for event in events:
            print(json.dumps(event, sort_keys=True))
        return 0
    for line in render_trace(events):
        print(line)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from .distrib import AuthError, load_secret
    from .distrib.protocol import ProtocolError, fetch_status

    try:
        secret = load_secret(args.secret_file)
        status = fetch_status(args.address, timeout=args.timeout, secret=secret)
    except (OSError, ValueError, ProtocolError, AuthError) as exc:
        print(f"status error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    done = status.get("completed", 0)
    total = status.get("units_total", 0)
    rate = status.get("units_per_sec")
    notes = []
    if status.get("auth"):
        notes.append("authenticated")
    if status.get("draining"):
        notes.append("DRAINING")
    print(
        f"coordinator {args.address} — {status.get('state', '?')}: "
        f"{done}/{total} done, {status.get('in_flight', 0)} in flight, "
        f"{status.get('pending', 0)} pending"
        + (f", {rate:.2f} units/s" if isinstance(rate, (int, float)) else "")
        + (f"  [{', '.join(notes)}]" if notes else "")
    )
    jobs = status.get("jobs")
    if isinstance(jobs, list) and jobs:
        print(f"jobs: {len(jobs)}")
        for job in jobs:
            _print_job_line(job)
    workers = status.get("workers", [])
    print(
        f"workers: {len(workers)} connected, "
        f"{status.get('workers_seen', 0)} ever seen; "
        f"releases {status.get('releases', 0)}, "
        f"quarantined {status.get('quarantined', 0)}"
    )
    for w in workers:
        if w.get("lease_uid") is not None:
            state = f"unit {w['lease_uid']}"
            if w.get("lease_age_s") is not None:
                state += f" for {w['lease_age_s']:.1f}s"
        else:
            state = "ready" if w.get("ready") else "idle"
        print(f"  {w.get('worker', '?'):<24s} {state:<20s} "
              f"silent {w.get('silent_s', 0):.1f}s")
    extra = status.get("extra")
    if isinstance(extra, dict):
        hits = extra.get("cache_hits", {})
        print(
            f"run {extra.get('run', '?')}: {extra.get('jobs', '?')} job(s), "
            f"cache hits {hits.get('docs', 0)} doc(s) + {hits.get('cells', 0)} "
            f"cell(s)"
        )
    return 0


def _print_job_line(job: dict) -> None:
    """One job-table row, shared by ``status`` and ``jobs``."""
    done = job.get("completed", 0)
    total = job.get("units", 0)
    state = job.get("state", "?")
    label = job.get("label") or "-"
    if len(label) > 40:
        label = label[:37] + "..."
    print(
        f"  {job.get('job', '?'):>9s}  {state:>9s}  {done:4d}/{total:<4d}  "
        f"{_format_age(job.get('age_s'))} old  [{job.get('source', '?')}] "
        f"{label}"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .distrib import (
        AuthError,
        Coordinator,
        Fleet,
        load_secret,
        parse_address,
    )
    from .distrib.journal import RunJournal, journal_path

    try:
        secret = load_secret(args.secret_file)
        host, port = parse_address(args.address)
    except (AuthError, ValueError) as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    cache = None if args.cache_dir == "" else ResultCache(args.cache_dir)

    def journal_factory(job):
        # Per-job write-ahead journals under the service's cache root:
        # a job resubmitted after a coordinator restart finds its grant/
        # completion history under the same run key.
        if cache is None:
            return None
        key = job.run_key or job.jid
        journal = RunJournal(journal_path(cache.root, key))
        journal.start(key, job.total)
        return journal

    try:
        coordinator = Coordinator(
            host,
            port,
            lease_timeout=args.lease_timeout,
            secret=secret,
            max_jobs=args.max_jobs,
            # Service mode faces the network, so the peer ledger is
            # armed: repeated garbage from one host gets it banned, and
            # reconnect storms are shed at accept time.
            ban_after=5,
            journal_factory=journal_factory,
        )
    except OSError as exc:
        print(f"serve error: cannot bind {args.address}: {exc}", file=sys.stderr)
        return 2
    _print_listen_banner(coordinator.address)
    bind_host, bind_port = coordinator.address
    dial = "<host>" if bind_host in ("0.0.0.0", "::", "") else bind_host
    print(
        f"[serve] job queue up (max {args.max_jobs} active, auth "
        f"{'armed' if secret else 'OFF — loopback/trusted networks only'}); "
        f"submit with: repro submit {dial}:{bind_port} <scenario> --set ...",
        file=sys.stderr,
        flush=True,
    )

    fleet = Fleet(
        coordinator.address, max_respawns=args.max_respawns, secret=secret
    )

    # Like worker.serve(): the previous SIGTERM disposition comes back on
    # exit so an embedding process (and anything it later forks) is not
    # left with a drain hook pointed at a dead coordinator.
    prev_handler = None
    handler_installed = False
    try:
        prev_handler = signal.signal(
            signal.SIGTERM, lambda *_: coordinator.drain()
        )
        handler_installed = True
    except ValueError:
        pass  # not the main thread (embedded use)
    try:
        fleet.start(args.workers)
        # Keep the fleet at strength while the service is live; a
        # draining service lets its workers run out instead.
        coordinator.serve_forever(
            (lambda coord: fleet.maintain(replace=not coord.draining))
            if args.workers
            else None
        )
        return 0
    except KeyboardInterrupt:
        print(
            "[serve] interrupted — jobs abandoned; use SIGTERM or "
            "'repro cancel --drain' for a graceful drain",
            file=sys.stderr,
        )
        return 130
    finally:
        if handler_installed:
            signal.signal(signal.SIGTERM, prev_handler)
        fleet.close(timeout=10)  # SIGTERM -> each worker drains and exits


def _cmd_submit(args: argparse.Namespace) -> int:
    # `submit HOST:PORT scenario` is `sweep scenario --service HOST:PORT`:
    # the sweep grid is built client-side, units are executed by the
    # service's fleet, and rows merge/cache/print locally — bitwise
    # identical to running the sweep in-process.
    args.service = args.address
    args.executor = "service"
    args.listen = None
    return _cmd_sweep(args)


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from .distrib import AuthError, ServiceError, fetch_jobs, load_secret
    from .distrib.protocol import ProtocolError

    try:
        secret = load_secret(args.secret_file)
        table = fetch_jobs(args.address, secret=secret, timeout=args.timeout)
    except (OSError, ValueError, ProtocolError, AuthError, ServiceError) as exc:
        print(f"jobs error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(table, indent=2, sort_keys=True))
        return 0
    jobs = table["jobs"]
    drain = "  [DRAINING — no new submissions]" if table["draining"] else ""
    if not jobs:
        print(f"coordinator {args.address}: no jobs{drain}")
        return 0
    print(f"coordinator {args.address}: {len(jobs)} job(s){drain}")
    for job in jobs:
        _print_job_line(job)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from .distrib import AuthError, ServiceError, cancel_job, load_secret
    from .distrib.protocol import ProtocolError

    if not args.drain and args.job is None:
        print("cancel needs a job id or --drain", file=sys.stderr)
        return 2
    try:
        secret = load_secret(args.secret_file)
        reply = cancel_job(
            args.address,
            args.job,
            drain=args.drain,
            secret=secret,
            timeout=args.timeout,
        )
    except (OSError, ValueError, ProtocolError, AuthError, ServiceError) as exc:
        print(f"cancel error: {exc}", file=sys.stderr)
        return 1
    if args.drain:
        jobs = reply.get("jobs", [])
        running = sum(1 for j in jobs if j.get("state") in ("running", "queued"))
        print(
            f"coordinator {args.address} draining: {running} job(s) still "
            "finishing; the serve loop exits when the queue is idle"
        )
        return 0
    print(
        f"job {reply.get('job', args.job)}: {reply.get('state', '?')} "
        f"({reply.get('completed', 0)}/{reply.get('units', 0)} units kept)"
    )
    return 0


def _add_verbose_option(sub: argparse.ArgumentParser) -> None:
    # Every subparser re-declares -v under its own dest: argparse would
    # otherwise reset the main parser's count with the subparser default.
    # main() sums both, so '-v run' and 'run -v' mean the same thing.
    sub.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        dest="verbose_sub",
        help="module logging to stderr (-v = INFO, -vv = DEBUG)",
    )


def _add_exec_options(sub: argparse.ArgumentParser) -> None:
    _add_verbose_option(sub)
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="parameter override (repeatable); sweep takes comma lists",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count: pool size (>1 enables multiprocessing), or how "
        "many local workers a distributed run forks (0 = external "
        "workers only)",
    )
    sub.add_argument(
        "--executor",
        choices=("local", "pool", "distributed", "service"),
        default=None,
        help="execution backend (default: pool when --workers > 1, else "
        "local; distributed leases units to TCP workers; service submits "
        "to a running 'repro serve' coordinator)",
    )
    sub.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="distributed coordinator address for external 'repro worker' "
        "processes (implies --executor distributed; port 0 = ephemeral)",
    )
    sub.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT",
        help="address of a running 'repro serve' coordinator to execute "
        "on (implies --executor service)",
    )
    sub.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the service's shared secret (default: "
        "$REPRO_SECRET; only used with --executor service)",
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore cached results (fresh runs are still stored)",
    )
    sub.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default ~/.cache/opera-repro); '' disables the cache",
    )
    sub.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed; scenarios taking a seed get a derived per-scenario one",
    )
    sub.add_argument(
        "--quiet", action="store_true", help="print headers only, not rows"
    )
    progress = sub.add_mutually_exclusive_group()
    progress.add_argument(
        "--progress",
        action="store_true",
        default=None,
        help="print per-unit progress (cells done/total, ETA) to stderr "
        "(default: only when stderr is a terminal)",
    )
    progress.add_argument(
        "--no-progress",
        dest="progress",
        action="store_false",
        help="suppress the progress stream",
    )
    sub.add_argument(
        "--telemetry",
        action="store_true",
        help="arm engine/sweep telemetry for this run and its spawned "
        "workers (sets REPRO_TELEMETRY=1): per-unit metric snapshots and "
        "a JSONL trace under the cache root, rendered by 'repro trace'. "
        "Simulated results are bit-identical with or without it",
    )
    sub.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="arm deterministic fault injection, e.g. "
        "'seed=3,kill_worker=0.2,drop_frame=0.1,crash_coordinator=after_5' "
        "(sets REPRO_CHAOS for this run and its spawned workers)",
    )
    sub.add_argument(
        "--policy",
        choices=("strict", "degraded"),
        default="strict",
        help="completion policy: strict fails the run on the first bad "
        "unit (after the batch drains); degraded quarantines bad units "
        "into the result rows and completes everything else",
    )
    sub.add_argument(
        "--resume-journal",
        action="store_true",
        help="resume a crashed distributed run from its write-ahead "
        "journal (honors prior quarantines; disarms an injected "
        "coordinator crash)",
    )
    sub.add_argument(
        "--lease-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="silence (no heartbeat, no result) before a distributed "
        "worker's lease is re-queued (default 60)",
    )
    sub.add_argument(
        "--max-respawns",
        type=int,
        default=8,
        metavar="N",
        help="budget for replacing forked local workers that die while "
        "leased work remains (default 8; raise under kill_worker chaos)",
    )
    sub.add_argument(
        "--max-cell-attempts",
        type=int,
        default=3,
        metavar="N",
        help="distinct worker losses one unit survives before it is "
        "declared poison (default 3; raise under kill_worker chaos)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Opera reproduction scenario runner"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        dest="verbose_main",
        help="module logging to stderr (-v = INFO, -vv = DEBUG)",
    )
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--tag", action="append", default=[], help="filter by tag")
    _add_verbose_option(p_list)
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run scenarios by name/glob/tag")
    p_run.add_argument("names", nargs="*", help="scenario names or globs")
    p_run.add_argument("--tag", action="append", default=[], help="select by tag")
    _add_exec_options(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid-sweep one scenario's parameters")
    p_sweep.add_argument("name", help="scenario name")
    _add_exec_options(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_worker = sub.add_parser(
        "worker", help="attach a distributed worker to a coordinator"
    )
    p_worker.add_argument("address", metavar="HOST:PORT", help="coordinator address")
    p_worker.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the initial connection (default 30)",
    )
    p_worker.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the coordinator's shared secret (default: "
        "$REPRO_SECRET)",
    )
    _add_verbose_option(p_worker)
    p_worker.set_defaults(fn=_cmd_worker)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the result/cell cache"
    )
    p_cache.add_argument("action", choices=("stats", "ls", "clear"))
    p_cache.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario to list (required for ls) or clear (default: all)",
    )
    p_cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default ~/.cache/opera-repro or $REPRO_CACHE_DIR)",
    )
    _add_verbose_option(p_cache)
    p_cache.set_defaults(fn=_cmd_cache)

    p_trace = sub.add_parser(
        "trace", help="render a recorded sweep trace (per-unit timeline)"
    )
    p_trace.add_argument(
        "run",
        nargs="?",
        default=None,
        help="run-key prefix or 'latest'; omit to list recorded traces",
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="dump the raw span events as JSON lines instead of rendering",
    )
    p_trace.add_argument(
        "--cache-dir",
        default=None,
        help="cache root holding the _trace/ directory (default "
        "~/.cache/opera-repro or $REPRO_CACHE_DIR)",
    )
    _add_verbose_option(p_trace)
    p_trace.set_defaults(fn=_cmd_trace)

    p_status = sub.add_parser(
        "status", help="poll a live distributed coordinator's status"
    )
    p_status.add_argument(
        "address", metavar="HOST:PORT", help="coordinator address"
    )
    p_status.add_argument(
        "--json", action="store_true", help="print the raw snapshot as JSON"
    )
    p_status.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="connect/read timeout in seconds (default 5)",
    )
    p_status.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the coordinator's shared secret (default: "
        "$REPRO_SECRET)",
    )
    _add_verbose_option(p_status)
    p_status.set_defaults(fn=_cmd_status)

    p_serve = sub.add_parser(
        "serve",
        help="run a long-lived multi-sweep coordinator service",
    )
    p_serve.add_argument(
        "address", metavar="HOST:PORT", help="listen address (port 0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="local workers to fork and keep at strength "
        "(default 0: external 'repro worker' processes only)",
    )
    p_serve.add_argument(
        "--max-jobs",
        type=int,
        default=8,
        help="concurrently active jobs admitted before submissions are "
        "refused (default 8)",
    )
    p_serve.add_argument(
        "--lease-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="silence before a worker's lease is re-queued (default 60)",
    )
    p_serve.add_argument(
        "--max-respawns",
        type=int,
        default=8,
        metavar="N",
        help="budget for replacing forked workers that die (default 8)",
    )
    p_serve.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the shared secret that workers and clients "
        "must present (default: $REPRO_SECRET; unset = unauthenticated)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="cache root for per-job journals (default ~/.cache/opera-repro "
        "or $REPRO_CACHE_DIR; '' disables journaling)",
    )
    _add_verbose_option(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running 'repro serve' coordinator",
    )
    p_submit.add_argument(
        "address", metavar="HOST:PORT", help="coordinator address"
    )
    p_submit.add_argument("name", help="scenario name")
    _add_exec_options(p_submit)
    p_submit.set_defaults(fn=_cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list a service coordinator's job table"
    )
    p_jobs.add_argument(
        "address", metavar="HOST:PORT", help="coordinator address"
    )
    p_jobs.add_argument(
        "--json", action="store_true", help="print the raw job table as JSON"
    )
    p_jobs.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="connect/read timeout in seconds (default 10)",
    )
    p_jobs.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the coordinator's shared secret (default: "
        "$REPRO_SECRET)",
    )
    _add_verbose_option(p_jobs)
    p_jobs.set_defaults(fn=_cmd_jobs)

    p_cancel = sub.add_parser(
        "cancel", help="cancel a job, or drain the whole service"
    )
    p_cancel.add_argument(
        "address", metavar="HOST:PORT", help="coordinator address"
    )
    p_cancel.add_argument(
        "job", nargs="?", default=None, help="job id (from 'repro jobs')"
    )
    p_cancel.add_argument(
        "--drain",
        action="store_true",
        help="refuse new submissions, let running jobs finish, then shut "
        "the service and its worker fleet down",
    )
    p_cancel.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="connect/read timeout in seconds (default 10)",
    )
    p_cancel.add_argument(
        "--secret-file",
        default=None,
        metavar="PATH",
        help="file holding the coordinator's shared secret (default: "
        "$REPRO_SECRET)",
    )
    _add_verbose_option(p_cancel)
    p_cancel.set_defaults(fn=_cmd_cancel)

    return parser


def _rewrite_legacy(argv: list[str]) -> list[str]:
    """Map ``repro.cli fig04 [--k 12]`` onto the ``run`` subcommand."""
    commands = (
        "list", "run", "sweep", "worker", "cache", "trace", "status",
        "serve", "submit", "jobs", "cancel",
    )
    if not argv or argv[0] in commands or argv[0].startswith("-"):
        return argv
    head, rest = argv[0], list(argv[1:])
    out = ["run", head]
    while rest:
        tok = rest.pop(0)
        if tok == "--k":
            if not rest:
                break
            out += ["--set", f"k={rest.pop(0)}"]
        elif tok.startswith("--k="):
            out += ["--set", f"k={tok.split('=', 1)[1]}"]
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _rewrite_legacy(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    verbosity = getattr(args, "verbose_main", 0) + getattr(args, "verbose_sub", 0)
    if verbosity:
        import logging

        logging.basicConfig(
            level=logging.INFO if verbosity == 1 else logging.DEBUG,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except ScenarioExecutionError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChaosCrash as exc:
        # The injected coordinator death (crash_coordinator chaos). The
        # write-ahead journal + cell cache hold everything completed so
        # far; re-running the same command with --resume-journal picks up
        # from there (and disarms the crash).
        print(f"chaos: {exc}", file=sys.stderr)
        print(
            "resume with: the same command plus --resume-journal",
            file=sys.stderr,
        )
        return 3
    except BrokenPipeError:
        # Downstream pager/head closed early; exit quietly like cat does.
        # Re-point stdout at devnull so interpreter shutdown doesn't raise
        # a second time while flushing the dead pipe.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
