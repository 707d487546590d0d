"""Distributed cell executor: wire framing, coordinator leasing and
failure recovery, and Runner-level differential equivalence.

The load-bearing guarantees:

* a distributed run (coordinator + TCP workers) produces results
  bit-identical to the in-process/pooled/sharded paths — same seeds, same
  executor functions, same merge;
* killing a worker mid-sweep re-leases its units to surviving workers and
  the final payload is unchanged;
* local workers that die are respawned while leased work remains;
* the local fleet is forked from the coordinator's process: a worker
  keeps none of the parent's fds, gets its chaos role in its own
  environment only, and is reaped before ``Runner.run`` returns.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.distrib import Coordinator, Fleet, parse_address, spawn_local_worker
from repro.distrib import fleet as fleet_mod
from repro.distrib.chaos import ChaosCrash
from repro.distrib.protocol import (
    FrameReader,
    ProtocolError,
    encode_frame,
    recv_msg,
    send_msg,
)
from repro.distrib.worker import KILLED_EXIT
from repro.scenarios import Progress, ResultCache, Runner, scenario
from repro.scenarios.runner import _execute, _execute_cell

#: Same tiny fig07 configuration the sharding tests pin (4 packet cells).
TINY_FIG07 = {
    "loads": (0.02, 0.05),
    "networks": ("opera", "rotornet"),
    "duration_ms": 0.4,
    "scale": "ci",
}

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _worker_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


def _spawn_worker(port: int, **extra_env: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.distrib.worker", f"127.0.0.1:{port}"],
        env=_worker_env(**extra_env),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _reap(*procs: subprocess.Popen) -> None:
    for p in procs:
        if p.poll() is None:
            p.terminate()
    for p in procs:
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()


# ----------------------------------------------------------------- protocol


class TestProtocol:
    def test_frame_roundtrip_through_reader(self):
        msgs = [
            {"type": "hello", "worker": "w", "pid": 1},
            {"type": "lease", "uid": 0, "params": {"x": (1, 2)}},
            {"type": "result", "uid": 2**40, "doc": {"v": 0.1}},
        ]
        import json

        wire = b"".join(encode_frame(m) for m in msgs)
        reader = FrameReader()
        decoded = []
        # One byte at a time: a frame split across arbitrary TCP segment
        # boundaries must decode identically to one that arrived whole.
        for i in range(len(wire)):
            decoded.extend(reader.feed(wire[i:i + 1]))
        assert decoded == [json.loads(json.dumps(m)) for m in msgs]

    def test_many_frames_in_one_chunk(self):
        msgs = [{"type": "heartbeat", "n": i} for i in range(5)]
        reader = FrameReader()
        assert list(reader.feed(b"".join(encode_frame(m) for m in msgs))) == msgs

    def test_non_utf8_safe_strings_survive(self):
        # Lone surrogates (os.fsdecode artifacts) and control characters
        # must cross the ASCII-JSON wire unchanged.
        tricky = {"type": "result", "s": "𐏿", "c": "\x00\x1f", "u": "π"}
        reader = FrameReader()
        (decoded,) = reader.feed(encode_frame(tricky))
        assert decoded == tricky

    def test_numeric_fidelity(self):
        msg = {"type": "x", "big": 2**80 + 1, "f": [0.1, 1e308, 5e-324]}
        reader = FrameReader()
        (decoded,) = reader.feed(encode_frame(msg))
        assert decoded["big"] == 2**80 + 1
        assert decoded["f"] == [0.1, 1e308, 5e-324]

    def test_oversized_header_rejected(self):
        import struct

        reader = FrameReader()
        with pytest.raises(ProtocolError, match="exceeds"):
            list(reader.feed(struct.pack(">I", 1 << 31)))

    def test_non_object_message_rejected(self):
        import json
        import struct

        body = json.dumps([1, 2]).encode()
        reader = FrameReader()
        with pytest.raises(ProtocolError, match="JSON object"):
            list(reader.feed(struct.pack(">I", len(body)) + body))

    def test_socket_send_recv_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"type": "ready"})
            send_msg(a, {"type": "lease", "uid": 1})
            assert recv_msg(b) == {"type": "ready"}
            assert recv_msg(b) == {"type": "lease", "uid": 1}
            a.close()
            assert recv_msg(b) is None  # clean EOF
        finally:
            b.close()

    def test_truncated_length_prefix_is_a_protocol_error(self):
        # A peer that dies two bytes into the 4-byte header must not
        # impersonate an orderly shutdown: EOF mid-frame raises, EOF at a
        # frame boundary (tested above) returns None.
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"type": "ready"})[:2])
            a.close()
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                recv_msg(b)
        finally:
            b.close()

    def test_eof_mid_body_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"type": "result", "uid": 1})
            a.sendall(frame[: len(frame) // 2])  # header + part of the body
            a.close()
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                recv_msg(b)
        finally:
            b.close()

    def test_partial_writes_reassemble(self):
        # A sender dribbling one byte at a time (worst-case segmentation)
        # must decode identically to a frame that arrived whole.
        a, b = socket.socketpair()
        result = {}

        def _recv():
            result["msg"] = recv_msg(b)

        thread = threading.Thread(target=_recv)
        thread.start()
        try:
            msg = {"type": "lease", "uid": 7, "params": {"x": [1, 2]}}
            for byte in encode_frame(msg):
                a.sendall(bytes([byte]))
                time.sleep(0.001)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert result["msg"] == msg
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.1:7077") == ("10.0.0.1", 7077)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValueError):
            parse_address("7077")

    def test_every_protocol_socket_disables_nagle(self, monkeypatch):
        # A worker reports a unit as two small writes (result, ready) and
        # then reads its next lease; with Nagle on, ready waits out the
        # coordinator's delayed ACK on every unit. Each dial path and the
        # coordinator's accept must apply the protocol's socket policy.
        # The spy reads the option as each dial applies the policy, so
        # fetch_status, which closes its socket before returning, is
        # covered too.
        from repro.distrib import jobs, protocol, worker

        def nodelay(sock: socket.socket) -> int:
            return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        applied: dict[str, list[int]] = {}
        real = protocol.apply_socket_policy
        for mod in (worker, jobs, protocol):
            def spy(sock, _site=mod.__name__):
                real(sock)
                applied.setdefault(_site, []).append(nodelay(sock))

            monkeypatch.setattr(mod, "apply_socket_policy", spy)

        coord = Coordinator(poll_s=0.01)

        def dial_while_ticking(dial):
            # The handshake and status dials need the coordinator's event
            # loop to answer, so the dial runs on a thread while this one
            # ticks; the coordinator's state is only touched from here.
            box: dict = {}

            def target():
                try:
                    box["value"] = dial()
                except Exception as exc:  # re-raised on the test thread
                    box["error"] = exc

            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            deadline = time.monotonic() + 10
            while thread.is_alive() and time.monotonic() < deadline:
                coord._tick()
            thread.join(timeout=1)
            assert not thread.is_alive(), "dial did not finish"
            if "error" in box:
                raise box["error"]
            return box["value"]

        dialled = []
        try:
            dialled.append(
                dial_while_ticking(lambda: worker._connect(coord.address, 10))
            )
            dialled.append(
                dial_while_ticking(
                    lambda: jobs._dial(coord.address, secret=None, timeout=10)
                )
            )
            status = dial_while_ticking(
                lambda: protocol.fetch_status(coord.address)
            )
            assert isinstance(status, dict)
            assert {site: len(v) for site, v in applied.items()} == {
                "repro.distrib.worker": 1,
                "repro.distrib.jobs": 1,
                "repro.distrib.protocol": 1,
            }
            assert all(v for values in applied.values() for v in values)
            assert all(nodelay(sock) for sock in dialled)
            # The worker and client connections stay open, so at least
            # their two accepted sockets are still registered.
            accepted = list(coord._conns)
            assert len(accepted) >= 2
            assert all(nodelay(sock) for sock in accepted)
        finally:
            for sock in dialled:
                sock.close()
            coord.close()


# -------------------------------------------------------------- coordinator


def _cheap_units() -> list[dict]:
    """Two fast analysis units (no packet simulation)."""
    from repro.scenarios import get
    from repro.scenarios.encode import to_portable

    units = []
    for uid, name in enumerate(("fig06", "table1")):
        params = get(name).bind({})
        units.append(
            {
                "uid": uid,
                "kind": "scenario",
                "name": name,
                "cell_key": None,
                "params": to_portable(params),
            }
        )
    return units


class _FakeWorker:
    """A scripted raw-socket worker for deterministic failure injection.

    Connects immediately (the coordinator's listen backlog holds the
    connection until ``run()`` starts accepting), announces ready, and on
    its first lease either drops the connection (``mode="die"``) or holds
    the lease silently without results or heartbeats (``mode="stall"``) —
    the two failure shapes the coordinator must recover from.
    """

    def __init__(self, port: int, mode: str):
        assert mode in ("die", "stall")
        self.mode = mode
        self.port = port
        self.lease = None
        self._release = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=10)
        try:
            send_msg(sock, {"type": "hello", "worker": "fake", "pid": 0})
            send_msg(sock, {"type": "ready"})
            sock.settimeout(30)
            msg = recv_msg(sock)
            if msg and msg.get("type") == "lease":
                self.lease = msg
                if self.mode == "stall":
                    self._release.wait(30)
        finally:
            sock.close()

    def stop(self) -> None:
        self._release.set()
        self.thread.join(timeout=10)


class TestCoordinator:
    def test_leases_execute_and_match_local_docs(self):
        coord = Coordinator()
        worker = _spawn_worker(coord.address[1])
        try:
            got = {uid: doc for uid, doc, _w in coord.run(_cheap_units())}
        finally:
            coord.close()
            _reap(worker)
        assert set(got) == {0, 1}
        from repro.scenarios import get

        for uid, name in enumerate(("fig06", "table1")):
            local_doc, _ = _execute(name, get(name).bind({}))
            assert got[uid]["rows"] == local_doc["rows"]
            assert got[uid]["payload"] == local_doc["payload"]

    def test_dead_worker_unit_is_released_to_survivor(self):
        # The fake is the only worker connected when leasing starts, so it
        # is guaranteed a lease — which it takes to its grave.
        coord = Coordinator()
        fake = _FakeWorker(coord.address[1], mode="die")
        real = _spawn_worker(coord.address[1])
        try:
            got = {uid: doc for uid, doc, _w in coord.run(_cheap_units())}
        finally:
            fake.stop()
            coord.close()
            _reap(real)
        assert set(got) == {0, 1}
        assert coord.releases >= 1
        assert fake.lease is not None
        assert all("rows" in doc for doc in got.values())

    def test_stalled_worker_times_out_and_releases(self):
        # The fake takes a lease and then goes silent (no result, no
        # heartbeat): the coordinator must declare it stalled after
        # lease_timeout and re-lease its unit.
        coord = Coordinator(lease_timeout=1.0)
        fake = _FakeWorker(coord.address[1], mode="stall")
        real = _spawn_worker(coord.address[1])
        try:
            got = {uid: doc for uid, doc, _w in coord.run(_cheap_units())}
        finally:
            fake.stop()
            coord.close()
            _reap(real)
        assert set(got) == {0, 1}
        assert coord.releases >= 1
        assert fake.lease is not None

    def test_idle_worker_survives_past_connect_timeout(self):
        # Regression: create_connection's 5s timeout must not persist as
        # a recv timeout — a worker idling with no lease (queue drained,
        # long tail unit elsewhere) has to block indefinitely, not die.
        coord = Coordinator()
        worker = _spawn_worker(coord.address[1])
        try:
            time.sleep(6.5)  # longer than the dial timeout
            assert worker.poll() is None, "idle worker died while waiting"
            got = list(coord.run(_cheap_units()[:1]))
        finally:
            coord.close()
            _reap(worker)
        assert len(got) == 1 and "rows" in got[0][1]

    def test_poison_unit_fails_after_release_bound(self):
        # A unit that kills every worker it touches must come back as an
        # error document after max_releases, not consume the fleet forever.
        coord = Coordinator(max_releases=3)
        fakes = [
            _FakeWorker(coord.address[1], mode="die") for _ in range(3)
        ]
        try:
            ((uid, doc, _w),) = list(coord.run(_cheap_units()[:1]))
        finally:
            for fake in fakes:
                fake.stop()
            coord.close()
        assert uid == 0
        assert "lost its worker 3 times" in doc["error"]
        assert coord.releases == 3

    def test_unknown_scenario_is_an_error_doc_not_a_dead_worker(self):
        # Version skew: a unit the worker's checkout can't resolve must
        # produce an error document and leave the worker serving.
        units = _cheap_units()[:1]
        units.insert(
            0,
            {"uid": 99, "kind": "scenario", "name": "no_such_scenario",
             "cell_key": None, "params": {}},
        )
        coord = Coordinator()
        worker = _spawn_worker(coord.address[1])
        try:
            got = {uid: doc for uid, doc, _w in coord.run(units)}
        finally:
            coord.close()
            _reap(worker)
        assert "unknown scenario" in got[99]["error"]
        assert "rows" in got[0]  # same worker went on to finish real work

    def test_run_starts_before_workers_connect(self):
        # Results stream even when the only worker dials in late.
        coord = Coordinator()
        port = coord.address[1]
        worker_holder: list[subprocess.Popen] = []

        def _late_spawn() -> None:
            time.sleep(0.5)
            worker_holder.append(_spawn_worker(port))

        threading.Thread(target=_late_spawn, daemon=True).start()
        try:
            got = list(coord.run(_cheap_units()))
        finally:
            coord.close()
            _reap(*worker_holder)
        assert len(got) == 2


# -------------------------------------------------- runner: differential


class TestRunnerDistributed:
    def test_distributed_matches_in_process_bitwise(self, tmp_path):
        """Acceptance: distributed == in-process, including cells/caching."""
        plain = Runner(cache=None).execute("fig07", **TINY_FIG07)
        seen: list[Progress] = []
        dist = Runner(
            cache=ResultCache(tmp_path),
            executor="distributed",
            workers=2,
            progress=seen.append,
        ).run(names=["fig07"], overrides=TINY_FIG07)[0]
        assert dist.cells == (4, 0, 4)
        assert dist.value == plain
        serial = Runner(cache=None).run(names=["fig07"], overrides=TINY_FIG07)[0]
        assert dist.payload == serial.payload
        assert dist.rows == serial.rows
        # Progress accounts for remotely completed units: every unit is
        # counted and attributed to a named worker.
        assert [p.done for p in seen] == [1, 2, 3, 4]
        assert all(p.total == 4 for p in seen)
        assert all(p.worker for p in seen)

    def test_distributed_cells_resume_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = Runner(
            cache=cache, executor="distributed", workers=2
        ).run(names=["fig07"], overrides=TINY_FIG07)[0]
        # Drop the merged doc and one cell; a *local* run must resume from
        # the distributed run's cells (shared cache vocabulary).
        from repro.scenarios import get

        sc = get("fig07")
        params = sc.bind(TINY_FIG07)
        cache.path("fig07", params).unlink()
        plan = sc.shard_plan(**params)
        cache.cell_path("fig07", plan[0].key, plan[0].params).unlink()
        second = Runner(cache=cache).run(names=["fig07"], overrides=TINY_FIG07)[0]
        assert second.cells == (1, 3, 4)
        assert second.payload == first.payload

    def test_killed_worker_mid_sweep_recovers_identically(self, tmp_path):
        """Acceptance: kill a worker mid-sweep; its leased cells re-run and
        the merged payload is bit-identical."""
        plain = Runner(cache=None).execute("fig07", **TINY_FIG07)
        port = _free_port()
        # The flaky worker dies the instant it is leased a cell
        # (kill_worker=after_0 -> os._exit holding the lease). It is the
        # only worker until it is confirmed dead, so it *must* be leased —
        # no race with the healthy worker.
        flaky = _spawn_worker(port, REPRO_CHAOS="kill_worker=after_0")
        healthy = None
        holder: list = []

        def _run() -> None:
            holder.append(
                Runner(
                    cache=ResultCache(tmp_path),
                    executor="distributed",
                    workers=0,
                    listen=("127.0.0.1", port),
                ).run(names=["fig07"], overrides=TINY_FIG07)[0]
            )

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        try:
            assert flaky.wait(timeout=60) == KILLED_EXIT  # died mid-lease
            healthy = _spawn_worker(port)
            thread.join(timeout=120)
            assert not thread.is_alive()
        finally:
            _reap(*([flaky] + ([healthy] if healthy else [])))
        res = holder[0]
        assert res.cells == (4, 0, 4)
        assert res.value == plain

    def test_dead_autospawned_workers_are_respawned(self, tmp_path, monkeypatch):
        # Every local worker dies after one completed unit, so draining
        # 4 cells requires the watchdog to keep respawning.
        monkeypatch.setenv("REPRO_CHAOS", "kill_worker=after_1")
        plain = Runner(cache=None).execute("fig07", **TINY_FIG07)
        res = Runner(
            cache=ResultCache(tmp_path),
            executor="distributed",
            workers=2,
            max_respawns=8,
        ).run(names=["fig07"], overrides=TINY_FIG07)[0]
        assert res.cells == (4, 0, 4)
        assert res.value == plain

    def test_exhausted_respawn_budget_raises_instead_of_hanging(
        self, tmp_path, monkeypatch
    ):
        # Workers die on their first lease and the budget only covers one
        # replacement: the run must fail loudly, never spin forever.
        monkeypatch.setenv("REPRO_CHAOS", "kill_worker=after_0")
        with pytest.raises(RuntimeError, match="respawn budget"):
            Runner(
                cache=ResultCache(tmp_path),
                executor="distributed",
                workers=1,
                max_respawns=1,
            ).run(names=["fig07"], overrides=TINY_FIG07)

    def test_distributed_without_reachable_workers_is_rejected(self):
        with pytest.raises(ValueError, match="listen"):
            Runner(executor="distributed", workers=0)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            Runner(executor="cloud")


# ----------------------------------------------------------- CLI integration


class TestCliDistributed:
    def test_run_alias_distributed_workers(self, tmp_path, monkeypatch, capsys):
        """The acceptance command shape: ``repro run fig07_datamining
        --executor distributed --workers 2``."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        args = [
            "run", "fig07_datamining", "--executor", "distributed",
            "--workers", "2", "--set", "duration_ms=0.4",
            "--set", "networks=opera,rotornet", "--set", "loads=0.02,0.05",
            "--set", "scale=ci", "--no-progress",
        ]
        assert main(args) == 0
        dist_out = capsys.readouterr().out
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache2"))
        assert main([
            "run", "fig07", "--set", "duration_ms=0.4",
            "--set", "networks=opera,rotornet", "--set", "loads=0.02,0.05",
            "--set", "scale=ci", "--no-progress",
        ]) == 0
        local_out = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("===")
        ]
        assert strip(dist_out) == strip(local_out)

    def test_spawn_local_worker_helper(self):
        # The helper must point the child at loopback when the coordinator
        # listens on a wildcard address.
        coord = Coordinator(host="0.0.0.0")
        pid = spawn_local_worker(coord.address)
        try:
            got = list(coord.run(_cheap_units()))
        finally:
            coord.close()
            _, status = os.waitpid(pid, 0)
        assert len(got) == 2
        assert os.waitstatus_to_exitcode(status) == 0


# ------------------------------------------------------------- forked fleet


@pytest.fixture
def forked(monkeypatch):
    """Record every worker a :class:`Fleet` forks, as ``(pid, role)``,
    and any chaos role or secret that shows up in this process's env."""
    real = fleet_mod.spawn_local_worker
    seen: list[tuple[int, str | None]] = []
    leaks: list[str] = []

    def spy(address, *, role=None, secret=None):
        pid = real(address, role=role, secret=secret)
        seen.append((pid, role))
        leaks.extend(k for k in ("REPRO_CHAOS_ROLE", "REPRO_SECRET") if k in os.environ)
        return pid

    monkeypatch.setattr(fleet_mod, "spawn_local_worker", spy)
    return seen, leaks


def _assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestForkedFleet:
    def test_forked_worker_holds_only_its_own_connection(self):
        """A forked worker closes every fd it inherited: the listener
        refuses connections once the coordinator closes it, even with the
        worker still alive, and the worker holds fds 0-2 and one socket."""
        coord = Coordinator()
        fleet = Fleet(coord.address, max_respawns=0)
        try:
            fleet.start(1)
            (pid,) = fleet.pids
            deadline = time.monotonic() + 30
            while coord.connected_workers < 1:
                assert time.monotonic() < deadline, "forked worker never said hello"
                coord._tick()
            if sys.platform.startswith("linux"):
                fds = {
                    int(fd): os.readlink(f"/proc/{pid}/fd/{fd}")
                    for fd in os.listdir(f"/proc/{pid}/fd")
                }
                assert {0, 1, 2} <= set(fds)
                assert fds[1] == os.devnull
                extra = [target for fd, target in fds.items() if fd > 2]
                assert len(extra) == 1 and extra[0].startswith("socket:"), fds
            os.kill(pid, signal.SIGSTOP)  # alive, but deaf to the shutdown
            try:
                coord.close()
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(coord.address, timeout=5).close()
            finally:
                os.kill(pid, signal.SIGCONT)
        finally:
            coord.close()
            fleet.close()
        _assert_reaped([pid])

    def test_sigterm_while_dialing_exits_at_once(self):
        # Nothing listens on the port, so the worker keeps redialing; a
        # SIGTERM (what Fleet.close sends) must end that, not the 30 s
        # dial budget or the fleet's SIGKILL.
        pid = spawn_local_worker(("127.0.0.1", _free_port()))
        time.sleep(1.0)  # past the fork, into serve()'s dial loop
        started = time.monotonic()
        os.kill(pid, signal.SIGTERM)
        _, status = os.waitpid(pid, 0)
        assert time.monotonic() - started < 2.0
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("ending", ["success", "respawn-budget", "chaos-crash"])
    def test_every_forked_worker_is_reaped_when_run_returns(
        self, ending, tmp_path, monkeypatch, forked
    ):
        seen, _leaks = forked
        runner = Runner(
            cache=ResultCache(tmp_path),
            executor="distributed",
            workers=1 if ending == "respawn-budget" else 2,
            max_respawns=1,
            lease_timeout=10.0,
        )
        run = lambda: runner.run(names=["fig07"], overrides=TINY_FIG07)
        if ending == "success":
            assert run()[0].cells == (4, 0, 4)
        elif ending == "respawn-budget":
            monkeypatch.setenv("REPRO_CHAOS", "kill_worker=after_0")
            with pytest.raises(RuntimeError, match="respawn budget"):
                run()
        else:
            monkeypatch.setenv("REPRO_CHAOS", "seed=1,crash_coordinator=after_1")
            with pytest.raises(ChaosCrash):
                run()
        assert seen
        _assert_reaped(pid for pid, _role in seen)

    def test_close_reaps_leaving_workers_and_signals_stragglers(self, monkeypatch):
        # Two stand-in workers: one leaves 0.2 s into close (as a worker
        # sent `shutdown` does), one would sleep for a minute. Only the
        # straggler is signalled, once the grace is over.
        delays = iter((0.2, 60.0))

        def stand_in(address, *, role=None, secret=None):
            delay = next(delays)
            pid = os.fork()
            if pid == 0:
                time.sleep(delay)
                os._exit(0)
            return pid

        kills = []
        real_kill = os.kill

        def spy(pid, sig):
            kills.append((pid, sig))
            real_kill(pid, sig)

        monkeypatch.setattr(fleet_mod, "spawn_local_worker", stand_in)
        monkeypatch.setattr(fleet_mod.os, "kill", spy)
        fleet = Fleet(("127.0.0.1", 1), max_respawns=0)
        fleet.start(2)
        leaving, straggler = fleet.pids
        started = time.monotonic()
        fleet.close()
        assert kills == [(straggler, signal.SIGTERM)]
        assert time.monotonic() - started < 5.0
        _assert_reaped([leaving, straggler])

    def test_failed_start_signals_at_once(self, monkeypatch):
        # No coordinator sent the workers forked before a failed fork
        # `shutdown`, so the fleet signals them without the grace.
        started = []

        def stand_in(address, *, role=None, secret=None):
            if started:
                raise OSError("fork failed")
            pid = os.fork()
            if pid == 0:
                time.sleep(60.0)
                os._exit(0)
            started.append(pid)
            return pid

        kills = []
        real_kill = os.kill

        def spy(pid, sig):
            kills.append((pid, sig))
            real_kill(pid, sig)

        monkeypatch.setattr(fleet_mod, "spawn_local_worker", stand_in)
        monkeypatch.setattr(fleet_mod.os, "kill", spy)
        monkeypatch.setattr(fleet_mod, "_SHUTDOWN_GRACE_S", 60.0)
        fleet = Fleet(("127.0.0.1", 1), max_respawns=0)
        t0 = time.monotonic()
        with pytest.raises(OSError, match="fork failed"):
            fleet.start(2)
        assert time.monotonic() - t0 < 5.0
        assert kills == [(started[0], signal.SIGTERM)] and fleet.pids == []
        _assert_reaped(started)

    def test_a_normal_run_signals_no_worker(self, scratch_registry, monkeypatch, forked):
        # The coordinator's close sends every worker `shutdown`, and the
        # fleet reaps them as they leave on it: a run that ends normally
        # sends no SIGTERM, so no worker drains (or says `bye` into a
        # closed connection).
        @scenario("slow_probe")
        def slow_probe(i: int = 0):
            time.sleep(0.1)
            return os.getpid()

        kills = []
        real_kill = os.kill

        def spy(pid, sig):
            kills.append((pid, sig))
            real_kill(pid, sig)

        monkeypatch.setattr(fleet_mod.os, "kill", spy)
        seen, _leaks = forked
        results = Runner(cache=None, executor="distributed", workers=2).sweep(
            "slow_probe", {"i": list(range(12))}
        )
        assert len(results) == 12 and len(seen) == 2
        assert kills == []
        _assert_reaped(pid for pid, _role in seen)

    def test_respawned_workers_get_fresh_roles_in_their_own_environ(
        self, scratch_registry, monkeypatch, forked
    ):
        # Registered after import, so only a fork of this process knows it.
        @scenario("role_probe")
        def role_probe(i: int = 0):
            return os.environ.get("REPRO_CHAOS_ROLE")

        seen, leaks = forked
        # Each worker completes one unit and dies holding its second lease.
        monkeypatch.setenv("REPRO_CHAOS", "kill_worker=after_1")
        results = Runner(
            cache=None, executor="distributed", workers=2, max_respawns=16
        ).sweep("role_probe", {"i": list(range(6))})
        roles = [role for _pid, role in seen]
        assert len(roles) > 2
        assert roles == [f"worker-{n}" for n in range(len(roles))]
        ran_on = [res.rows[0] for res in results]
        assert len(set(ran_on)) == 6
        assert set(ran_on) <= {repr(role) for role in roles}
        assert leaks == []
        assert "REPRO_CHAOS_ROLE" not in os.environ
        _assert_reaped(pid for pid, _role in seen)
