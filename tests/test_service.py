"""Long-lived coordinator service: auth handshake, job queue, drain.

The load-bearing guarantees:

* the HMAC challenge/response rejects wrong secrets, replayed macs and
  protocol-v1 peers, and an unauthenticated connection gets exactly one
  error frame before disconnect — without perturbing running jobs;
* two sweeps submitted concurrently to one service share the worker
  fleet and each comes back bitwise identical to an in-process run;
* drain (coordinator and worker) is orderly: no new admissions, held
  work finishes, the serve loop exits, workers leave with ``bye``;
* frames are hard-bounded by ``MAX_FRAME_BYTES`` in both directions.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.distrib import (
    AuthError,
    Coordinator,
    ProtocolTimeout,
    ServiceError,
    cancel_job,
    fetch_jobs,
)
from repro.distrib.auth import compute_mac, load_secret
from repro.distrib.jobs import JobQueue
from repro.distrib.protocol import (
    MAX_FRAME_BYTES,
    PROTO_VERSION,
    ProtocolError,
    fetch_status,
    recv_msg,
    send_msg,
)
from repro.scenarios import Runner

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")
SECRET = b"test-shared-secret"


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


def _reap(*procs: subprocess.Popen) -> None:
    for p in procs:
        if p.poll() is None:
            p.terminate()
    for p in procs:
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()


@contextlib.contextmanager
def _service(**kwargs):
    """A serve_forever Coordinator on a background thread.

    Exits by drain: the context manager drains on the way out and joins
    the loop, so a hung serve loop fails the test instead of leaking.
    """
    coord = Coordinator(**kwargs)
    thread = threading.Thread(target=coord.serve_forever, daemon=True)
    thread.start()
    try:
        yield coord
    finally:
        coord.drain()
        thread.join(timeout=30)
        coord.close()
        assert not thread.is_alive(), "serve loop failed to drain"


def _dial(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.settimeout(10)
    return sock


def _hello(role: str = "client") -> dict:
    msg = {"type": "hello", "proto": PROTO_VERSION, "role": role}
    if role == "worker":
        msg["worker"] = "t"
        msg["pid"] = 0
    return msg


# --------------------------------------------------------------------- auth


class TestAuthHandshake:
    def test_correct_secret_is_welcomed(self):
        with _service(secret=SECRET) as coord:
            sock = _dial(coord.address[1])
            try:
                send_msg(sock, _hello())
                challenge = recv_msg(sock)
                assert challenge["type"] == "challenge"
                mac = compute_mac(SECRET, challenge["nonce"], "client")
                send_msg(sock, {"type": "auth", "mac": mac})
                assert recv_msg(sock)["type"] == "welcome"
            finally:
                sock.close()

    def test_wrong_secret_is_refused_and_disconnected(self):
        with _service(secret=SECRET) as coord:
            sock = _dial(coord.address[1])
            try:
                send_msg(sock, _hello())
                challenge = recv_msg(sock)
                mac = compute_mac(b"wrong-secret", challenge["nonce"], "client")
                send_msg(sock, {"type": "auth", "mac": mac})
                reply = recv_msg(sock)
                assert reply["type"] == "error"
                assert recv_msg(sock) is None  # disconnected
            finally:
                sock.close()

    def test_replayed_mac_fails_against_fresh_nonce(self):
        with _service(secret=SECRET) as coord:
            sock = _dial(coord.address[1])
            try:
                send_msg(sock, _hello())
                first = recv_msg(sock)
                replayed = compute_mac(SECRET, first["nonce"], "client")
            finally:
                sock.close()
            # A second connection gets a *fresh* nonce, so the captured
            # mac (a wire-level replay) no longer verifies.
            sock = _dial(coord.address[1])
            try:
                send_msg(sock, _hello())
                second = recv_msg(sock)
                assert second["nonce"] != first["nonce"]
                send_msg(sock, {"type": "auth", "mac": replayed})
                assert recv_msg(sock)["type"] == "error"
                assert recv_msg(sock) is None
            finally:
                sock.close()

    def test_role_binding_rejects_worker_mac_for_client(self):
        # The role is folded into the mac, so a captured worker
        # credential cannot be replayed to open a client session.
        with _service(secret=SECRET) as coord:
            sock = _dial(coord.address[1])
            try:
                send_msg(sock, _hello("client"))
                challenge = recv_msg(sock)
                mac = compute_mac(SECRET, challenge["nonce"], "worker")
                send_msg(sock, {"type": "auth", "mac": mac})
                assert recv_msg(sock)["type"] == "error"
            finally:
                sock.close()

    def test_v1_peer_refused_when_secret_armed(self):
        with _service(secret=SECRET) as coord:
            sock = _dial(coord.address[1])
            try:
                send_msg(sock, {"type": "hello", "worker": "old", "pid": 0})
                reply = recv_msg(sock)
                assert reply["type"] == "error"
                assert "v1" in reply["error"]
                assert recv_msg(sock) is None
            finally:
                sock.close()

    def test_too_new_proto_refused(self):
        with _service(secret=SECRET) as coord:
            sock = _dial(coord.address[1])
            try:
                send_msg(sock, {"type": "hello", "proto": 99, "role": "client"})
                reply = recv_msg(sock)
                assert reply["type"] == "error"
                assert "proto" in reply["error"]
            finally:
                sock.close()

    def test_unauthenticated_status_poll_gets_one_error_then_eof(self):
        with _service(secret=SECRET) as coord:
            sock = _dial(coord.address[1])
            try:
                send_msg(sock, {"type": "status"})
                reply = recv_msg(sock)
                assert reply["type"] == "error"
                assert recv_msg(sock) is None
            finally:
                sock.close()

    def test_fetch_status_with_secret_succeeds(self):
        with _service(secret=SECRET) as coord:
            status = fetch_status(coord.address, secret=SECRET)
            assert status["auth"] is True
            assert status["jobs"] == []

    def test_fetch_jobs_with_wrong_secret_raises_autherror(self):
        with _service(secret=SECRET) as coord:
            with pytest.raises(AuthError):
                fetch_jobs(coord.address, secret=b"nope")

    def test_rejected_peer_does_not_perturb_running_jobs(self):
        with _service(secret=SECRET) as coord:
            jid = coord._queue.submit(
                [{"uid": 0, "kind": "scenario", "name": "fig06",
                  "cell_key": None, "params": {}}],
                label="probe",
            ).jid
            with pytest.raises(AuthError):
                fetch_jobs(coord.address, secret=b"nope")
            deadline = time.monotonic() + 10
            table = fetch_jobs(coord.address, secret=SECRET)
            assert [j["job"] for j in table["jobs"]] == [jid]
            assert table["jobs"][0]["state"] in ("queued", "running")
            coord._queue.cancel(jid)  # let drain converge

    def test_load_secret_file_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SECRET", "from-env")
        path = tmp_path / "s.key"
        path.write_text("from-file\n")
        assert load_secret(path) == b"from-file"
        assert load_secret(None) == b"from-env"
        monkeypatch.delenv("REPRO_SECRET")
        assert load_secret(None) is None
        (tmp_path / "empty.key").write_text("\n")
        with pytest.raises(AuthError):
            load_secret(tmp_path / "empty.key")


# ------------------------------------------------------------- frame bounds


class TestFrameBounds:
    def test_oversized_inbound_frame_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            a.sendall(b"x" * 64)
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_large_legal_frame_roundtrips_chunked(self):
        # Several MB forces the chunked _recv_exactly path (one recv
        # never returns this much); content must survive byte-for-byte.
        big = {"type": "result", "blob": "x" * (3 << 20)}
        a, b = socket.socketpair()
        try:
            t = threading.Thread(target=send_msg, args=(a, big), daemon=True)
            t.start()
            assert recv_msg(b) == big
            t.join(timeout=10)
        finally:
            a.close()
            b.close()

    def test_coordinator_drops_oversized_frame_sender(self):
        with _service() as coord:
            sock = _dial(coord.address[1])
            try:
                sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"junk")
                assert recv_msg(sock) is None  # dropped, no reply
            finally:
                sock.close()

    def test_fetch_status_times_out_with_named_error(self):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            # Accepts but never answers: the client must fail fast with
            # the named timeout error, not hang.
            with pytest.raises(ProtocolTimeout):
                fetch_status(listener.getsockname()[:2], timeout=0.3)
        finally:
            listener.close()


# ---------------------------------------------------------------- job queue


def _payloads(n: int, name: str = "fig06") -> list[dict]:
    return [
        {"uid": i, "kind": "scenario", "name": name, "cell_key": None,
         "params": {}}
        for i in range(n)
    ]


class TestJobQueue:
    def test_fair_share_alternates_jobs(self):
        q = JobQueue()
        a = q.submit(_payloads(3), label="a")
        b = q.submit(_payloads(3), label="b")
        order = []
        while True:
            lease = q.next_lease()
            if lease is None:
                break
            gid, job, _payload = lease
            order.append(job.jid)
        assert order == [a.jid, b.jid] * 3

    def test_within_job_order_is_submission_order(self):
        q = JobQueue()
        q.submit(_payloads(4))
        uids = []
        while True:
            lease = q.next_lease()
            if lease is None:
                break
            uids.append(lease[2]["uid"])
        assert uids == [0, 1, 2, 3]

    def test_token_dedup_returns_same_job(self):
        q = JobQueue()
        a = q.submit(_payloads(2), token="tok")
        b = q.submit(_payloads(2), token="tok")
        assert a is b
        assert q.pending_total() == 2

    def test_draining_refuses_new_jobs(self):
        q = JobQueue()
        q.draining = True
        with pytest.raises(ServiceError, match="draining"):
            q.submit(_payloads(1))

    def test_full_queue_refuses(self):
        q = JobQueue(max_active=1)
        q.submit(_payloads(1))
        with pytest.raises(ServiceError, match="full"):
            q.submit(_payloads(1))

    def test_duplicate_uids_refused(self):
        q = JobQueue()
        bad = _payloads(2)
        bad[1]["uid"] = 0
        with pytest.raises(ServiceError, match="distinct"):
            q.submit(bad)

    def test_cancel_clears_pending_keeps_completed(self):
        q = JobQueue()
        job = q.submit(_payloads(3))
        gid, _job, payload = q.next_lease()
        assert q.cancel(job.jid) is job
        # The in-flight lease runs to completion and is retained.
        q.complete(gid, {"uid": payload["uid"], "rows": []}, "w")
        assert job.cancelled and job.finished
        assert list(job.completed) == [payload["uid"]]
        assert q.idle

    def test_late_result_after_requeue_wins_once(self):
        q = JobQueue()
        job = q.submit(_payloads(1))
        gid, _job, payload = q.next_lease()
        q.requeue(gid)  # "dead" worker's lease goes back
        # The not-so-dead worker's result lands before the re-lease: it
        # completes the unit, and the re-leased copy must not run again.
        assert q.complete(gid, {"uid": 0, "rows": []}, "w") is not None
        assert q.next_lease() is None
        assert job.finished


# ------------------------------------------------------- service end-to-end


class TestServiceEndToEnd:
    def test_two_concurrent_jobs_share_one_fleet_bitwise(self):
        """Acceptance: two sweeps through one authenticated service come
        back bitwise identical to in-process runs of the same grids."""
        # status snapshots are cached for status_refresh_s; refresh fast
        # so the post-run poll sees the finished job table.
        with _service(secret=SECRET, status_refresh_s=0.05) as coord:
            workers = [
                _spawn_worker(
                    coord.address[1], REPRO_SECRET=SECRET.decode()
                )
                for _ in range(2)
            ]
            results: dict[str, object] = {}
            errors: list[BaseException] = []

            def _submit(name: str) -> None:
                try:
                    runner = Runner(
                        cache=None,
                        executor="service",
                        service=("127.0.0.1", coord.address[1]),
                        secret=SECRET,
                    )
                    results[name] = runner.run(names=[name])[0]
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=_submit, args=(name,))
                for name in ("fig06", "table1")
            ]
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                _reap(*workers)
            assert not errors, errors
            # The coordinator serves a snapshot it rebuilds at most every
            # status_refresh_s, so one taken before the jobs ended can
            # still be served under load: poll until it lists both ended.
            deadline = time.monotonic() + 30
            while True:
                status = fetch_status(coord.address, secret=SECRET)
                states = {j["state"] for j in status["jobs"]}
                ended = len(status["jobs"]) == 2 and not states & {"queued", "running"}
                if ended or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
        assert {j["source"] for j in status["jobs"]} == {"remote"}
        assert len(status["jobs"]) == 2
        assert all(j["state"] == "done" for j in status["jobs"])
        for name in ("fig06", "table1"):
            local = Runner(cache=None).run(names=[name])[0]
            assert results[name].rows == local.rows
            assert results[name].payload == local.payload

    def test_worker_sigterm_drains_cleanly(self):
        with _service(secret=SECRET) as coord:
            worker = _spawn_worker(
                coord.address[1], REPRO_SECRET=SECRET.decode()
            )
            try:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if fetch_status(coord.address, secret=SECRET)["workers"]:
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("worker never connected")
                worker.send_signal(signal.SIGTERM)
                assert worker.wait(timeout=30) == 0
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    status = fetch_status(coord.address, secret=SECRET)
                    if status["workers_drained"] == 1:
                        break
                    time.sleep(0.1)
                assert status["workers_drained"] == 1
                assert status["workers"] == []
            finally:
                _reap(worker)

    def test_drain_refuses_new_submissions_and_exits(self):
        coord = Coordinator()
        thread = threading.Thread(target=coord.serve_forever, daemon=True)
        thread.start()
        try:
            reply = cancel_job(coord.address, drain=True)
            assert reply.get("draining") is True
            with pytest.raises((ServiceError, OSError, ProtocolError)):
                # Either the refusal lands ("draining") or the loop has
                # already exited and the dial fails — both are drained.
                from repro.distrib.jobs import ServiceClient

                ServiceClient(coord.address).submit(_payloads(1))
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            coord.close()
            thread.join(timeout=10)

    def test_wrong_secret_worker_is_refused_with_auth_exit(self):
        from repro.distrib.worker import AUTH_EXIT

        with _service(secret=SECRET) as coord:
            worker = _spawn_worker(coord.address[1], REPRO_SECRET="wrong")
            try:
                assert worker.wait(timeout=30) == AUTH_EXIT
            finally:
                _reap(worker)
            # The refused peer never registered as a worker.
            status = fetch_status(coord.address, secret=SECRET)
            assert status["workers_seen"] == 0

    def test_embedded_worker_restores_sigterm_disposition(self):
        # serve() installs a drain hook on the main thread; an embedding
        # process (like this test runner) must get its previous SIGTERM
        # disposition back, or forked children (multiprocessing pool
        # workers) inherit the hook and shrug off Pool.terminate().
        from repro import cli

        before = signal.getsignal(signal.SIGTERM)
        rc = cli.main(["worker", "127.0.0.1:1", "--connect-timeout", "0.1"])
        assert rc == 1
        assert signal.getsignal(signal.SIGTERM) == before
