"""Deterministic fault injection for the distributed executor.

The chaos harness makes the failure modes the coordinator/worker stack
claims to survive — lost workers, torn connections, corrupted frames,
stalled heartbeats, a crashed coordinator — *injectable on purpose and
reproducible by seed*, so the recovery machinery is exercised by tests
and CI instead of trusted on faith. The house invariant holds throughout:
every unit is deterministic (hash-derived seeds), so a chaos run that
completes is bitwise-identical to the fault-free in-process run no matter
which faults fired along the way.

Grammar (``REPRO_CHAOS`` environment variable or ``repro run --chaos``)::

    seed=N,kill_worker=p,kill_worker=after_k,drop_frame=p,corrupt_frame=p,
    delay_ms=a:b,stall_heartbeat=p,crash_coordinator=after_k

* ``seed=N`` — base seed of the injected-fault stream (default 0).
* ``kill_worker=p`` — probability a worker dies abruptly (``os._exit``,
  holding its lease) when a lease arrives.
* ``kill_worker=after_k`` — every worker dies the same way once it has
  completed ``k`` units, holding lease ``k+1`` (``after_0``: on its
  first lease). Deterministic: it draws nothing from the stream, and it
  may be armed beside ``kill_worker=p``.
* ``drop_frame=p`` — probability a frame send instead tears the
  connection down (a dropped TCP segment surfaces as a broken link, not
  a silent gap; both peers observe the failure and recover).
* ``corrupt_frame=p`` — probability a frame's body is bit-flipped in
  flight; the receiver hits :class:`~.protocol.ProtocolError` and drops
  the connection.
* ``delay_ms=a:b`` — uniform extra latency, in milliseconds, added
  before every frame send.
* ``stall_heartbeat=p`` — probability a worker's heartbeat thread goes
  silent when a lease arrives (the worker keeps computing; the
  coordinator must declare it stalled and re-lease).
* ``drop_auth=p`` — probability the peer's ``auth`` handshake frame is
  lost (the connection is torn down mid-handshake; the worker must
  reconnect and re-authenticate against a fresh nonce).
* ``replay_frame=p`` — probability a frame is sent twice back-to-back
  (a retransmit-style duplicate; every receiver must treat repeated
  frames idempotently — duplicate results are dropped by the done-set,
  duplicate submits are deduplicated by client token, duplicate
  challenges are simply re-answered).
* ``crash_coordinator=after_k`` (``after_3`` or plain ``3``) — the
  coordinator raises :class:`ChaosCrash` once ``k`` units have
  completed; a restart with ``--resume-journal`` resumes from the
  write-ahead journal + cell cache (and disarms the crash, so the demo
  converges).

Determinism: every probabilistic decision consumes exactly one draw from
one seeded stream per process, so a given ``(seed, role)`` pair replays
the identical decision sequence (pinned by ``tests/test_chaos.py``). The
role — ``REPRO_CHAOS_ROLE=worker-N``, set per forked local worker by
:class:`~repro.distrib.fleet.Fleet` — partitions streams so a two-worker
fleet does not fail in lockstep.
"""

from __future__ import annotations

import hashlib
import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "ChaosError",
    "ChaosCrash",
    "ChaosConfig",
    "ChaosInjector",
    "parse_chaos",
    "injector",
    "backoff_delays",
    "mangle_frame",
]


class ChaosError(ValueError):
    """Malformed ``REPRO_CHAOS`` specification."""


class ChaosCrash(RuntimeError):
    """The injected coordinator crash (``crash_coordinator=after_k``).

    Deliberately *not* an ``OSError``: nothing in the recovery stack may
    accidentally swallow it — the crash must surface to the operator,
    who resumes with ``--resume-journal``.
    """


#: The probability-valued knobs, in the order their decisions consume
#: draws from the stream (documented so tests can pin the sequence).
_PROB_KEYS = (
    "kill_worker",
    "drop_frame",
    "corrupt_frame",
    "stall_heartbeat",
    "drop_auth",
    "replay_frame",
)


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed fault-injection plan; all defaults are 'no fault'."""

    seed: int = 0
    kill_worker: float = 0.0
    drop_frame: float = 0.0
    corrupt_frame: float = 0.0
    stall_heartbeat: float = 0.0
    drop_auth: float = 0.0
    replay_frame: float = 0.0
    delay_ms: tuple[float, float] | None = None
    crash_coordinator: int | None = None
    kill_worker_after: int | None = None

    def to_spec(self) -> str:
        """The canonical spec string (parse/format round-trips)."""
        parts = [f"seed={self.seed}"]
        for key in _PROB_KEYS:
            p = getattr(self, key)
            if p:
                parts.append(f"{key}={p:g}")
        if self.delay_ms is not None:
            parts.append(f"delay_ms={self.delay_ms[0]:g}:{self.delay_ms[1]:g}")
        if self.crash_coordinator is not None:
            parts.append(f"crash_coordinator=after_{self.crash_coordinator}")
        if self.kill_worker_after is not None:
            parts.append(f"kill_worker=after_{self.kill_worker_after}")
        return ",".join(parts)


def _parse_probability(key: str, text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise ChaosError(f"chaos key {key!r} expects a probability, got {text!r}")
    if not 0.0 <= p <= 1.0:
        raise ChaosError(f"chaos key {key!r} must be in [0, 1], got {p!r}")
    return p


def _parse_after(key: str, value: str, least: int) -> int:
    """``after_K`` (or, for ``crash_coordinator``, plain ``K``) -> ``K``."""
    text = value[len("after_"):] if value.startswith("after_") else value
    try:
        k = int(text)
    except ValueError:
        spelling = "after_K (or K)" if key == "crash_coordinator" else "after_K"
        raise ChaosError(f"{key} expects {spelling}, got {value!r}")
    if k < least:
        raise ChaosError(f"{key} must be >= {least}, got {k}")
    return k


def parse_chaos(spec: str) -> ChaosConfig:
    """``"seed=3,kill_worker=0.2,..."`` -> :class:`ChaosConfig`.

    Raises :class:`ChaosError` on unknown keys or out-of-range values —
    a typo in a chaos plan must fail the command, not silently run a
    different experiment.
    """
    fields: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ChaosError(f"chaos spec expects key=value, got {part!r}")
        if key == "seed":
            try:
                fields["seed"] = int(value)
            except ValueError:
                raise ChaosError(f"chaos seed must be an integer, got {value!r}")
        elif key == "kill_worker" and value.startswith("after_"):
            fields["kill_worker_after"] = _parse_after(key, value, least=0)
        elif key in _PROB_KEYS:
            fields[key] = _parse_probability(key, value)
        elif key == "delay_ms":
            lo, sep2, hi = value.partition(":")
            try:
                bounds = (float(lo), float(hi if sep2 else lo))
            except ValueError:
                raise ChaosError(f"delay_ms expects a:b milliseconds, got {value!r}")
            if bounds[0] < 0 or bounds[1] < bounds[0]:
                raise ChaosError(f"delay_ms range must be 0 <= a <= b, got {value!r}")
            fields["delay_ms"] = bounds
        elif key == "crash_coordinator":
            fields["crash_coordinator"] = _parse_after(key, value, least=1)
        else:
            known = ("seed", *_PROB_KEYS, "delay_ms", "crash_coordinator")
            raise ChaosError(
                f"unknown chaos key {key!r} (known: {', '.join(known)})"
            )
    return ChaosConfig(**fields)  # type: ignore[arg-type]


class ChaosInjector:
    """One process's seeded fault stream over a :class:`ChaosConfig`.

    Each probabilistic consult (:meth:`decide`) consumes exactly one draw
    from a ``random.Random`` seeded by ``(config.seed, role)``, so the
    decision sequence for a given seed/role is replayable — including
    when every probability is zero (the armed-but-quiet mode the
    microbenchmark prices). Decisions made from multiple threads (the
    worker's heartbeat thread shares the frame seam) still each consume
    one draw; only the single-threaded sequence is pinned.
    """

    def __init__(self, config: ChaosConfig, role: str = "main") -> None:
        self.config = config
        self.role = role
        digest = hashlib.sha256(f"{config.seed}:{role}".encode("utf-8")).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def decide(self, kind: str) -> bool:
        """Consume one draw; True when the ``kind`` fault fires now."""
        p = getattr(self.config, kind)
        return self._rng.random() < p

    def delay_s(self) -> float:
        """Injected pre-send latency in seconds (0.0 when not configured)."""
        bounds = self.config.delay_ms
        if bounds is None:
            return 0.0
        lo, hi = bounds
        return self._rng.uniform(lo, hi) / 1000.0

    def corrupt_index(self, body_len: int) -> int:
        """Which body byte a ``corrupt_frame`` fault flips."""
        return self._rng.randrange(body_len) if body_len else 0


#: Single-slot cache: ``(spec, role) -> injector``. The same injector
#: object must persist across consults (it owns the fault stream), but an
#: env change (tests, CLI --chaos) must take effect without a restart.
_CACHE: tuple[tuple[str, str], ChaosInjector] | None = None


def injector() -> ChaosInjector | None:
    """The process-wide injector from ``REPRO_CHAOS``, or ``None``.

    Reads ``REPRO_CHAOS`` / ``REPRO_CHAOS_ROLE`` on every call (two dict
    lookups — cheap enough for the frame seam) but keeps one injector
    alive per ``(spec, role)`` so the fault stream is continuous.
    """
    global _CACHE
    spec = os.environ.get("REPRO_CHAOS", "")
    if not spec:
        return None
    role = os.environ.get("REPRO_CHAOS_ROLE", "main")
    if _CACHE is not None and _CACHE[0] == (spec, role):
        return _CACHE[1]
    inj = ChaosInjector(parse_chaos(spec), role)
    _CACHE = ((spec, role), inj)
    return inj


def mangle_frame(inj: ChaosInjector, frame: bytes, sock: socket.socket) -> bytes:
    """Apply frame-seam chaos to one outgoing frame.

    Consumes draws in a fixed order (delay, drop, corrupt, replay). A
    *drop* tears the connection down and raises ``OSError`` — on a stream
    transport a lost frame is indistinguishable from a broken link, and
    tearing the link is what makes the fault recoverable (the coordinator
    re-leases on EOF, the worker reconnects with backoff). A *corrupt*
    flips one body byte past the length header, so the receiver reads a
    full-length frame that fails to decode (``ProtocolError``) rather
    than desynchronizing the stream. A *replay* returns the frame doubled
    — both copies are valid, so the receiver sees an exact duplicate and
    must handle it idempotently.
    """
    delay = inj.delay_s()
    if delay > 0.0:
        time.sleep(delay)
    if inj.decide("drop_frame"):
        try:
            sock.close()
        except OSError:
            pass
        raise OSError("chaos: frame dropped (connection torn down)")
    if inj.decide("corrupt_frame"):
        header = 4  # struct ">I" length prefix; keep it valid
        if len(frame) > header:
            index = header + inj.corrupt_index(len(frame) - header)
            frame = frame[:index] + bytes([frame[index] ^ 0x80]) + frame[index + 1:]
    if inj.decide("replay_frame"):
        frame = frame + frame
    return frame


def backoff_delays(
    *,
    base: float = 0.05,
    cap: float = 2.0,
    total: float = 30.0,
    rng: random.Random | None = None,
) -> Iterator[float]:
    """Jittered exponential backoff delays, bounded by a total budget.

    Yields sleep durations ``uniform(base/2, d)`` for ``d = base, 2*base,
    4*base, ... <= cap`` ("equal jitter": never less than half the step,
    so retries make progress, never synchronized across a fleet). The
    generator is exhausted once the *sum* of yielded delays would exceed
    ``total`` — the caller's retry loop is therefore time-bounded by
    construction. Pass a seeded ``rng`` for reproducible schedules.
    """
    if rng is None:
        rng = random.Random()
    spent = 0.0
    step = base
    while True:
        delay = rng.uniform(min(base, cap) / 2, min(step, cap))
        if spent + delay > total:
            return
        spent += delay
        yield delay
        step = min(step * 2, cap)
