"""Distributed cell executor: coordinator/worker protocol over TCP.

The share-nothing cell model (PR 3) makes multi-machine execution cheap:
a remote worker only needs ``(scenario, cell key, params)`` in and a
portable cell document out. This package supplies the three pieces:

* :mod:`.protocol` — length-prefixed JSON frames; values reuse the
  portable encoding from :mod:`repro.scenarios.encode`, so the wire
  format and the cell-cache format are one vocabulary.
* :mod:`.coordinator` — owns the plan: leases cost-ordered units to
  connected workers, tracks heartbeats, re-leases units from dead or
  stalled workers, and streams result documents back.
* :mod:`.worker` — the thin lease loop every worker runs; remote
  machines start it as ``repro worker HOST:PORT``.
* :mod:`.fleet` — the local workers: forks of the process that owns the
  coordinator, started, replaced within a respawn budget and reaped by
  one :class:`Fleet`.

:class:`repro.scenarios.Runner` is the only intended caller: with
``executor="distributed"`` it stands up a coordinator, optionally forks
a local fleet (the default backend, so a single machine gets distributed
semantics for free), and feeds the result stream through the same
cache/merge/progress path as every other executor — which is what pins
distributed results bit-identical to in-process ones. The fleet forks
from the thread that runs the coordinator, with no other thread alive,
as the ``pool`` executor already forks.

Long-lived service mode (``repro serve``) adds :mod:`.jobs` (a
multi-sweep job queue with fair-share leasing and the client side of
``repro submit|jobs|cancel``) and :mod:`.auth` (HMAC shared-secret
challenge/response on the frame protocol). An *unauthenticated*
coordinator still trusts its peers (lease parameters are executed,
documents are decoded via dataclass import paths); bind it to loopback
or a trusted network, or arm a shared secret — and read the security-
model note in the README before leaving trusted networks.
"""

from __future__ import annotations

# NOTE: .worker is deliberately NOT imported here — remote workers start
# via ``python -m repro.distrib.worker``, and importing the module from
# the package __init__ would make runpy warn about the double import.
from .auth import AuthError, load_secret
from .chaos import ChaosConfig, ChaosCrash, ChaosError, backoff_delays, parse_chaos
from .coordinator import Coordinator
from .fleet import Fleet, spawn_local_worker
from .jobs import (
    JobCancelled,
    JobQueue,
    ServiceClient,
    ServiceError,
    cancel_job,
    fetch_jobs,
)
from .journal import JournalState, RunJournal, journal_path, load_journal
from .protocol import (
    PROTO_VERSION,
    ProtocolError,
    ProtocolTimeout,
    parse_address,
)

__all__ = [
    "AuthError",
    "ChaosConfig",
    "ChaosCrash",
    "ChaosError",
    "Coordinator",
    "Fleet",
    "JobCancelled",
    "JobQueue",
    "JournalState",
    "PROTO_VERSION",
    "ProtocolError",
    "ProtocolTimeout",
    "RunJournal",
    "ServiceClient",
    "ServiceError",
    "backoff_delays",
    "cancel_job",
    "fetch_jobs",
    "journal_path",
    "load_journal",
    "load_secret",
    "parse_address",
    "parse_chaos",
    "spawn_local_worker",
]
