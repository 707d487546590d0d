"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately primitive — plain python ints and dicts, no
locks (each worker process owns its registry; snapshots cross process
boundaries as data, never as shared state), no background threads, no
third-party clients. Snapshots travel in the portable encoding
(:func:`repro.scenarios.encode.to_portable`), the same self-describing
form shard cells use, so a snapshot reconstructs exactly on the far side
of a pool pipe, a TCP frame, or a JSONL trace line.

Engine instruments
------------------
The packet engine is *not* instrumented with new hooks. Every engine
metric drains from counters the ``__slots__`` layout already carries and
both kernels already bump — ``Simulator.events_processed`` /
``sched_pushes``, the per-port :class:`~repro.net.link.PortStats`
(sent/trimmed/dropped by cause), and the
:class:`~repro.net.stats.StatsCollector` failure ledger. The compiled
kernel writes those slots through the same member descriptors the python
engine uses (see :mod:`repro.net.kernel`), so a ``REPRO_KERNEL=py`` and a
``=c`` run of the same cell produce *identical* snapshots by
construction, and draining at run end cannot perturb the simulation it
measures. The one honest caveat: "scheduler depth" is the depth observed
at drain time (a gauge), not a true high-water mark — tracking high-water
would require a per-push hook in both kernels, i.e. exactly the armed-run
perturbation this design refuses.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Iterator, Mapping

# NOTE: repro.scenarios.encode is imported lazily inside portable() /
# validate_snapshot(): the scenarios package's runner imports this module
# at load time, so a module-level import here would be circular whenever
# repro.obs loads first.

__all__ = [
    "armed",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "iter_ports",
    "drop_cause_totals",
    "drain_network",
    "merge_snapshots",
    "validate_snapshot",
]

#: Falsy spellings of ``REPRO_TELEMETRY``.
_OFF = ("", "0", "false", "off")

#: Fixed FCT histogram bucket upper bounds, in whole microseconds. Fixed
#: (not adaptive) so two runs of the same cell — or the same cell under
#: both kernels — always bucket identically.
FCT_BUCKET_BOUNDS_US: tuple[int, ...] = (10, 100, 1_000, 10_000, 100_000)


def armed() -> bool:
    """Process-wide telemetry arming: ``REPRO_TELEMETRY=1``.

    Read from the environment per call (it is one dict lookup) so spawned
    pool and TCP workers inherit the arming with zero plumbing — the same
    propagation path ``REPRO_CHAOS`` uses.
    """
    return os.environ.get("REPRO_TELEMETRY", "") not in _OFF


class Counter:
    """Monotonic integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Point-in-time integer observation (last value or high-water)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value

    def high_water(self, value: int) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram of integer observations.

    ``bounds`` are inclusive upper bounds; observations above the last
    bound land in the overflow bucket, so ``counts`` has
    ``len(bounds) + 1`` entries. Bounds are fixed at construction —
    deterministic bucketing is what lets py and c kernel snapshots
    compare with ``==``.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Iterable[int]) -> None:
        self.bounds = tuple(bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be distinct and ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value: int) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value


class MetricsRegistry:
    """Name -> instrument map with deterministic snapshots.

    ``counter``/``gauge``/``histogram`` are get-or-create (re-requesting
    a name returns the live instrument); a histogram re-request must
    agree on bounds. ``snapshot()`` emits plain data sorted by name, so
    equal registries snapshot to equal objects regardless of creation
    order.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge()
        return inst

    def histogram(self, name: str, bounds: Iterable[int]) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(bounds)
        elif inst.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return inst

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view: ``{"counters": ..., "gauges": ...,
        "histograms": {name: {"bounds": (...), "counts": [...], ...}}}``."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": h.bounds,
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def portable(self) -> Any:
        """The snapshot in the self-describing portable encoding.

        This is the wire/cache-side-channel form: histogram bounds are
        tuples, and :func:`~repro.scenarios.encode.to_portable` is what
        guarantees they come back as tuples — the same round-trip
        contract shard-cell values rely on.
        """
        from ..scenarios.encode import to_portable

        return to_portable(self.snapshot())


#: The process-wide registry worker entry points snapshot and reset.
REGISTRY = MetricsRegistry()


def validate_snapshot(snapshot: Any) -> dict[str, Any]:
    """Schema-check one snapshot (plain or portable form); return plain.

    Raises ``ValueError`` on any malformed section — CI's
    ``telemetry-smoke`` job runs trace-recorded snapshots through this.
    """
    from ..scenarios.encode import EncodeError, from_portable

    try:
        snapshot = from_portable(snapshot)
    except EncodeError:
        pass  # already the plain form (live tuples are not portable nodes)
    if not isinstance(snapshot, dict) or snapshot.keys() != {
        "counters",
        "gauges",
        "histograms",
    }:
        raise ValueError("snapshot must have counters/gauges/histograms")
    for section in ("counters", "gauges"):
        for name, value in snapshot[section].items():
            if not isinstance(name, str) or not isinstance(value, int):
                raise ValueError(f"bad {section} entry {name!r}: {value!r}")
    for name, hist in snapshot["histograms"].items():
        if not isinstance(hist, dict) or set(hist) != {
            "bounds",
            "counts",
            "count",
            "total",
        }:
            raise ValueError(f"bad histogram {name!r}: {hist!r}")
        bounds, counts = tuple(hist["bounds"]), list(hist["counts"])
        if len(counts) != len(bounds) + 1:
            raise ValueError(f"histogram {name!r}: counts/bounds mismatch")
        if sum(counts) != hist["count"]:
            raise ValueError(f"histogram {name!r}: count disagrees with sum")
    return snapshot


# -------------------------------------------------------------- engine drain


def iter_ports(net: Any) -> Iterator[Any]:
    """Every :class:`~repro.net.link.Port` of a SimNetwork.

    Walks NICs, ToR-to-host ports, and each topology's fabric/uplink port
    groups — the same enumeration the engine microbenchmark's hop counts
    use (it imports this function).
    """
    for host in net.hosts:
        if host.nic is not None:
            yield host.nic
    yield from getattr(net, "host_ports", {}).values()
    for group in ("uplink_ports", "tor_up", "agg_down", "agg_up", "core_down"):
        for ports in getattr(net, group, []):
            yield from ports.values()
    yield from getattr(net, "fabric_up", [])
    yield from getattr(net, "fabric_down", [])


def drop_cause_totals(net: Any) -> dict[str, int]:
    """Every dropped packet of a run, attributed to exactly one cause.

    ``failure_blackhole`` is the :class:`~repro.net.stats.StatsCollector`
    ledger (packets absorbed by failed components); ``queue_overflow``
    sums the per-port ``dropped_control``/``dropped_bulk`` counters;
    ``undeliverable`` counts dark-circuit discards. The three ledgers are
    disjoint by design (a blackholed packet was never queue pressure —
    see the ``StatsCollector`` docstring), so ``total`` is their sum.
    """
    return net.stats.drop_causes(iter_ports(net))


def drain_network(net: Any, registry: MetricsRegistry | None = None) -> None:
    """Accumulate one finished network's engine counters into ``registry``.

    Called at run end (``run_fct_experiment``) when :func:`armed`; every
    value read is an integer both kernels maintained identically during
    the run, so the drain is pure observation. Multiple networks drained
    into one registry accumulate (a unit that simulates several networks
    reports their sum).
    """
    reg = REGISTRY if registry is None else registry
    sim = net.sim
    sim_counters = sim.counters()
    for name, value in sim_counters.items():
        if name == "pending":
            continue
        reg.counter(f"engine.{name}").inc(value)
    # Depth at drain time, not high-water: see the module docstring.
    reg.gauge("engine.sched_depth_at_drain").high_water(sim_counters["pending"])

    port_totals: dict[str, int] = {}
    for port in iter_ports(net):
        for name, value in port.stats.counters().items():
            port_totals[name] = port_totals.get(name, 0) + value
    for name, value in port_totals.items():
        reg.counter(f"port.{name}").inc(value)

    stats = net.stats
    reg.counter("flows.total").inc(len(stats.flows))
    reg.counter("flows.completed").inc(len(stats.completed_flows()))
    reg.counter("flows.affected_by_failures").inc(len(stats.affected_flows))
    reg.counter("flows.unrecoverable").inc(len(stats.unrecoverable_flows))
    reg.counter("drops.failure_blackhole").inc(stats.total_blackholed_packets())
    reg.counter("drops.failure_blackhole_bytes").inc(stats.blackholed_bytes)
    reg.counter("drops.queue_overflow").inc(
        port_totals.get("dropped_control", 0) + port_totals.get("dropped_bulk", 0)
    )
    fct = reg.histogram("flows.fct_us", FCT_BUCKET_BOUNDS_US)
    # Whole-microsecond FCTs (integer division of integer picoseconds):
    # deterministic bucketing, bit-equal across kernels.
    for record in stats.completed_flows():
        fct.observe(record.fct_ps // 1_000_000)


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Sum plain-form snapshots (counters add, gauges take the max,
    same-bounds histograms add) — the ``repro trace`` summary view of a
    whole sweep's engine work."""
    out = MetricsRegistry()
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            out.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            out.gauge(name).high_water(value)
        for name, hist in snap.get("histograms", {}).items():
            merged = out.histogram(name, tuple(hist["bounds"]))
            for i, n in enumerate(hist["counts"]):
                merged.counts[i] += n
            merged.count += hist["count"]
            merged.total += hist["total"]
    return out.snapshot()
