"""Flow bookkeeping: completion times and delivered-throughput series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.timing import PS_PER_S

__all__ = ["FlowRecord", "StatsCollector"]


@dataclass
class FlowRecord:
    """Lifecycle of one flow."""

    flow_id: int
    src_host: int
    dst_host: int
    size_bytes: int
    traffic_class: str
    start_ps: int
    end_ps: int | None = None
    delivered_bytes: int = 0
    retransmissions: int = 0

    @property
    def complete(self) -> bool:
        return self.end_ps is not None

    @property
    def fct_ps(self) -> int | None:
        if self.end_ps is None:
            return None
        return self.end_ps - self.start_ps


class StatsCollector:
    """Tracks flows, a binned goodput time series, and failure drops.

    Queue-overflow drops stay where they always were — on the per-port
    counters (``PortStats.dropped_control``/``dropped_bulk``/``trimmed``).
    The *failure* counters here are a separate ledger: packets absorbed by
    a blackholed component (a failed fiber, switch or ToR; see
    :mod:`repro.net.failures`) are never queue pressure, and conflating
    the two would make a failed link look like congestion.
    """

    def __init__(self, throughput_bin_ps: int = 1_000_000_000) -> None:
        self.flows: dict[int, FlowRecord] = {}
        self.throughput_bin_ps = throughput_bin_ps
        self._bins: dict[int, int] = {}
        #: Packets/bytes absorbed by failed components, by packet kind
        #: bucket ("bulk" / "ll_data" / "control").
        self.blackholed_packets: dict[str, int] = {}
        self.blackholed_bytes = 0
        #: Flows that lost at least one packet to a blackhole.
        self.affected_flows: set[int] = set()
        #: Flows the recovery layer gave up on (an endpoint's ToR died).
        self.unrecoverable_flows: set[int] = set()

    # ----------------------------------------------------------------- flows

    def flow_started(self, record: FlowRecord) -> FlowRecord:
        if record.flow_id in self.flows:
            raise ValueError(f"duplicate flow id {record.flow_id}")
        self.flows[record.flow_id] = record
        return record

    def delivered(self, flow_id: int, n_bytes: int, now_ps: int) -> None:
        record = self.flows[flow_id]
        record.delivered_bytes += n_bytes
        self._bins[now_ps // self.throughput_bin_ps] = (
            self._bins.get(now_ps // self.throughput_bin_ps, 0) + n_bytes
        )
        if record.delivered_bytes >= record.size_bytes and record.end_ps is None:
            record.end_ps = now_ps

    # --------------------------------------------------------------- failures

    def blackholed(self, flow_id: int, bucket: str, n_bytes: int) -> None:
        """Count one packet absorbed by a failed component."""
        self.blackholed_packets[bucket] = (
            self.blackholed_packets.get(bucket, 0) + 1
        )
        self.blackholed_bytes += n_bytes
        if flow_id in self.flows:
            self.affected_flows.add(flow_id)

    def total_blackholed_packets(self) -> int:
        return sum(self.blackholed_packets.values())

    def drop_causes(self, ports) -> dict[str, int]:
        """Every dropped packet attributed to exactly one cause.

        ``failure_blackhole`` is this collector's ledger; queue overflow
        and dark-circuit discards come from the per-port counters of
        ``ports`` (an iterable of :class:`~repro.net.link.Port`). The
        ledgers are disjoint by design (see the class docstring), so
        ``total`` is their straight sum — the invariant
        ``tests/test_obs.py`` pins under both kernels.
        """
        queue_overflow = 0
        undeliverable = 0
        for port in ports:
            stats = port.stats
            queue_overflow += stats.dropped_control + stats.dropped_bulk
            undeliverable += stats.undeliverable
        blackholed = self.total_blackholed_packets()
        return {
            "failure_blackhole": blackholed,
            "queue_overflow": queue_overflow,
            "undeliverable": undeliverable,
            "total": blackholed + queue_overflow + undeliverable,
        }

    def recovery_time_ps(self, failure_ps: int) -> int | None:
        """Time from the failure until every affected, recoverable flow
        completed — the tentpole's per-row recovery metric.

        ``None`` while any affected flow (not written off as
        unrecoverable) is still incomplete; ``0`` when nothing was hit.
        """
        pending = self.affected_flows - self.unrecoverable_flows
        if not pending:
            return 0
        worst = 0
        for flow_id in pending:
            record = self.flows[flow_id]
            if record.end_ps is None:
                return None
            worst = max(worst, record.end_ps - failure_ps)
        return max(0, worst)

    # ------------------------------------------------------------------ FCTs

    def completed_flows(self) -> list[FlowRecord]:
        return [f for f in self.flows.values() if f.complete]

    def completion_fraction(self) -> float:
        if not self.flows:
            return 1.0
        return len(self.completed_flows()) / len(self.flows)

    def fct_percentile_us(
        self,
        percentile: float,
        size_range: tuple[int, int] | None = None,
        traffic_class: str | None = None,
    ) -> float | None:
        """FCT percentile in microseconds over completed flows."""
        fcts = sorted(
            f.fct_ps
            for f in self.completed_flows()
            if (size_range is None or size_range[0] <= f.size_bytes < size_range[1])
            and (traffic_class is None or f.traffic_class == traffic_class)
        )
        if not fcts:
            return None
        if not 0 <= percentile <= 100:
            raise ValueError("percentile must be in [0, 100]")
        idx = min(len(fcts) - 1, max(0, math.ceil(percentile / 100 * len(fcts)) - 1))
        return fcts[idx] / 1e6

    def mean_fct_us(self, size_range: tuple[int, int] | None = None) -> float | None:
        fcts = [
            f.fct_ps
            for f in self.completed_flows()
            if size_range is None or size_range[0] <= f.size_bytes < size_range[1]
        ]
        if not fcts:
            return None
        return sum(fcts) / len(fcts) / 1e6

    # ------------------------------------------------------------ throughput

    def throughput_series(
        self, n_hosts: int, link_rate_bps: int = 10_000_000_000
    ) -> list[tuple[float, float]]:
        """``(time_ms, normalized goodput)`` per bin (Figure 8's y-axis)."""
        if not self._bins:
            return []
        aggregate = n_hosts * link_rate_bps
        out = []
        for index in range(max(self._bins) + 1):
            delivered = self._bins.get(index, 0)
            bits_per_s = delivered * 8 * PS_PER_S / self.throughput_bin_ps
            out.append(
                (
                    index * self.throughput_bin_ps / 1e9,
                    bits_per_s / aggregate,
                )
            )
        return out

    def total_delivered_bytes(self) -> int:
        return sum(f.delivered_bytes for f in self.flows.values())

    def delivered_bytes_between(self, start_ps: int, end_ps: int) -> int:
        """Payload bytes delivered in ``[start_ps, end_ps)`` (bin sums).

        Windows are snapped to whole throughput bins, so callers should
        align measurement windows to ``throughput_bin_ps`` (the dynamic
        failure scenario uses this to measure the goodput dip around an
        injected failure).
        """
        if end_ps <= start_ps:
            return 0
        first = start_ps // self.throughput_bin_ps
        last = (end_ps - 1) // self.throughput_bin_ps
        return sum(self._bins.get(i, 0) for i in range(first, last + 1))
