"""Discrete-event simulation engine (the htsim substitute's core).

Events are ``(time_ps, sequence, callback, args)`` entries on one binary
heap (C-implemented ``heapq``), one entry per event, dispatched in
``(time_ps, sequence)`` order. Time is integer picoseconds throughout —
1500 B at 10 Gb/s serializes in exactly 1,200,000 ps — so event ordering is
exact and runs are bit-for-bit reproducible. Ties break by scheduling
order.

The clock contract of :meth:`Simulator.run` (idle-advance to the horizon,
never past an expired event budget) is stated on the method and pinned by
``tests/test_sim_engine.py``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["Simulator"]


def _callback_name(callback: Callable[..., None]) -> str:
    name = getattr(callback, "__qualname__", None)
    if name is None:  # partials, odd callables
        name = repr(callback)
    return name


class Simulator:
    """Minimal deterministic event loop over one binary heap."""

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "events_processed",
    )

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = 0
        #: Callbacks dispatched.
        self.events_processed = 0

    @property
    def sched_pushes(self) -> int:
        """Scheduler insertions performed — the per-event-cost metric.

        Every sequence number allocated corresponds to exactly one pushed
        entry. Derived, so the hot paths pay nothing to keep it.
        """
        return self._seq

    def counters(self) -> dict[str, int]:
        """Engine counters as plain data, for the telemetry drain.

        Every value is an integer the compiled kernel maintains through
        the same ``__slots__`` member descriptors the pure-Python engine
        writes, so ``REPRO_KERNEL=py`` and ``=c`` runs of the same
        workload report identical counters (``repro.obs.metrics`` relies
        on this for exact py/c snapshot agreement).
        """
        return {
            "events": self.events_processed,
            "sched_entries": self.sched_pushes,
            # Always 0: the engine forms no packet trains. Kept because
            # the sweep benchmark (perfbench/) reads and compares it.
            "trains": 0,
            "pending": self.pending,
        }

    # ------------------------------------------------------------- scheduling

    def _past_error(self, time_ps: int, callback: Callable[..., None]) -> ValueError:
        return ValueError(
            f"cannot schedule {_callback_name(callback)} in the past "
            f"({time_ps} < now={self.now})"
        )

    def at(self, time_ps: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise self._past_error(time_ps, callback)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time_ps, seq, callback, args))

    def after(self, delay_ps: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay_ps``."""
        time_ps = self.now + delay_ps
        if time_ps < self.now:
            raise self._past_error(time_ps, callback)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time_ps, seq, callback, args))

    # ------------------------------------------------------------------- run

    def run(
        self, until_ps: int | None = None, max_events: int | None = None
    ) -> int:
        """Drain events until the horizon/queue is exhausted.

        Returns the number of events processed by this call. ``until_ps``
        is inclusive: events at exactly that time still run.

        Clock contract (relied on by pollers and the scenario runner; see
        ``tests/test_sim_engine.py``):

        * If the run goes idle before the horizon — the queue empties, or
          every remaining event lies beyond ``until_ps`` — the clock
          *advances to* ``until_ps`` even though no event ran there, so
          callers polling in fixed time chunks always make progress.
        * If ``max_events`` stops the run first, ``now`` deliberately stays
          at the last processed event's time, *behind* the horizon: the
          budget expiring says nothing about the interval up to
          ``until_ps`` being quiet, and jumping ahead would let a later
          ``at()`` target a time the clock had silently skipped. This
          includes the boundary case where the budget is exhausted on the
          very last pending event: ``now`` still does not advance, because
          the run cannot know the queue is quiet through ``until_ps``
          without spending another event's worth of budget to look.
        """
        processed = 0
        heap = self._heap
        if max_events is None and until_ps is not None:
            # Hot path: drain to a horizon with no event budget.
            pop = heappop
            while heap and heap[0][0] <= until_ps:
                time_ps, _seq, callback, args = pop(heap)
                self.now = time_ps
                callback(*args)
                processed += 1
        else:
            while heap:
                if until_ps is not None and heap[0][0] > until_ps:
                    break
                if max_events is not None and processed >= max_events:
                    break
                time_ps, _seq, callback, args = heappop(heap)
                self.now = time_ps
                callback(*args)
                processed += 1
        quiet = not heap or (until_ps is not None and heap[0][0] > until_ps)
        if (
            until_ps is not None
            and self.now < until_ps
            and quiet
            and (max_events is None or processed < max_events)
        ):
            # Idle until the horizon: advance the clock so callers polling
            # in fixed time chunks always make progress.
            self.now = until_ps
        self.events_processed += processed
        return processed

    @property
    def pending(self) -> int:
        """Events scheduled but not yet dispatched."""
        return len(self._heap)
