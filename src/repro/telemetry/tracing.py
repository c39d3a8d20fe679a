"""Per-request distributed tracing.

The paper measures *aggregate* distributions (runqlat, syscounts); a
modern microservice deployment also wants per-request critical paths —
where did THIS query's 4 ms go?  A sampled request carries a
:class:`Trace`, and every layer it crosses stamps a :class:`Segment`
onto it under one of the attribution categories of
:mod:`repro.telemetry.critpath`:

* the RPC server: ``queue_dwell`` (mid-tier task-queue dwell, open until
  a worker dequeues the request), ``app_compute`` (mid-tier arrival →
  fan-out sent, and final leaf response, or arrival for a reply with no
  fan-out, → reply sent) and ``leaf_compute`` (each leaf sub-request's
  service time);
* the scheduler, NIC pipeline, balancer and client: runqueue waits,
  softirq service, backlog dwell and wire time, whenever a traced
  message drives them.

:mod:`repro.telemetry.critpath` tiles the request's wall-clock interval
from those segments.

Sampling keeps overhead bounded: the load generator attaches a trace to
every Nth request; untraced requests pay one ``is None`` check.

Machines run ahead of one another on the calendar (a lane may reach a
time before another machine has run its earlier work), so a trace given
the simulation keeps ``segments`` in the order of the clock that
appended them, ties in append order: the order the segments would have
been appended had every machine run in step.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set


@dataclass
class Segment:
    """One interval of a traced request's life.

    ``category`` is one of :data:`repro.telemetry.critpath.CATEGORIES`;
    ``end_us`` is None while the interval is open (see
    :meth:`Trace.end_last`); ``request_id`` names the (sub-)request the
    interval served, so hedged duplicates can be filtered to the winning
    path.
    """

    category: str
    machine: str
    start_us: float
    end_us: Optional[float] = None
    request_id: Optional[int] = None

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class Trace:
    """All segments recorded for one sampled request."""

    request_id: int
    started_us: float
    finished_us: Optional[float] = None
    segments: List[Segment] = field(default_factory=list)
    # Sub-request ids whose response was merged into the reply (losing
    # hedge/retry duplicates never get noted here).
    winners: Set[int] = field(default_factory=set)
    # The simulation whose clock orders appends.  None only for a trace
    # built offline, with no calendar running: it appends plainly.
    sim: Any = field(default=None, repr=False, compare=False)
    # The appending clock of each segment, parallel to ``segments``.
    _clocks: List[float] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def add_segment(
        self,
        category: str,
        machine: str,
        start_us: float,
        end_us: Optional[float] = None,
        request_id: Optional[int] = None,
    ) -> Segment:
        """Stamp one interval onto this trace, after every segment
        appended at or before now; ``end_us=None`` leaves it open."""
        segment = Segment(category, machine, start_us, end_us, request_id)
        sim = self.sim
        if sim is None:
            self.segments.append(segment)
            return segment
        now = sim._now
        clocks = self._clocks
        if clocks and clocks[-1] > now:
            index = bisect_right(clocks, now)
            self.segments.insert(index, segment)
            clocks.insert(index, now)
        else:
            self.segments.append(segment)
            clocks.append(now)
        return segment

    def note_winner(self, request_id: int) -> None:
        """Mark a sub-request's response as merged into the reply."""
        self.winners.add(request_id)

    def end_last(self, category: str, now: float) -> Optional[Segment]:
        """Close the most recent still-open segment of ``category``."""
        for segment in reversed(self.segments):
            if segment.category == category and segment.end_us is None:
                segment.end_us = now
                return segment
        return None


class Tracer:
    """Creates sampled traces and collects completed ones."""

    def __init__(self, sample_every: int = 100, max_traces: int = 1_000):
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.sample_every = sample_every
        self.max_traces = max_traces
        self._counter = 0
        self.finished: List[Trace] = []

    def maybe_trace(self, request_id: int, now: float, sim: Any) -> Optional[Trace]:
        """A new trace for every ``sample_every``-th call, else None;
        ``sim``'s clock orders its segments."""
        self._counter += 1
        if self._counter % self.sample_every != 0:
            return None
        return Trace(request_id=request_id, started_us=now, sim=sim)

    def finish(self, trace: Trace, now: float) -> None:
        """Mark a trace complete and keep it (bounded)."""
        trace.finished_us = now
        if len(self.finished) < self.max_traces:
            self.finished.append(trace)
