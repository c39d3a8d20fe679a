"""Per-request distributed tracing.

The paper measures *aggregate* distributions (runqlat, syscounts); a
modern microservice deployment also wants per-request critical paths —
where did THIS query's 4 ms go?  This tracer records Dapper-style spans
as a request crosses the tiers:

``client_rtt``      the whole round trip, recorded by the load generator
``queue_wait``      mid-tier task-queue dwell (dispatch hand-off)
``request_path``    mid-tier arrival → fan-out sent
``leaf:<name>``     each leaf sub-request's service span
``response_path``   final leaf response arrival → reply sent

Sampling keeps overhead bounded: the load generator attaches a trace to
every Nth request; untraced requests pay one ``is None`` check.

Besides application-level spans, a trace accumulates kernel-level
:class:`Segment`\\ s — runqueue waits, softirq service, wire time —
stamped by the scheduler / NIC pipeline whenever a traced message drives
them.  :mod:`repro.telemetry.critpath` joins both streams into an exact
tiling of the request's wall-clock interval.

Machines run ahead of one another on the calendar (a lane may reach a
time before another machine has run its earlier work), so a trace given
the simulation keeps ``spans`` and ``segments`` in the order of the
clock that appended them, ties in append order: the order the entries
would have been appended had every machine run in step.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set


@dataclass
class Span:
    """One timed segment of a request's life."""

    name: str
    machine: str
    start_us: float
    end_us: Optional[float] = None
    # The RPC (sub-)request this span served, when known.  Lets the
    # attribution engine drop spans from losing hedge/retry paths.
    request_id: Optional[int] = None

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0


@dataclass
class Segment:
    """One kernel-level event interval attributed to a traced request.

    ``category`` is one of :data:`repro.telemetry.critpath.CATEGORIES`;
    ``request_id`` names the (sub-)request whose message drove the event,
    so hedged duplicates can be filtered to the winning path.
    """

    category: str
    machine: str
    start_us: float
    end_us: float
    request_id: Optional[int] = None

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class Trace:
    """All spans recorded for one sampled request."""

    request_id: int
    started_us: float
    spans: List[Span] = field(default_factory=list)
    finished_us: Optional[float] = None
    # Kernel-event intervals (see Segment above), appended in event order.
    segments: List[Segment] = field(default_factory=list)
    # Sub-request ids whose response was merged into the reply (losing
    # hedge/retry duplicates never get noted here).
    winners: Set[int] = field(default_factory=set)
    # The simulation whose clock orders appends.  None only for a trace
    # built offline, with no calendar running: it appends plainly.
    sim: Any = field(default=None, repr=False, compare=False)
    # The appending clock of each span / segment, parallel to the lists.
    _span_clocks: List[float] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _segment_clocks: List[float] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def _file(self, items: list, clocks: List[float], item) -> None:
        """Append ``item``, after every item appended at or before now."""
        sim = self.sim
        if sim is None:
            items.append(item)
            return
        now = sim._now
        if clocks and clocks[-1] > now:
            index = bisect_right(clocks, now)
            items.insert(index, item)
            clocks.insert(index, now)
        else:
            items.append(item)
            clocks.append(now)

    def begin(self, name: str, machine: str, now: float) -> Span:
        span = Span(name=name, machine=machine, start_us=now)
        self._file(self.spans, self._span_clocks, span)
        return span

    def record(
        self,
        name: str,
        machine: str,
        start_us: float,
        end_us: float,
        request_id: Optional[int] = None,
    ) -> Span:
        span = Span(
            name=name, machine=machine, start_us=start_us, end_us=end_us,
            request_id=request_id,
        )
        self._file(self.spans, self._span_clocks, span)
        return span

    def add_segment(
        self,
        category: str,
        machine: str,
        start_us: float,
        end_us: float,
        request_id: Optional[int] = None,
    ) -> None:
        """Stamp one kernel-event interval onto this trace."""
        self._file(
            self.segments, self._segment_clocks,
            Segment(
                category=category, machine=machine,
                start_us=start_us, end_us=end_us, request_id=request_id,
            ),
        )

    def note_winner(self, request_id: int) -> None:
        """Mark a sub-request's response as merged into the reply."""
        self.winners.add(request_id)

    def end_last(self, name: str, now: float) -> Optional[Span]:
        """Close the most recent still-open span called ``name``."""
        for span in reversed(self.spans):
            if span.name == name and span.end_us is None:
                span.end_us = now
                return span
        return None

    @property
    def total_us(self) -> float:
        if self.finished_us is None:
            return 0.0
        return self.finished_us - self.started_us

    def breakdown(self) -> Dict[str, float]:
        """Total duration per span name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration_us
        return out

    def critical_path_gap_us(self) -> float:
        """Round-trip time not covered by any recorded span — the
        network + scheduling residue between tiers."""
        return max(0.0, self.total_us - sum(s.duration_us for s in self.spans))

    def render(self) -> str:
        """A text timeline, one line per span, indented by start order."""
        if not self.spans:
            return f"trace #{self.request_id}: (no spans)"
        origin = self.started_us
        lines = [f"trace #{self.request_id}: {self.total_us:.0f}us total"]
        for span in sorted(self.spans, key=lambda s: s.start_us):
            offset = span.start_us - origin
            lines.append(
                f"  +{offset:8.1f}us  {span.name:<16} {span.duration_us:8.1f}us"
                f"  [{span.machine}]"
            )
        return "\n".join(lines)


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
        ``sim``'s clock orders its spans and segments."""
        self._counter += 1
        if self._counter % self.sample_every != 0:
            return None
        return Trace(request_id=request_id, started_us=now, sim=sim)

    def finish(self, trace: Trace, now: float) -> None:
        """Mark a trace complete and keep it (bounded)."""
        trace.finished_us = now
        if len(self.finished) < self.max_traces:
            self.finished.append(trace)

    def breakdown_summary(self) -> Dict[str, float]:
        """Mean µs per span name across all finished traces."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for trace in self.finished:
            for name, duration in trace.breakdown().items():
                sums[name] = sums.get(name, 0.0) + duration
                counts[name] = counts.get(name, 0) + 1
        return {name: sums[name] / counts[name] for name in sums}
