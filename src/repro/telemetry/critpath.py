"""Per-request critical-path attribution.

``usuite overheads`` (:mod:`repro.experiments.figures`) reproduces the paper's
*aggregate* OS-overhead breakdown: summed histograms of softirq service,
runqueue wait, and wire time across a whole run.  This module answers
the per-request question — where did THIS query's tail latency go? — by
tiling the :class:`~repro.telemetry.tracing.Segment`\\ s stamped on a
sampled :class:`~repro.telemetry.tracing.Trace`: the RPC server's
``queue_dwell``, ``app_compute`` and ``leaf_compute``, and the kernel
events the NIC pipeline and scheduler stamp (hardirq + net_rx softirq
service, net_tx softirq, runqueue wait after a message-driven wake, wire
time, balancer backlog dwell).

Attribution is an exact *tiling* of the request's wall-clock interval
``[started_us, finished_us]``: a boundary sweep cuts the interval at every
segment edge and assigns each elementary slice to the highest-priority
category covering it.  Slices no candidate covers become ``app_compute``
(client-side think/parse time and untracked residue).  By construction the
per-category durations sum to the round trip exactly — no gaps, no
overlaps — which the property tests in ``tests/test_critpath.py`` enforce.

Hedged or retried sub-requests are filtered to the winning path: the
mid-tier notes which sub-request ids actually contributed to the merged
reply (:meth:`Trace.note_winner`), and intervals tagged with a losing id
are dropped before tiling.

Priority (high → low) when intervals overlap::

    hardirq > net_rx > net_tx > active_exe > queue_dwell > net
            > leaf_compute > app_compute

Kernel service preempts everything it interrupts; runqueue wait hides
under softirq service on the same core; wire time is the weakest claim
because endpoint work overlapping "the network" is still endpoint work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.tracing import Trace

#: Attribution categories, strongest claim first.  Every microsecond of a
#: sampled request's round trip lands in exactly one of these.
CATEGORIES: Tuple[str, ...] = (
    "hardirq",
    "net_rx",
    "net_tx",
    "active_exe",
    "queue_dwell",
    "net",
    "leaf_compute",
    "app_compute",
)

_PRIORITY: Dict[str, int] = {name: rank for rank, name in enumerate(CATEGORIES)}

def riders(message) -> Tuple[Tuple[Trace, Optional[int]], ...]:
    """The sampled traces riding on a wire message, with sub-request ids.

    Duck-typed so the kernel layer never imports :mod:`repro.rpc`: a plain
    request/response exposes ``.trace``/``.request_id``; a batch envelope
    or reply hides traced sub-messages under ``.payload.subrequests`` /
    ``.payload.responses``.  A batched event is amortized across its
    sub-requests, so each distinct trace is returned once (first rider's
    id wins).  Untraced messages return ``()``.
    """
    trace = getattr(message, "trace", None)
    payload = getattr(message, "payload", None)
    subs = getattr(payload, "subrequests", None)
    if subs is None:
        subs = getattr(payload, "responses", None)
    if subs is None:
        if trace is None:
            return ()
        return ((trace, getattr(message, "request_id", None)),)
    found: List[Tuple[Trace, Optional[int]]] = []
    seen = set()
    if trace is not None:
        found.append((trace, getattr(message, "request_id", None)))
        seen.add(id(trace))
    for sub in subs:
        sub_trace = getattr(sub, "trace", None)
        if sub_trace is not None and id(sub_trace) not in seen:
            seen.add(id(sub_trace))
            found.append((sub_trace, getattr(sub, "request_id", None)))
    return tuple(found)


def stamp(
    telemetry, carried, machine: str, category: str,
    start_us: float, end_us: float, us: float,
) -> None:
    """Land one kernel interval on the traces riding it.

    The one place the kernel layer does so: every trace in ``carried`` (a
    :func:`riders` tuple) gets ``[start_us, end_us]`` under ``category``,
    and the hub's ``attributed`` channel counts the interval once.  ``us``
    is the duration as the caller sampled it, never re-derived here:
    ``(now + x) - now`` differs from ``x`` in the last bit, and
    :func:`crosscheck` compares ``attributed`` by equality.
    """
    for trace, rid in carried:
        trace.add_segment(category, machine, start_us, end_us, rid)
    telemetry.record_attributed(machine, category, us)


@dataclass
class Attribution:
    """Exact decomposition of one request's round trip.

    ``categories`` tiles ``total_us`` exactly; ``by_machine`` splits the
    same microseconds per ``(machine, category)`` with the residual under
    machine ``"-"``.
    """

    request_id: int
    total_us: float
    categories: Dict[str, float] = field(default_factory=dict)
    by_machine: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def dominant(self) -> str:
        """Category with the largest attributed share."""
        return max(CATEGORIES, key=lambda c: self.categories.get(c, 0.0))

    @property
    def tiling_error_us(self) -> float:
        """|sum(categories) - total_us| — zero by construction."""
        return abs(sum(self.categories.values()) - self.total_us)


def _keep(trace: Trace, request_id: Optional[int]) -> bool:
    """Winner filter: drop intervals tagged with a losing hedge/retry id."""
    if request_id is None or request_id == trace.request_id:
        return True
    if not trace.winners:
        return True  # no hedging happened; every sub-request "won"
    return request_id in trace.winners


def _candidates(trace: Trace) -> List[Tuple[int, str, str, float, float]]:
    """(priority, category, machine, start, end) intervals for tiling:
    the closed segments of the winning path, in list order, which breaks
    ties between equal claims."""
    return [
        (_PRIORITY[seg.category], seg.category, seg.machine,
         seg.start_us, seg.end_us)
        for seg in trace.segments
        if seg.end_us is not None and _keep(trace, seg.request_id)
    ]


def attribute(trace: Trace) -> Attribution:
    """Tile a finished trace's round trip into :data:`CATEGORIES`.

    Raises ``ValueError`` on an unfinished trace.  The returned
    :class:`Attribution` satisfies ``sum(categories) == total_us`` exactly
    (floating error only from summing the identical boundary arithmetic).
    """
    if trace.finished_us is None:
        raise ValueError(f"trace #{trace.request_id} is not finished")
    lo, hi = trace.started_us, trace.finished_us
    attr = Attribution(request_id=trace.request_id, total_us=hi - lo)
    candidates = [
        (prio, cat, machine, max(lo, start), min(hi, end))
        for prio, cat, machine, start, end in _candidates(trace)
        if min(hi, end) > max(lo, start)
    ]
    boundaries = {lo, hi}
    for _, _, _, start, end in candidates:
        boundaries.add(start)
        boundaries.add(end)
    cuts = sorted(boundaries)

    for left, right in zip(cuts, cuts[1:]):
        best: Optional[Tuple[int, str, str]] = None
        for prio, cat, machine, start, end in candidates:
            if start <= left and end >= right:
                if best is None or prio < best[0]:
                    best = (prio, cat, machine)
        if best is None:
            cat, machine = "app_compute", "-"
        else:
            _, cat, machine = best
        width = right - left
        attr.categories[cat] = attr.categories.get(cat, 0.0) + width
        key = (machine, cat)
        attr.by_machine[key] = attr.by_machine.get(key, 0.0) + width
    return attr


def aggregate(attributions: Iterable[Attribution]) -> Dict[str, float]:
    """Summed µs per category across many per-request attributions."""
    totals: Dict[str, float] = {name: 0.0 for name in CATEGORIES}
    for attr in attributions:
        for name, us in attr.categories.items():
            totals[name] += us
    return totals


def tail_exemplars(traces: Sequence[Trace], k: int = 5) -> List[Dict[str, object]]:
    """The ``k`` slowest finished traces with their dominant category.

    Ties on total latency break by request id so exemplar mining is
    deterministic across runs.
    """
    finished = [t for t in traces if t.finished_us is not None]
    finished.sort(key=lambda t: (-(t.finished_us - t.started_us), t.request_id))
    out: List[Dict[str, object]] = []
    for trace in finished[: max(0, k)]:
        attr = attribute(trace)
        out.append(
            {
                "request_id": attr.request_id,
                "total_us": attr.total_us,
                "dominant": attr.dominant,
                "categories": {
                    name: attr.categories.get(name, 0.0) for name in CATEGORIES
                },
            }
        )
    return out


def crosscheck(
    traces: Sequence[Trace],
    telemetry,
    machines: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """Aggregate consistency between per-request stamps and telemetry.

    For each softirq category the per-trace (unclipped) segment sums over
    ``machines`` are compared against the run's interrupt histograms — the
    same numbers ``usuite overheads`` (Figs. 15-18) plots.
    ``active_exe`` is compared against the telemetry ``attributed``
    channel, which records the identical microseconds at the stamping
    site, and additionally reported as coverage of the full runqueue-wait
    histogram (always < 1: idle-timeout re-wakes are real runqueue waits
    that no request caused).

    Returns ``{category: {"trace_us", "telemetry_us", "rel_err"}}`` plus
    an ``"active_exe_runqlat"`` entry whose ``rel_err`` is the coverage
    shortfall rather than a tolerance violation.
    """
    trace_sums: Dict[str, float] = {name: 0.0 for name in CATEGORIES}
    for trace in traces:
        for seg in trace.segments:
            if seg.end_us is not None and seg.machine in machines:
                trace_sums[seg.category] += seg.duration_us

    def entry(category: str, telemetry_us: float) -> Dict[str, float]:
        trace_us = trace_sums[category]
        denom = max(telemetry_us, 1e-9)
        return {
            "trace_us": trace_us,
            "telemetry_us": telemetry_us,
            "rel_err": abs(trace_us - telemetry_us) / denom,
        }

    report: Dict[str, Dict[str, float]] = {}
    for kind in ("hardirq", "net_rx", "net_tx"):
        total = sum(telemetry.irq_hist(m, kind).total for m in machines)
        report[kind] = entry(kind, total)
    attributed = sum(
        telemetry.attributed_total(m, "active_exe") for m in machines
    )
    report["active_exe"] = entry("active_exe", attributed)
    runqlat = sum(telemetry.runqlat_hist(m).total for m in machines)
    report["active_exe_runqlat"] = entry("active_exe", runqlat)
    return report
