"""Per-request critical-path trace sweep (``usuite trace``).

``usuite overheads`` (:mod:`repro.experiments.figures`) reproduces the paper's
*aggregate* OS-overhead distributions; :mod:`repro.telemetry.critpath`
decomposes each *sampled request's* round trip into the same categories.
This sweep runs the attribution engine across all four services at the
paper's characterized loads (100 / 1 000 / 10 000 QPS) and commits, per
cell:

* the tiled category shares of summed end-to-end latency (they sum to
  1 exactly — the tiling invariant),
* the mid-tier breakdown of the p99-tail traces, normalized per tail
  trace so cells with different trace counts compare directly,
* the ``top_k`` slowest exemplar traces with their dominant category
  ("p99 is runqueue wait on the mid-tier" falls out of one command), and
* the aggregate cross-check of per-request kernel-event stamps against
  the telemetry histograms the Fig. 15-18 experiment plots.

Every cell runs a fixed *query count* (duration scales as ``1/qps``) so
tail sets are the same size across loads, with ``warmup_us=0`` so the
telemetry window and the sampled traces cover the same events — that is
what makes the cross-check an equality, not an estimate.

Two paper-shape gates ride in the acceptance block:

* **dominance** — in every cell's p99-tail mid-tier breakdown, runqueue
  wait (``active_exe``) exceeds every other pure-OS category (hardirq,
  net_rx, net_tx), the paper's §VI-C finding; and
* **low-load peak** — per-tail-trace mid-tier runqueue wait is monotone
  non-increasing from 100 → 10 000 QPS.  The paper's per-query OS
  overheads hit hardest at *low* load (idle cores wake from deep
  C-states on every request; at high load wakes amortize and queueing
  takes over), the same inflation ``usuite figure-smoke`` gates as
  ``low_load_median_inflation``.

``usuite trace --output BENCH_trace.json`` records the artifact, validated
against the checked-in ``schemas/bench_trace.schema.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.experiments import runner
from repro.experiments.tables import render_table
from repro.suite import ServiceScale
from repro.suite.registry import SERVICE_NAMES
from repro.telemetry import critpath
from repro.telemetry.tracing import Tracer

#: The paper's characterized loads.
LOADS = (100.0, 1_000.0, 10_000.0)

#: Fixed query count per cell: duration scales as ``1/qps`` so every
#: load's p99-tail set has the same cardinality.
QUERIES_PER_CELL = 2_000

#: Traces with total latency at or above this percentile form the
#: "p99 tail" whose mid-tier breakdown the paper-shape gates examine.
TAIL_PERCENTILE = 99.0

#: The aggregate cross-check is gated at this load (it is exact at any
#: load; one designated cell keeps the artifact readable).
CROSSCHECK_QPS = 1_000.0
CROSSCHECK_CATEGORIES = ("hardirq", "net_rx", "net_tx", "active_exe")
CROSSCHECK_TOLERANCE = 0.01

#: Tiling is exact by construction; the tolerance absorbs float summing.
TILING_TOLERANCE_US = 1e-6


def _rebase_exemplars(
    exemplars: List[Dict[str, object]], traces: Sequence
) -> List[Dict[str, object]]:
    """Exemplars with request ids relative to the cell's first sample.

    Request ids number from 1 in each simulation, so a raw id is already
    the same in every run of the cell; this maps that per-run numbering
    to the one the committed artifact records (first sample = 0).
    """
    base = min((trace.request_id for trace in traces), default=0)
    return [
        {**exemplar, "request_id": int(exemplar["request_id"]) - base}
        for exemplar in exemplars
    ]


@dataclass
class TraceCell:
    """One (service, offered load) cell of attributed traces."""

    service: str
    qps: float
    duration_us: float
    sent: int
    completed: int
    traces: int
    e2e_p50_us: float
    e2e_p99_us: float
    max_tiling_error_us: float
    #: Tiled share of summed round-trip time per category (sums to 1).
    category_share: Dict[str, float] = field(default_factory=dict)
    #: Mid-tier µs per category, averaged over the p99-tail traces.
    midtier_tail_us: Dict[str, float] = field(default_factory=dict)
    #: The ``top_k`` slowest traces with their dominant category.
    exemplars: List[Dict[str, object]] = field(default_factory=list)
    #: Per-category {trace_us, telemetry_us, rel_err} consistency rows.
    crosscheck: Dict[str, Dict[str, float]] = field(default_factory=dict)


def measure_trace_cell(
    service: str,
    scale: ServiceScale | str,
    qps: float,
    seed: int = 0,
    queries: int = QUERIES_PER_CELL,
    sample_every: int = 1,
    max_traces: int = 10_000,
    top_k: int = 5,
    telemetry=None,
) -> TraceCell:
    """Run one cell with tracing on and attribute every sampled trace.

    ``sample_every=1`` traces every request, which is what makes the
    telemetry cross-check an equality; sparser sampling still satisfies
    the tiling invariant but leaves the cross-check ungated.
    ``telemetry`` (a :class:`~repro.telemetry.TelemetryConfig`) selects
    the aggregation mode; None keeps the scale's default (buffered).
    """
    tracer = Tracer(sample_every=sample_every, max_traces=max_traces)
    # warmup 0: the telemetry window and the sampled traces then cover
    # the same events, which is what makes ``crosscheck`` an equality.
    result, _handle = runner.open_loop_cell(
        service, qps, queries / qps * 1e6, scale=scale, seed=seed,
        warmup_us=0.0, tracer=tracer, telemetry=telemetry,
    )
    traces = tracer.finished
    attrs, tail = runner.tail_attributions(traces, TAIL_PERCENTILE)
    totals = critpath.aggregate(attrs)
    summed = sum(totals.values())
    mids = set(result.midtier_names)

    tail_mid: Dict[str, float] = {name: 0.0 for name in critpath.CATEGORIES}
    for attr in tail:
        for (machine, category), us in attr.by_machine.items():
            if machine in mids:
                tail_mid[category] += us

    return TraceCell(
        service=service,
        qps=qps,
        duration_us=queries / qps * 1e6,
        sent=result.sent,
        completed=result.completed,
        traces=len(traces),
        e2e_p50_us=result.e2e.percentile(50),
        e2e_p99_us=result.e2e.percentile(99),
        max_tiling_error_us=max(
            (a.tiling_error_us for a in attrs), default=0.0
        ),
        category_share={
            name: (totals[name] / summed if summed > 0 else 0.0)
            for name in critpath.CATEGORIES
        },
        midtier_tail_us={
            name: (tail_mid[name] / len(tail) if tail else 0.0)
            for name in critpath.CATEGORIES
        },
        exemplars=_rebase_exemplars(
            critpath.tail_exemplars(traces, k=top_k), traces
        ),
        crosscheck=critpath.crosscheck(
            traces, result.telemetry, list(mids)
        ),
    )


def run_trace_sweep(
    services: Iterable[str] = SERVICE_NAMES,
    loads: Sequence[float] = LOADS,
    scale: str = "small",
    seed: int = 0,
    queries: int = QUERIES_PER_CELL,
    sample_every: int = 1,
    top_k: int = 5,
    telemetry=None,
) -> dict:
    """The full sweep plus a same-seed double run of one cell, as the
    JSON artifact (validates against bench_trace.schema.json)."""
    scale_name = runner.scale_name(scale)
    services = list(services)
    loads = sorted(loads)
    cells = [
        measure_trace_cell(
            service, scale, qps, seed=seed, queries=queries,
            sample_every=sample_every, top_k=top_k, telemetry=telemetry,
        )
        for service in services for qps in loads
    ]
    repro_qps = (
        CROSSCHECK_QPS if CROSSCHECK_QPS in loads else loads[len(loads) // 2]
    )
    doc = {
        "benchmark": (
            f"per-request critical-path attribution, scale={scale_name} "
            f"({queries} queries/cell, "
            f"sample_every={sample_every}), seed={seed}"
        ),
        "scale": scale_name,
        "seed": seed,
        "queries_per_cell": queries,
        "sample_every": sample_every,
        "categories": list(critpath.CATEGORIES),
        "cells": [asdict(cell) for cell in cells],
        "reproducibility": {"service": services[0], "qps": repro_qps},
    }
    doc["reproducibility"].update(runner.double_run(pinned, doc, telemetry))
    doc["acceptance"] = acceptance(doc)
    return doc


def acceptance(doc: dict) -> Dict[str, object]:
    """The checks committed alongside the data."""
    services = sorted({cell["service"] for cell in doc["cells"]})
    max_tiling = max(
        (cell["max_tiling_error_us"] for cell in doc["cells"]), default=0.0
    )
    traces_everywhere = all(cell["traces"] > 0 for cell in doc["cells"])
    reproducible = doc["reproducibility"]["bit_identical"]

    # Cross-check gate: only exact when every request is traced.
    crosscheck_detail: Dict[str, Dict[str, float]] = {}
    crosscheck_ok = True
    crosscheck_gated = doc["sample_every"] == 1
    for service in services:
        cell = runner.find_row(doc["cells"], service=service, qps=CROSSCHECK_QPS)
        if cell is None or not crosscheck_gated:
            continue
        rel = {
            name: round(cell["crosscheck"][name]["rel_err"], 6)
            for name in CROSSCHECK_CATEGORIES
            if name in cell["crosscheck"]
        }
        crosscheck_detail[service] = rel
        crosscheck_ok = crosscheck_ok and all(
            err <= CROSSCHECK_TOLERANCE for err in rel.values()
        )

    # Paper shape, per service: runqueue wait dominates the other
    # pure-OS categories in every tail breakdown, and peaks at low load.
    dominance_detail: Dict[str, bool] = {}
    low_load_detail: Dict[str, List[float]] = {}
    dominates = True
    peaks_low = True
    for service in services:
        cells = sorted(
            (c for c in doc["cells"] if c["service"] == service),
            key=lambda c: c["qps"],
        )
        service_dominates = all(
            c["midtier_tail_us"]["active_exe"] >= c["midtier_tail_us"][other]
            for c in cells
            for other in ("hardirq", "net_rx", "net_tx")
        )
        series = [round(c["midtier_tail_us"]["active_exe"], 1) for c in cells]
        service_peaks = all(a >= b for a, b in zip(series, series[1:]))
        dominance_detail[service] = service_dominates
        low_load_detail[service] = series
        dominates = dominates and service_dominates
        peaks_low = peaks_low and service_peaks

    checks: Dict[str, object] = {
        "tiling_tolerance_us": TILING_TOLERANCE_US,
        "max_tiling_error_us": max_tiling,
        "tiling_exact": max_tiling <= TILING_TOLERANCE_US,
        "traces_sampled_everywhere": traces_everywhere,
        "crosscheck_qps": CROSSCHECK_QPS,
        "crosscheck_tolerance": CROSSCHECK_TOLERANCE,
        "crosscheck_gated": crosscheck_gated,
        "crosscheck_rel_err": crosscheck_detail,
        "crosscheck_within_tolerance": crosscheck_ok,
        "runqueue_dominates_midtier_tail": dominates,
        "runqueue_dominance_per_service": dominance_detail,
        "runqueue_tail_us_by_load": low_load_detail,
        "runqueue_peaks_at_low_load": peaks_low,
        "bit_reproducible": reproducible,
    }
    checks["pass"] = bool(
        checks["tiling_exact"]
        and traces_everywhere
        and crosscheck_ok
        and dominates
        and peaks_low
        and reproducible
    )
    return checks


def format_trace_sweep(doc: dict, show: int = 3) -> str:
    """Cell table, per-cell exemplars, and the reproducibility verdict."""
    rows = []
    for cell in doc["cells"]:
        share = cell["category_share"]
        rows.append((
            cell["service"],
            f"{cell['qps']:g}",
            cell["traces"],
            round(cell["e2e_p99_us"]),
            f"{share.get('active_exe', 0.0):.1%}",
            f"{share.get('net', 0.0):.1%}",
            f"{share.get('leaf_compute', 0.0):.1%}",
            f"{share.get('queue_dwell', 0.0):.1%}",
            round(cell["midtier_tail_us"].get("active_exe", 0.0), 1),
            f"{cell['max_tiling_error_us']:.1e}",
        ))
    out = ["critical-path attribution cells:"]
    out.append(render_table(
        ("service", "QPS", "traces", "e2e p99", "active_exe", "net",
         "leaf", "queue", "tail AE us", "tiling err"),
        rows,
    ))
    if show > 0:
        out.append("")
        out.append(f"slowest exemplars (top {show} per cell):")
        ex_rows = []
        for cell in doc["cells"]:
            for exemplar in cell["exemplars"][:show]:
                ex_rows.append((
                    cell["service"],
                    f"{cell['qps']:g}",
                    exemplar["request_id"],
                    round(float(exemplar["total_us"])),
                    exemplar["dominant"],
                ))
        out.append(render_table(
            ("service", "QPS", "request", "total us", "dominant"), ex_rows
        ))
    repro = doc["reproducibility"]
    out.append("")
    out.append(
        f"reproducibility ({repro['service']} @ {repro['qps']:g} "
        "QPS, double run): " + runner.reproduced(doc)
    )
    return "\n".join(out)


def pinned(doc: dict, telemetry=None) -> TraceCell:
    """The reproducibility cell from the parameters ``doc`` records, for
    the double run and the drift gate.  ``top_k`` is the exemplar count of
    the grid's matching cell."""
    repro = doc["reproducibility"]
    grid = runner.find_row(doc["cells"], service=repro["service"], qps=repro["qps"])
    return measure_trace_cell(
        repro["service"], doc["scale"], repro["qps"], seed=doc["seed"],
        queries=doc["queries_per_cell"], sample_every=doc["sample_every"],
        top_k=len(grid["exemplars"]), telemetry=telemetry,
    )


#: Registry entry: ``usuite trace``.  The committed bytes were recorded
#: with the buffered hub; the drift gate re-runs the pinned cell through
#: streaming telemetry too — the determinism contract of
#: :mod:`repro.telemetry.stream`.
EXPERIMENT = runner.Experiment(
    name="trace",
    help="per-request critical-path attribution sweep",
    title="Critical-path attribution sweep",
    run=run_trace_sweep,
    format=format_trace_sweep,
    acceptance=acceptance,
    schema="bench_trace.schema.json",
    bench_path="BENCH_trace.json",
    pinned=pinned,
    drift_streaming=True,
    flags=(
        runner.SCALE, runner.SEED, runner.services_flag(),
        runner.loads_flag(None, help="offered loads in QPS "
                          "(default: 100 1000 10000)"),
        runner.queries_flag("queries per cell (default: 2000; duration "
                            "scales 1/qps)"),
        runner.TELEMETRY,
        runner.Flag("--sample-every", type=runner.positive_int, default=1,
                    help="trace every Nth request (1 = all; required for the "
                    "telemetry cross-check gate)"),
    ),
)


__all__ = [
    "CROSSCHECK_QPS", "CROSSCHECK_TOLERANCE", "EXPERIMENT",
    "LOADS", "QUERIES_PER_CELL", "TILING_TOLERANCE_US", "TraceCell",
    "acceptance", "format_trace_sweep", "measure_trace_cell", "pinned",
    "run_trace_sweep",
]
