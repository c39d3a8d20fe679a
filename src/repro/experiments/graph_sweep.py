"""Service-graph tail-amplification sweep (``usuite graph``).

The paper's one-hop services show OS/network overheads per tier; deep
graphs *compound* them (DeathStarBench, arXiv:1905.11055).  This sweep
quantifies that on the committed 5-tier :func:`~repro.graph.exemplar_graph`
against its μSuite-shaped :func:`~repro.graph.onehop_graph` baseline:

* **amplification** — inject the PR 2 Pareto slowdown
  (:class:`~repro.faults.LeafSlowdown`, the fault sweep's scale/alpha) at
  the *storage* node — terminal index 0, one hop from the root in the
  baseline, five tiers deep in the exemplar — and compare the added
  end-to-end p99 (injected minus clean).  The graph shape multiplies
  exposure (16 storage reads per query vs. 4) and upper tiers queue
  behind stragglers, so the same per-execution fault adds super-linearly
  more tail: the gate requires ≥ :data:`AMPLIFICATION_GATE` ×.
* **attribution** — the deep cells run with every request traced; the
  per-machine critical-path delta between injected and clean p99-tail
  traces must assign the majority of the added tail time to the injected
  storage machine (:data:`ATTRIBUTION_GATE`).
* **traffic** — the loadgen upgrade's diurnal + flash-crowd curve drives
  the exemplar via Lewis–Shedler thinning; realized arrivals must match
  the curve's analytic integral within :data:`ARRIVALS_TOLERANCE`, and a
  heterogeneous closed-loop session mix must conserve per-class in-flight
  counts.
* **reproducibility** — the acceptance (deep injected) cell re-runs and
  must be bit-identical.

``usuite graph --output BENCH_graph.json`` records the artifact, validated
against the checked-in ``schemas/bench_graph.schema.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Dict, Optional

from repro.experiments import runner
from repro.experiments.fault_sweep import TAIL_ALPHA, TAIL_SCALE_US, slowdown_plan
from repro.experiments.tables import render_table
from repro.faults import FaultPlan
from repro.graph import GraphConfig, exemplar_graph, onehop_graph
from repro.loadgen.traffic import (
    DiurnalRate,
    FlashCrowd,
    SessionClass,
    SessionLoadGen,
    VariableRateLoadGen,
)
from repro.suite.cluster import drive
from repro.telemetry.tracing import Tracer

#: Offered load for the amplification cells: high enough that the
#: storage tier queues behind Pareto stragglers, below saturation.
QPS = 1_200.0

#: Fixed query count per cell (duration scales as ``1/qps``).
QUERIES_PER_CELL = 2_500

#: Cycling workload size for both graphs (GraphConfig.n_queries).
WORKLOAD_QUERIES = 300

#: The injected fault: each storage execution draws the fault sweep's
#: Pareto tail with this probability (same scale/alpha as BENCH_faults).
INJECT_INTENSITY = 0.02

#: The graphs' storage node: terminal index 0 in both (see exemplar.py).
INJECTED_NODE = "store"
INJECTED_LEAF_INDEX = 0

#: Traces with total latency at or above this percentile form the tail
#: whose per-machine delta the attribution gate examines.
TAIL_PERCENTILE = 99.0

#: Acceptance gates.
AMPLIFICATION_GATE = 1.5
ATTRIBUTION_GATE = 0.5
ARRIVALS_TOLERANCE = 0.10

WARMUP_US = 150_000.0


def injection_plan(intensity: float = INJECT_INTENSITY) -> FaultPlan:
    """The single-deep-leaf slowdown both amplification cells share."""
    return slowdown_plan(intensity, leaves=(INJECTED_LEAF_INDEX,))


@dataclass
class GraphCell:
    """One measured (graph, injected?) cell."""

    graph: str
    injected: bool
    qps: float
    duration_us: float
    sent: int
    completed: int
    e2e_p50_us: float
    e2e_p99_us: float
    #: Tracing (deep cells only): sampled trace count, p99-tail size, and
    #: mean critical-path µs per machine over the tail traces.
    traces: int = 0
    tail_traces: int = 0
    machine_tail_us: Dict[str, float] = field(default_factory=dict)


@dataclass
class TrafficCell:
    """The diurnal + flash-crowd open-loop arrival check."""

    curve: str
    duration_us: float
    expected_arrivals: float
    sent: int
    thinned: int
    completed: int
    rel_err: float


@dataclass
class SessionCell:
    """The heterogeneous closed-loop session-mix check."""

    duration_us: float
    #: class name -> {clients, think_mean_us, completed, max_in_flight}.
    classes: Dict[str, Dict[str, float]]
    conserved: bool


def amplification(doc: dict) -> Dict[str, float]:
    """Added end-to-end p99 (injected − clean), deep vs. one hop."""
    p99 = {name: cell["e2e_p99_us"] for name, cell in doc["cells"].items()}
    added_onehop = p99["onehop_injected"] - p99["onehop_clean"]
    added_deep = p99["deep_injected"] - p99["deep_clean"]
    ratio = added_deep / added_onehop if added_onehop > 0 else 0.0
    return {
        "added_p99_us_onehop": added_onehop,
        "added_p99_us_deep": added_deep,
        "inflation_onehop": (
            p99["onehop_injected"] / p99["onehop_clean"]
            if p99["onehop_clean"] > 0 else 0.0
        ),
        "inflation_deep": (
            p99["deep_injected"] / p99["deep_clean"]
            if p99["deep_clean"] > 0 else 0.0
        ),
        "ratio": ratio,
    }


def attribution(doc: dict) -> Dict[str, object]:
    """Per-machine added tail time (injected − clean deep cells)."""
    injected = doc["cells"]["deep_injected"]["machine_tail_us"]
    clean = doc["cells"]["deep_clean"]["machine_tail_us"]
    injected_machine = (
        f"{doc['graphs']['deep']['name']}-{doc['injection']['node']}"
    )
    added: Dict[str, float] = {}
    for machine in sorted(set(injected) | set(clean)):
        delta = injected.get(machine, 0.0) - clean.get(machine, 0.0)
        if delta > 0:
            added[machine] = delta
    total_added = sum(added.values())
    injected_share = (
        added.get(injected_machine, 0.0) / total_added
        if total_added > 0 else 0.0
    )
    return {
        "injected_machine": injected_machine,
        "added_tail_us_by_machine": added,
        "injected_share": injected_share,
    }


def measure_graph_cell(
    graph: GraphConfig,
    qps: float,
    seed: int = 0,
    queries: int = QUERIES_PER_CELL,
    faults: Optional[FaultPlan] = None,
    traced: bool = False,
    telemetry=None,
) -> GraphCell:
    """Run one open-loop cell of one graph, optionally fault-injected.

    ``telemetry`` (a :class:`~repro.telemetry.TelemetryConfig`) selects
    the aggregation mode; None keeps the historical buffered hub.
    """
    tracer = (
        Tracer(sample_every=1, max_traces=2 * queries) if traced else None
    )
    result, _handle = runner.open_loop_cell(
        graph, qps, queries / qps * 1e6, seed=seed, warmup_us=WARMUP_US,
        faults=faults, tracer=tracer, telemetry=telemetry,
    )
    traces = tracer.finished if tracer is not None else []
    _attrs, tail = runner.tail_attributions(traces, TAIL_PERCENTILE)
    machine_tail: Dict[str, float] = {}
    for attr in tail:
        for (machine, _category), us in attr.by_machine.items():
            machine_tail[machine] = machine_tail.get(machine, 0.0) + us
    return GraphCell(
        graph=graph.name,
        injected=faults is not None,
        qps=qps,
        duration_us=queries / qps * 1e6,
        sent=result.sent,
        completed=result.completed,
        e2e_p50_us=result.e2e.percentile(50),
        e2e_p99_us=result.e2e.percentile(99),
        traces=len(traces),
        tail_traces=len(tail),
        machine_tail_us={
            machine: us / len(tail)
            for machine, us in sorted(machine_tail.items())
        },
    )


def traffic_curve(duration_us: float, base_qps: float) -> FlashCrowd:
    """The sweep's non-constant offered load: a diurnal sinusoid (one and
    a half periods over the run) with a 2.5× flash crowd late in it."""
    return FlashCrowd(
        base=DiurnalRate(
            base_qps=base_qps, amplitude=0.4, period_us=duration_us / 1.5
        ),
        start_us=0.55 * duration_us,
        duration_us=0.2 * duration_us,
        multiplier=2.5,
    )


def measure_traffic_cell(
    graph: GraphConfig,
    qps: float = QPS,
    seed: int = 0,
    queries: int = QUERIES_PER_CELL,
    telemetry=None,
) -> TrafficCell:
    """Drive the exemplar with the variable-rate open loop and compare
    realized arrivals against the curve's analytic integral."""
    duration_us = queries / qps * 1e6
    curve = traffic_curve(duration_us, base_qps=0.8 * qps)
    with runner.build_cluster(
        graph, seed=seed, telemetry=telemetry
    ) as (cluster, handle):
        gen = runner.loadgen(cluster, handle, VariableRateLoadGen, curve=curve)
        result = drive(cluster, handle, gen, 0.0, duration_us)
    # No warm-up, so the window's arrivals are all arrivals since start().
    expected = curve.expected_arrivals(
        gen.started_at, gen.started_at + duration_us
    )
    return TrafficCell(
        curve=(
            f"flash(x{curve.multiplier:g} @ [{curve.start_us:g}, "
            f"{curve.end_us:g}]us) over diurnal(base={curve.base.base_qps:g}, "
            f"amp={curve.base.amplitude:g}, period={curve.base.period_us:g}us)"
        ),
        duration_us=duration_us,
        expected_arrivals=expected,
        sent=result.sent,
        thinned=gen.thinned,
        completed=gen.completed,
        rel_err=(
            abs(result.sent - expected) / expected if expected > 0 else 1.0
        ),
    )


#: The heterogeneous closed-loop mix: interactive users, a slow
#: reporting population, and a small think-free bulk loader.
SESSION_MIX = (
    SessionClass(name="interactive", clients=6, think_mean_us=4_000.0),
    SessionClass(name="reporting", clients=3, think_mean_us=15_000.0),
    SessionClass(name="bulk", clients=2, think_mean_us=0.0),
)


def measure_session_cell(
    graph: GraphConfig,
    seed: int = 0,
    duration_us: float = 800_000.0,
    telemetry=None,
) -> SessionCell:
    """Run the session mix closed-loop and check in-flight conservation."""
    with runner.build_cluster(
        graph, seed=seed, telemetry=telemetry
    ) as (cluster, handle):
        gen = runner.loadgen(cluster, handle, SessionLoadGen, classes=SESSION_MIX)
        drive(cluster, handle, gen, 0.0, duration_us)
    classes = {
        cls.name: {
            "clients": cls.clients,
            "think_mean_us": cls.think_mean_us,
            "completed": gen.completed_by_class[cls.name],
            "max_in_flight": gen.max_in_flight[cls.name],
        }
        for cls in SESSION_MIX
    }
    conserved = all(
        gen.max_in_flight[cls.name] <= cls.clients
        and gen.completed_by_class[cls.name] > 0
        for cls in SESSION_MIX
    )
    return SessionCell(
        duration_us=duration_us, classes=classes, conserved=conserved
    )


def pinned_cell(
    qps: float = QPS,
    queries: int = QUERIES_PER_CELL,
    workload_queries: int = WORKLOAD_QUERIES,
    seed: int = 0,
    intensity: float = INJECT_INTENSITY,
    telemetry=None,
) -> GraphCell:
    """The acceptance (and reproducibility) cell: the deep graph, fault
    injected, every request traced."""
    return measure_graph_cell(
        exemplar_graph(n_queries=workload_queries), qps, seed=seed,
        queries=queries, faults=injection_plan(intensity), traced=True,
        telemetry=telemetry,
    )


def run_graph_sweep(
    qps: float = QPS,
    queries: int = QUERIES_PER_CELL,
    workload_queries: int = WORKLOAD_QUERIES,
    seed: int = 0,
    intensity: float = INJECT_INTENSITY,
    telemetry=None,
) -> dict:
    """The four amplification cells, the traffic checks, and the repro
    double run, as the JSON artifact (validates against
    bench_graph.schema.json)."""
    if qps <= 0:
        raise runner.UsageError(f"qps must be positive: {qps}")
    if queries < 100:
        raise runner.UsageError(
            f"queries must be >= 100 for a usable p99: {queries}"
        )
    if workload_queries < 1:
        raise runner.UsageError(
            f"workload-queries must be >= 1: {workload_queries}"
        )
    if not 0.0 < intensity <= 1.0:
        raise runner.UsageError(
            f"intensity must be in (0, 1]: {intensity}"
        )
    deep = exemplar_graph(n_queries=workload_queries)
    onehop = onehop_graph(n_queries=workload_queries)
    plan = injection_plan(intensity)
    measure = partial(
        measure_graph_cell, qps=qps, seed=seed, queries=queries,
        telemetry=telemetry,
    )
    onehop_clean = measure(onehop)
    onehop_injected = measure(onehop, faults=plan)
    deep_clean = measure(deep, traced=True)
    # The acceptance (deep injected) cell is also the reproducibility
    # cell: its double run's first record is the sweep's fourth cell.
    reproducibility = runner.double_run(
        lambda: pinned_cell(
            qps, queries, workload_queries, seed=seed, intensity=intensity,
            telemetry=telemetry,
        )
    )
    traffic = measure_traffic_cell(
        deep, qps=qps, seed=seed, queries=queries, telemetry=telemetry
    )
    sessions = measure_session_cell(deep, seed=seed, telemetry=telemetry)
    doc = {
        "benchmark": (
            f"service-graph tail amplification, {deep.depth()}-tier "
            f"exemplar vs one hop ({queries} queries/cell "
            f"@ {qps:g} QPS), seed={seed}"
        ),
        "seed": seed,
        "qps": qps,
        "queries_per_cell": queries,
        "workload_queries": workload_queries,
        "injection": {
            "node": INJECTED_NODE,
            "leaf_index": INJECTED_LEAF_INDEX,
            "intensity": intensity,
            "tail_scale_us": TAIL_SCALE_US,
            "tail_alpha": TAIL_ALPHA,
        },
        "graphs": {
            "deep": deep.to_dict(),
            "onehop": onehop.to_dict(),
            "depth": deep.depth(),
            "visits_per_query": deep.visits_per_query(),
        },
        "cells": {
            "onehop_clean": asdict(onehop_clean),
            "onehop_injected": asdict(onehop_injected),
            "deep_clean": asdict(deep_clean),
            "deep_injected": reproducibility["first"],
        },
        "traffic": asdict(traffic),
        "sessions": asdict(sessions),
        "reproducibility": reproducibility,
    }
    doc["amplification"] = amplification(doc)
    doc["attribution"] = attribution(doc)
    doc["acceptance"] = acceptance(doc)
    return doc


def acceptance(doc: dict) -> Dict[str, object]:
    """The checks committed alongside the data."""
    amp = amplification(doc)
    attr = attribution(doc)
    cells, traffic = doc["cells"], doc["traffic"]
    all_completed = all(cell["completed"] > 0 for cell in cells.values())
    traced = cells["deep_clean"]["tail_traces"] > 0 and (
        cells["deep_injected"]["tail_traces"] > 0
    )
    arrivals_ok = traffic["rel_err"] <= ARRIVALS_TOLERANCE
    conserved = doc["sessions"]["conserved"]
    reproducible = doc["reproducibility"]["bit_identical"]
    checks: Dict[str, object] = {
        "cells_completed": all_completed,
        "amplification_gate": AMPLIFICATION_GATE,
        "amplification_ratio": amp["ratio"],
        "amplification_ok": amp["ratio"] >= AMPLIFICATION_GATE,
        "attribution_gate": ATTRIBUTION_GATE,
        "tail_traced": traced,
        "injected_share": attr["injected_share"],
        "attribution_ok": attr["injected_share"] >= ATTRIBUTION_GATE,
        "arrivals_tolerance": ARRIVALS_TOLERANCE,
        "arrivals_rel_err": traffic["rel_err"],
        "arrivals_thinned": traffic["thinned"],
        "arrivals_ok": arrivals_ok,
        "sessions_conserved": conserved,
        "bit_reproducible": reproducible,
    }
    checks["pass"] = bool(
        all_completed
        and traced
        and checks["amplification_ok"]
        and checks["attribution_ok"]
        and arrivals_ok
        and traffic["thinned"] > 0
        and conserved
        and reproducible
    )
    return checks


#: The amplification cells in the order the table (and the sweep) runs them.
CELL_ORDER = ("onehop_clean", "onehop_injected", "deep_clean", "deep_injected")


def format_graph_sweep(doc: dict) -> str:
    """Cell table, amplification verdict, attribution, traffic checks."""
    amp, attr = doc["amplification"], doc["attribution"]
    injection, traffic, sessions = doc["injection"], doc["traffic"], doc["sessions"]
    # In mix order: the keys of a json.load-ed document come back sorted.
    classes = [(cls.name, sessions["classes"][cls.name]) for cls in SESSION_MIX]
    rows = []
    for cell in (doc["cells"][name] for name in CELL_ORDER):
        rows.append((
            cell["graph"],
            "injected" if cell["injected"] else "clean",
            f"{cell['qps']:g}",
            cell["completed"],
            round(cell["e2e_p50_us"]),
            round(cell["e2e_p99_us"]),
            cell["traces"] or "-",
        ))
    out = [
        f"service-graph amplification ({doc['graphs']['depth']} tiers, "
        f"{doc['graphs']['visits_per_query'][injection['node']]:g} storage "
        f"reads per query vs. "
        f"{onehop_visits(doc):g} one hop away; Pareto "
        f"p={injection['intensity']:g} scale={injection['tail_scale_us']:g}us "
        f"alpha={injection['tail_alpha']:g} at "
        f"{injection['node']!r}):",
        render_table(
            ("graph", "faults", "QPS", "done", "p50 us", "p99 us", "traces"),
            rows,
        ),
        "",
        (
            f"added p99: one-hop +{amp['added_p99_us_onehop']:.0f}us, "
            f"deep +{amp['added_p99_us_deep']:.0f}us -> amplification "
            f"{amp['ratio']:.2f}x (gate {AMPLIFICATION_GATE:g}x)"
        ),
        (
            f"attribution: {attr['injected_share']:.1%} of added tail time "
            f"on {attr['injected_machine']} (gate "
            f"{ATTRIBUTION_GATE:.0%})"
        ),
        (
            f"traffic: {traffic['sent']} arrivals vs "
            f"{traffic['expected_arrivals']:.1f} expected "
            f"(rel err {traffic['rel_err']:.3f}, "
            f"{traffic['thinned']} thinned)"
        ),
        (
            "sessions: "
            + ", ".join(
                f"{name} {int(info['completed'])} done "
                f"(max in-flight {int(info['max_in_flight'])}/"
                f"{int(info['clients'])})"
                for name, info in classes
            )
            + (" - conserved" if sessions["conserved"] else " - VIOLATED")
        ),
        "",
        "reproducibility (deep injected cell, double run): " + runner.reproduced(doc),
    ]
    return "\n".join(out)


def onehop_visits(doc: dict) -> float:
    """Storage reads per query in the one-hop baseline."""
    graph = GraphConfig.from_dict(doc["graphs"]["onehop"])
    return graph.visits_per_query()[doc["injection"]["node"]]


def pinned(doc: dict, telemetry=None):
    """Drift probe: the reproducibility cell from its recorded parameters."""
    cell = pinned_cell(
        doc["qps"], doc["queries_per_cell"], doc["workload_queries"],
        seed=doc["seed"], intensity=doc["injection"]["intensity"],
        telemetry=telemetry,
    )
    return cell, doc["reproducibility"]["first"], "deep injected cell"


#: Registry entry: ``usuite graph``.
EXPERIMENT = runner.Experiment(
    name="graph",
    help="service-graph DAG tail-amplification sweep",
    title="Service-graph amplification sweep",
    run=run_graph_sweep,
    format=format_graph_sweep,
    acceptance=acceptance,
    schema="bench_graph.schema.json",
    bench_path="BENCH_graph.json",
    pinned=pinned,
    flags=(
        runner.SEED,
        runner.qps_flag(None, help="offered load per amplification cell "
                        "(default: 1200)"),
        runner.queries_flag("queries per cell (default: 2500; duration "
                            "scales 1/qps)"),
        runner.TELEMETRY,
        runner.Flag("--intensity", type=float, default=None,
                    help="Pareto tail probability at the injected storage "
                    "leaf (default: 0.02)"),
    ),
)


__all__ = [
    "AMPLIFICATION_GATE", "ARRIVALS_TOLERANCE", "ATTRIBUTION_GATE",
    "EXPERIMENT", "INJECTED_NODE", "INJECT_INTENSITY", "QPS",
    "QUERIES_PER_CELL", "WORKLOAD_QUERIES", "GraphCell", "SessionCell",
    "TrafficCell", "acceptance", "amplification", "attribution",
    "format_graph_sweep", "injection_plan", "measure_graph_cell",
    "measure_session_cell", "measure_traffic_cell", "pinned", "pinned_cell",
    "run_graph_sweep", "traffic_curve",
]
