"""Energy-vs-granularity sweep (``usuite energy``).

The source paper blames μSuite's low-load latency inflation on deep
C-states and downclocking — a latency/**energy** tension the kernel
models but, before :mod:`repro.energy`, never accounted.  This sweep
prices the account on two axes:

* **granularity ladder** — the 4-tier :func:`~repro.graph.pipeline_graph`
  is repeatedly coarsened (:func:`~repro.graph.coarsen_once`) down to a
  monolith, holding total cores and
  :func:`~repro.graph.work_per_query` constant, and each rung runs the
  same fixed load.  Finer granularity means more RPC hops per query:
  more active µs of OS/RPC overhead, more wakeup transitions, and idle
  time fragmented into shallower (hungrier) C-states — so window energy
  must rise monotonically with tier count (arXiv:2502.00482's
  energy-vs-granularity tradeoff), with the latency cost quantified
  alongside.
* **low-load deep-sleep tension** — the one-hop baseline at light load,
  once with the default C1/C1E/C6 ladder and once with deep states
  disabled (a C1-only :class:`~repro.kernel.config.OsCosts`).  Staying
  shallow must cut end-to-end p99 (no 85 µs C6 exits on the wake path)
  while burning strictly more idle joules (1.5 W floors instead of
  0.1 W) — the paper's §IV-C tension, now in joules.
* **reproducibility** — the deepest ladder cell re-runs and must be
  dict-for-dict identical, and re-runs again under streaming telemetry,
  which must produce the identical energy aggregate (the report prices
  two snapshots of the account, which never looks at telemetry, so the
  aggregation mode cannot reach it).

``usuite energy --output BENCH_energy.json`` records the artifact,
validated against ``schemas/bench_energy.schema.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.energy import EnergyConfig
from repro.experiments import runner
from repro.experiments.tables import render_table
from repro.graph import GraphConfig, coarsen_once, work_per_query
from repro.graph.exemplar import onehop_graph, pipeline_graph
from repro.kernel.config import CStatePoint, OsCosts
from repro.telemetry import TelemetryConfig

#: Offered load for the granularity ladder: busy enough that every tier
#: serves a steady request stream, far enough below saturation that the
#: queueing structure — not overload — sets the latency differences.
QPS = 600.0

#: Fixed query count per ladder cell (same qps ⇒ same window length, so
#: window joules are directly comparable across rungs).
QUERIES_PER_CELL = 1_000

#: The ladder's finest deployment: a 4-tier linear pipeline.
TIERS = 4

#: The low-load cells: light enough that cores regularly reach C6.
LOWLOAD_QPS = 100.0
LOWLOAD_QUERIES = 400

#: Cycling workload size (GraphConfig.n_queries).
WORKLOAD_QUERIES = 300

WARMUP_US = 150_000.0


def shallow_costs(base: Optional[OsCosts] = None) -> OsCosts:
    """An :class:`OsCosts` with deep C-states disabled (C1 only) — the
    "performance mode" half of the low-load comparison."""
    from dataclasses import replace

    return replace(
        base or OsCosts(), cstates=(CStatePoint(0.0, 1.0, "C1"),)
    )


@dataclass
class EnergyCell:
    """One measured (graph, load, cost-model) cell with its joules."""

    graph: str
    tiers: int
    cstates: str  # "deep" (default ladder) or "shallow" (C1 only)
    qps: float
    duration_us: float
    sent: int
    completed: int
    e2e_p50_us: float
    e2e_p99_us: float
    #: EnergyReport.to_dict() for the measured window.
    energy: Dict[str, object] = field(default_factory=dict)


def granularity_tradeoff(doc: dict) -> Dict[str, object]:
    """Energy and latency versus tier count, plus the deltas the ladder
    (coarse to fine, 1 tier first) exists to expose."""
    ladder = doc["ladder"]
    coarse, fine = ladder[0], ladder[-1]
    total = [cell["energy"]["total_uj"] for cell in ladder]
    return {
        "tiers": [cell["tiers"] for cell in ladder],
        "total_uj": total,
        "uj_per_query": [cell["energy"]["uj_per_query"] for cell in ladder],
        "wakes_total": [
            sum(cell["energy"]["wakes"].values()) for cell in ladder
        ],
        "e2e_p99_us": [cell["e2e_p99_us"] for cell in ladder],
        "monotone_nondecreasing": all(
            earlier <= later for earlier, later in zip(total, total[1:])
        ),
        "energy_ratio_fine_vs_monolith": (
            fine["energy"]["total_uj"] / coarse["energy"]["total_uj"]
            if coarse["energy"]["total_uj"] else 0.0
        ),
        "added_p99_us_fine_vs_monolith": (
            fine["e2e_p99_us"] - coarse["e2e_p99_us"]
        ),
    }


def lowload_tradeoff(doc: dict) -> Dict[str, object]:
    """Deep sleep vs. C1-only at light load: latency and idle joules."""
    deep, shallow = doc["lowload"]["deep"], doc["lowload"]["shallow"]
    return {
        "p99_us_deep": deep["e2e_p99_us"],
        "p99_us_shallow": shallow["e2e_p99_us"],
        "p99_saved_us": deep["e2e_p99_us"] - shallow["e2e_p99_us"],
        "idle_uj_deep": deep["energy"]["idle_uj_total"],
        "idle_uj_shallow": shallow["energy"]["idle_uj_total"],
        "idle_uj_cost": (
            shallow["energy"]["idle_uj_total"] - deep["energy"]["idle_uj_total"]
        ),
        "total_uj_deep": deep["energy"]["total_uj"],
        "total_uj_shallow": shallow["energy"]["total_uj"],
    }


def measure_energy_cell(
    graph: GraphConfig,
    qps: float,
    seed: int = 0,
    queries: int = QUERIES_PER_CELL,
    costs: Optional[OsCosts] = None,
    cstates: str = "deep",
    telemetry: Optional[TelemetryConfig] = None,
) -> EnergyCell:
    """Run one open-loop cell with the energy account enabled."""
    duration_us = queries / qps * 1e6
    result, _handle = runner.open_loop_cell(
        graph, qps, duration_us, seed=seed, warmup_us=WARMUP_US, costs=costs,
        overrides={"energy": EnergyConfig(enabled=True)}, telemetry=telemetry,
    )
    return EnergyCell(
        graph=graph.name,
        tiers=graph.depth(),
        cstates=cstates,
        qps=qps,
        duration_us=duration_us,
        sent=result.sent,
        completed=result.completed,
        e2e_p50_us=result.e2e.percentile(50),
        e2e_p99_us=result.e2e.percentile(99),
        energy=result.energy.to_dict(),
    )


def granularity_ladder(
    tiers: int = TIERS, workload_queries: int = WORKLOAD_QUERIES
) -> List[GraphConfig]:
    """The pipeline coarsened rung by rung, coarse (monolith) first."""
    rungs = [pipeline_graph(tiers, n_queries=workload_queries)]
    while len(rungs[-1].nodes) > 1:
        rungs.append(coarsen_once(rungs[-1]))
    rungs.reverse()
    return rungs


def run_energy_sweep(
    qps: float = QPS,
    queries: int = QUERIES_PER_CELL,
    tiers: int = TIERS,
    lowload_qps: float = LOWLOAD_QPS,
    lowload_queries: int = LOWLOAD_QUERIES,
    workload_queries: int = WORKLOAD_QUERIES,
    seed: int = 0,
    telemetry: Optional[TelemetryConfig] = None,
) -> dict:
    """The ladder, the low-load pair, and both equivalence re-runs, as
    the JSON artifact (validates against bench_energy.schema.json).

    ``telemetry`` configures the measurement cells (the streaming
    equivalence re-run always forces ``mode="streaming"`` regardless).
    """
    if qps <= 0 or lowload_qps <= 0:
        raise runner.UsageError(
            f"qps must be positive: {qps}, {lowload_qps}"
        )
    if queries < 100 or lowload_queries < 100:
        raise runner.UsageError(
            f"queries must be >= 100 for a usable p99: "
            f"{queries}, {lowload_queries}"
        )
    if tiers < 3:
        raise runner.UsageError(
            f"tiers must be >= 3 (the gate needs >= 3 ladder points): {tiers}"
        )
    if workload_queries < 1:
        raise runner.UsageError(
            f"workload-queries must be >= 1: {workload_queries}"
        )
    rungs = granularity_ladder(tiers, workload_queries)
    onehop = onehop_graph(n_queries=workload_queries)

    def rung_cell(graph: GraphConfig, telemetry=telemetry) -> EnergyCell:
        return measure_energy_cell(
            graph, qps, seed=seed, queries=queries, telemetry=telemetry
        )

    def lowload_cell(**cost_model) -> EnergyCell:
        return measure_energy_cell(
            onehop, lowload_qps, seed=seed, queries=lowload_queries,
            telemetry=telemetry, **cost_model,
        )

    # The deepest rung closes the ladder and is the reproducibility cell.
    ladder = [asdict(rung_cell(rung)) for rung in rungs[:-1]]
    reproducibility = runner.double_run(lambda: rung_cell(rungs[-1]))
    ladder.append(reproducibility["first"])
    lowload = {
        "deep": asdict(lowload_cell()),
        "shallow": asdict(lowload_cell(costs=shallow_costs(), cstates="shallow")),
    }
    streaming_energy = rung_cell(rungs[-1], TelemetryConfig(mode="streaming")).energy
    power_model = asdict(EnergyConfig(enabled=True))
    # The schema validator (and JSON) wants arrays, not tuples.
    for table in ("idle_w", "wake_uj"):
        power_model[table] = [list(pair) for pair in power_model[table]]
    doc = {
        "benchmark": (
            f"per-core energy: granularity ladder "
            f"({ladder[0]['tiers']}-{ladder[-1]['tiers']} tiers @ "
            f"{qps:g} QPS) + low-load C-state tension "
            f"(@ {lowload_qps:g} QPS), seed={seed}"
        ),
        "seed": seed,
        "qps": qps,
        "queries_per_cell": queries,
        "lowload_qps": lowload_qps,
        "lowload_queries": lowload_queries,
        "workload_queries": workload_queries,
        "power_model": power_model,
        "work_per_query_us": work_per_query(rungs[-1]),
        "total_cores": sum(node.cores for node in rungs[-1].nodes),
        "ladder": ladder,
        "lowload": lowload,
        "reproducibility": reproducibility,
        # The deepest rung's energy aggregate re-measured under streaming
        # telemetry (must equal the buffered one dict-for-dict).
        "streaming": {
            "identical": ladder[-1]["energy"] == streaming_energy,
            "energy": streaming_energy,
        },
    }
    doc["granularity_tradeoff"] = granularity_tradeoff(doc)
    doc["lowload_tradeoff"] = lowload_tradeoff(doc)
    doc["acceptance"] = acceptance(doc)
    return doc


def acceptance(doc: dict) -> Dict[str, object]:
    """The checks committed alongside the data."""
    granularity = granularity_tradeoff(doc)
    lowload = lowload_tradeoff(doc)
    cells = doc["ladder"] + list(doc["lowload"].values())
    all_completed = all(cell["completed"] > 0 for cell in cells)
    reproducible = doc["reproducibility"]["bit_identical"]
    streaming_identical = doc["streaming"]["identical"]
    checks: Dict[str, object] = {
        "cells_completed": all_completed,
        "ladder_points": len(doc["ladder"]),
        "ladder_points_ok": len(doc["ladder"]) >= 3,
        "energy_monotone_with_tiers": granularity["monotone_nondecreasing"],
        "energy_ratio_fine_vs_monolith": granularity[
            "energy_ratio_fine_vs_monolith"
        ],
        "added_p99_us_fine_vs_monolith": granularity[
            "added_p99_us_fine_vs_monolith"
        ],
        "lowload_shallow_cuts_p99": (
            lowload["p99_us_shallow"] < lowload["p99_us_deep"]
        ),
        "lowload_shallow_raises_idle_uj": (
            lowload["idle_uj_shallow"] > lowload["idle_uj_deep"]
        ),
        "lowload_p99_saved_us": lowload["p99_saved_us"],
        "lowload_idle_uj_cost": lowload["idle_uj_cost"],
        "bit_reproducible": reproducible,
        "streaming_identical": streaming_identical,
    }
    checks["pass"] = bool(
        all_completed
        and checks["ladder_points_ok"]
        and checks["energy_monotone_with_tiers"]
        and checks["lowload_shallow_cuts_p99"]
        and checks["lowload_shallow_raises_idle_uj"]
        and reproducible
        and streaming_identical
    )
    return checks


def format_energy_sweep(doc: dict) -> str:
    """Ladder table, both tradeoffs, and the equivalence verdicts."""
    granularity, lowload = doc["granularity_tradeoff"], doc["lowload_tradeoff"]
    rows = []
    for cell in doc["ladder"]:
        energy = cell["energy"]
        rows.append((
            cell["graph"],
            cell["tiers"],
            f"{cell['qps']:g}",
            cell["completed"],
            round(cell["e2e_p50_us"]),
            round(cell["e2e_p99_us"]),
            f"{energy['total_uj'] / 1e6:.3f}",
            f"{energy['uj_per_query']:.0f}",
            int(sum(energy["wakes"].values())),
            f"{energy['avg_power_w']:.2f}",
        ))
    out = [
        (
            f"energy vs. granularity ({doc['total_cores']} cores, "
            f"{doc['work_per_query_us']:g}us work/query at every rung, "
            f"{doc['queries_per_cell']} queries/cell @ {doc['qps']:g} QPS):"
        ),
        render_table(
            (
                "graph", "tiers", "QPS", "done", "p50 us", "p99 us",
                "J", "uJ/query", "wakes", "avg W",
            ),
            rows,
        ),
        "",
        (
            f"granularity: {doc['ladder'][-1]['tiers']} tiers burn "
            f"{granularity['energy_ratio_fine_vs_monolith']:.2f}x the "
            f"monolith's joules at the same load "
            f"(p99 {granularity['added_p99_us_fine_vs_monolith']:+.0f}us) — "
            + (
                "monotone in tier count"
                if granularity["monotone_nondecreasing"]
                else "NOT monotone"
            )
        ),
        (
            f"low load ({doc['lowload_qps']:g} QPS, one hop): disabling deep "
            f"C-states cuts p99 {lowload['p99_us_deep']:.0f} -> "
            f"{lowload['p99_us_shallow']:.0f}us "
            f"(-{lowload['p99_saved_us']:.0f}us) but raises idle energy "
            f"{lowload['idle_uj_deep'] / 1e6:.3f} -> "
            f"{lowload['idle_uj_shallow'] / 1e6:.3f}J "
            f"(+{lowload['idle_uj_cost'] / 1e6:.3f}J)"
        ),
        "",
        "reproducibility (deepest rung, double run): " + runner.reproduced(doc),
        (
            "streaming telemetry energy aggregate: "
            + ("identical" if doc["streaming"]["identical"] else "DIVERGED")
        ),
    ]
    return "\n".join(out)


def pinned(doc: dict, telemetry=None):
    """Drift probe: the deepest ladder rung from its recorded parameters."""
    first = doc["reproducibility"]["first"]
    cell = measure_energy_cell(
        pipeline_graph(first["tiers"], n_queries=doc["workload_queries"]),
        doc["qps"], seed=doc["seed"], queries=doc["queries_per_cell"],
        telemetry=telemetry,
    )
    label = f"{first['tiers']}-tier rung @ {doc['qps']:g} QPS energy cell"
    return cell, first, label


#: Registry entry: ``usuite energy``.
EXPERIMENT = runner.Experiment(
    name="energy",
    help="per-core joules vs tier granularity + low-load C-state tension",
    title="Energy sweep — tier granularity + low-load C-state tension",
    run=run_energy_sweep,
    format=format_energy_sweep,
    acceptance=acceptance,
    schema="bench_energy.schema.json",
    bench_path="BENCH_energy.json",
    pinned=pinned,
    flags=(
        runner.SEED,
        runner.qps_flag(None, help="offered load per ladder cell "
                        "(default: 600)"),
        runner.queries_flag("queries per ladder cell (default: 1000; "
                            "duration scales 1/qps)"),
        runner.TELEMETRY,
        runner.Flag("--tiers", type=runner.positive_int, default=None,
                    help="pipeline depth of the finest ladder rung "
                    "(default: 4; must be >= 3)"),
        runner.Flag("--lowload-qps", type=float, default=None,
                    help="offered load for the C-state tension pair "
                    "(default: 100)"),
    ),
)


__all__ = [
    "EXPERIMENT", "LOWLOAD_QPS", "LOWLOAD_QUERIES", "QPS",
    "QUERIES_PER_CELL", "TIERS", "WORKLOAD_QUERIES", "EnergyCell",
    "acceptance", "format_energy_sweep", "granularity_ladder",
    "granularity_tradeoff", "lowload_tradeoff", "measure_energy_cell",
    "pinned", "run_energy_sweep", "shallow_costs",
]
