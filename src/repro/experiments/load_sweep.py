"""Latency-vs-offered-load sweep: the hockey-stick curve behind Fig. 10.

The paper samples three loads; this sweep fills in the curve between
them — the flat region, the knee near saturation, and the paper's
low-load inflation on the left edge — for any service.  Useful both as
an experiment and for verifying a calibration change didn't move the
knee.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.experiments import runner
from repro.experiments.characterize import (
    CharacterizationResult,
    characterize_grid,
)
from repro.experiments.fig09_saturation import PAPER_SATURATION_QPS
from repro.experiments.tables import render_table
from repro.suite import ServiceScale


def default_sweep_loads(service_name: str) -> tuple:
    """Loads from 100 QPS to ~95% of the service's paper saturation."""
    saturation = PAPER_SATURATION_QPS.get(service_name, 12_000.0)
    fractions = (0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95)
    return tuple(round(saturation * f) for f in fractions)


def run_load_sweep(
    service_name: str = "hdsearch",
    loads: Optional[Iterable[float]] = None,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: int = 300,
) -> Dict[float, CharacterizationResult]:
    """Characterize the service across the load sweep."""
    if loads is None:
        loads = default_sweep_loads(service_name)
    return characterize_grid(
        {service_name: (service_name, scale)},
        [float(qps) for qps in loads], seed, min_queries,
    )[service_name]


def format_load_sweep(results: Dict[float, CharacterizationResult]) -> str:
    """The sweep as a table plus a crude latency-vs-load sparkline."""
    rows = []
    for qps, cell in sorted(results.items()):
        rows.append(
            (
                int(qps),
                round(cell.e2e.median),
                round(cell.e2e.percentile(95)),
                round(cell.e2e.percentile(99)),
                round(cell.overheads["active_exe"].percentile(99), 1),
                cell.completed,
            )
        )
    table = render_table(
        ("load QPS", "p50 us", "p95 us", "p99 us", "Active-Exe p99", "queries"),
        rows,
    )
    # Sparkline of p99 across the sweep.
    p99s = [cell.e2e.percentile(99) for _qps, cell in sorted(results.items())]
    low, high = min(p99s), max(p99s)
    blocks = "▁▂▃▄▅▆▇█"
    marks = "".join(
        blocks[min(7, int((v - low) / max(high - low, 1e-9) * 7))] for v in p99s
    )
    return f"{table}\np99 vs load: {marks}"


def knee_load(results: Dict[float, CharacterizationResult], factor: float = 2.0) -> float:
    """The lowest offered load whose p99 exceeds ``factor``× the minimum
    p99 across the sweep — where the hockey stick bends."""
    ordered = sorted(results.items())
    floor = min(cell.e2e.percentile(99) for _qps, cell in ordered)
    for qps, cell in ordered:
        if cell.e2e.percentile(99) > factor * floor:
            return qps
    return ordered[-1][0]


#: Registry entry: ``usuite sweep``.
EXPERIMENT = runner.Experiment(
    name="sweep",
    help="latency vs offered load (hockey stick)",
    title="Load sweep — {service_name}",
    run=run_load_sweep,
    format=lambda results: (
        f"{format_load_sweep(results)}\n"
        f"knee (p99 > 2x floor) at ~{knee_load(results):g} QPS"
    ),
    flags=runner.COMMON + (
        runner.service_flag("service_name"), runner.loads_flag(None),
    ),
)
