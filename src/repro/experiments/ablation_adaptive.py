"""§VII extension: static block/poll vs the adaptive runtime.

The paper's discussion asks for "a dynamic adaptation system that
judiciously chooses" between the block/poll and pool-sizing options this
suite exposes statically.  This experiment sweeps load across three
mid-tier configurations — always-blocking, always-polling, and the
:mod:`repro.rpc.adaptive` monitor — and shows the adaptive runtime
tracking the better static choice at each operating point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable

from repro.experiments import runner
from repro.experiments.characterize import (
    CharacterizationResult,
    characterize_grid,
)
from repro.experiments.tables import render_table
from repro.suite import ServiceScale

VARIANTS = ("blocking", "polling", "adaptive")


def run_adaptive_ablation(
    service_name: str = "hdsearch",
    loads: Iterable[float] = (100.0, 1_000.0, 8_000.0),
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: int = 500,
) -> Dict[str, Dict[float, CharacterizationResult]]:
    """Characterize each variant across loads."""
    scale = runner.resolve_scale(scale)
    variants = {}
    for variant in VARIANTS:
        if variant == "adaptive":
            runtime = replace(scale.midtier_runtime, adaptive=True)
        else:
            runtime = replace(scale.midtier_runtime, reception_mode=variant)
        variants[variant] = (
            service_name, scale.with_overrides(midtier_runtime=runtime)
        )
    return characterize_grid(variants, loads, seed, min_queries)


def format_adaptive_ablation(
    results: Dict[str, Dict[float, CharacterizationResult]]
) -> str:
    """The sweep as a table."""
    rows = []
    for variant, by_load in results.items():
        for qps, cell in sorted(by_load.items()):
            rows.append(
                (
                    variant,
                    int(qps),
                    round(cell.e2e.median),
                    round(cell.e2e.percentile(99)),
                    round(cell.syscalls_per_query.get("epoll_pwait", 0.0), 1),
                    cell.completed,
                )
            )
    return render_table(
        ("variant", "load QPS", "p50 us", "p99 us", "epoll/query", "queries"), rows
    )


def adaptive_tracks_best(
    results: Dict[str, Dict[float, CharacterizationResult]],
    slack: float = 1.15,
) -> bool:
    """True when the adaptive median is within ``slack`` of the better
    static variant at every load."""
    for qps in results["adaptive"]:
        adaptive = results["adaptive"][qps].e2e.median
        best_static = min(
            results["blocking"][qps].e2e.median,
            results["polling"][qps].e2e.median,
        )
        if adaptive > best_static * slack:
            return False
    return True


#: Registry entry: ``usuite adaptive``.
EXPERIMENT = runner.Experiment(
    name="adaptive",
    help="adaptive runtime vs static block/poll",
    title="Extension — adaptive vs static reception ({service_name})",
    run=run_adaptive_ablation,
    format=format_adaptive_ablation,
    flags=runner.COMMON + (
        runner.service_flag("service_name"),
        runner.loads_flag((100.0, 1_000.0, 8_000.0)),
    ),
)
