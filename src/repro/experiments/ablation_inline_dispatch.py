"""§VII ablation: in-line vs dispatch-based request processing.

The paper's discussion: in-line designs avoid the thread-hop from network
to worker threads (and its wakeup cost), but "are only efficient at low
loads and for short requests"; dispatch pays a hand-off but lets many
workers absorb load.  This ablation swaps the mid-tier's processing mode
and shows the crossover.
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


def run_inline_dispatch(
    service_name: str = "hdsearch",
    loads: Iterable[float] = (100.0, 1_000.0, 10_000.0),
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: int = 600,
) -> Dict[str, Dict[float, CharacterizationResult]]:
    """Characterize both processing modes across loads."""
    scale = runner.resolve_scale(scale)
    variants = {
        mode: (service_name, scale.with_overrides(
            midtier_runtime=replace(scale.midtier_runtime, processing_mode=mode)
        ))
        for mode in ("dispatch", "inline")
    }
    return characterize_grid(variants, loads, seed, min_queries)


def format_inline_dispatch(results: Dict[str, Dict[float, CharacterizationResult]]) -> str:
    """The ablation as a table."""
    rows = []
    for mode, by_load in results.items():
        for qps, cell in sorted(by_load.items()):
            rows.append(
                (
                    mode,
                    int(qps),
                    round(cell.e2e.median),
                    round(cell.e2e.percentile(99)),
                    round(cell.midtier_latency.percentile(99)),
                    cell.completed,
                )
            )
    return render_table(
        ("mode", "load QPS", "p50 us", "p99 us", "mid-tier p99 us", "queries"),
        rows,
    )


def inline_wins_at_low_load(results: Dict[str, Dict[float, CharacterizationResult]]) -> bool:
    """The §VII claim, measured where the design difference lives: in-line
    avoids the network→worker thread-hop, so the mid-tier *request path*
    (query arrival → fan-out sent) is faster at the lowest load.  (The
    end-to-end median barely moves because gRPC-style timed waits keep
    worker cores warm, shrinking the hand-off wakeup.)"""
    low = min(results["inline"])
    inline_req = results["inline"][low].extras["request_path"]
    dispatch_req = results["dispatch"][low].extras["request_path"]
    return inline_req.median <= dispatch_req.median


#: Registry entry: ``usuite inline-dispatch``.
EXPERIMENT = runner.Experiment(
    name="inline-dispatch",
    help="in-line vs dispatched processing",
    title="Ablation — in-line vs dispatch ({service_name})",
    run=run_inline_dispatch,
    format=format_inline_dispatch,
    flags=runner.COMMON + (
        runner.service_flag("service_name"), runner.loads_flag(),
    ),
)
