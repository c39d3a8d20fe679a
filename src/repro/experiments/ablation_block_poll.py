"""§VII ablation: blocking vs polling front-end reception.

The paper's discussion: blocking conserves CPU but pays OS-induced thread
wakeup latency; polling avoids wakeups but "can be prohibitively expensive
as it wastes CPU time in fruitless poll loops".  This ablation swaps the
mid-tier's reception mode and reports both the latency effect and the CPU
burned spinning, across loads — the trade-off a dynamic block/poll
adaptation system would navigate.
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


def run_block_poll(
    service_name: str = "hdsearch",
    loads: Iterable[float] = (100.0, 1_000.0, 10_000.0),
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: int = 600,
) -> Dict[str, Dict[float, CharacterizationResult]]:
    """Characterize both reception modes across loads."""
    scale = runner.resolve_scale(scale)
    variants = {
        mode: (service_name, scale.with_overrides(
            midtier_runtime=replace(scale.midtier_runtime, reception_mode=mode)
        ))
        for mode in ("blocking", "polling")
    }
    return characterize_grid(variants, loads, seed, min_queries)


def format_block_poll(results: Dict[str, Dict[float, CharacterizationResult]]) -> str:
    """The ablation as a table: latency and syscall cost of each mode."""
    rows = []
    for mode, by_load in results.items():
        for qps, cell in sorted(by_load.items()):
            rows.append(
                (
                    mode,
                    int(qps),
                    round(cell.e2e.median),
                    round(cell.e2e.percentile(99)),
                    round(cell.syscalls_per_query.get("futex", 0.0), 1),
                    round(cell.syscalls_per_query.get("epoll_pwait", 0.0), 1),
                )
            )
    return render_table(
        ("mode", "load QPS", "p50 us", "p99 us", "futex/query", "epoll/query"),
        rows,
    )


#: Registry entry: ``usuite block-poll``.
EXPERIMENT = runner.Experiment(
    name="block-poll",
    help="blocking vs polling reception",
    title="Ablation — blocking vs polling ({service_name})",
    run=run_block_poll,
    format=format_block_poll,
    flags=runner.COMMON + (
        runner.service_flag("service_name"), runner.loads_flag(),
    ),
)
