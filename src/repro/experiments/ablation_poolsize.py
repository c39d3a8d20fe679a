"""§VII ablation: thread-pool sizing.

The paper's discussion: large pools sustain peak load but contend on the
front-end socket, the task queue, and the response socket — "a user-level
thread scheduler that dynamically selects suitable thread pool sizes can
reduce thread contention".  This ablation sweeps the mid-tier worker pool
and reports latency plus the contention probes (futex traffic, HITM).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable

from repro.experiments import runner
from repro.experiments.characterize import (
    CharacterizationResult,
    characterize,
    default_duration_us,
)
from repro.experiments.tables import render_table
from repro.suite import ServiceScale


def run_poolsize(
    service_name: str = "hdsearch",
    worker_counts: Iterable[int] = (1, 2, 4, 8, 16, 32),
    qps: float = 5_000.0,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: int = 800,
) -> Dict[int, CharacterizationResult]:
    """Characterize the service with each mid-tier worker-pool size."""
    scale = runner.resolve_scale(scale)
    duration = default_duration_us(qps, min_queries)
    results: Dict[int, CharacterizationResult] = {}
    for workers in worker_counts:
        runtime = replace(scale.midtier_runtime, worker_threads=workers)
        sized_scale = scale.with_overrides(midtier_runtime=runtime)
        results[workers] = characterize(
            service_name, qps, scale=sized_scale, seed=seed, duration_us=duration
        )
    return results


def format_poolsize(results: Dict[int, CharacterizationResult]) -> str:
    """The sweep as a table."""
    rows = []
    for workers, cell in sorted(results.items()):
        seconds = cell.duration_us / 1e6
        rows.append(
            (
                workers,
                round(cell.e2e.median),
                round(cell.e2e.percentile(99)),
                round(cell.syscalls_per_query.get("futex", 0.0), 1),
                round(cell.hitm / seconds),
                cell.completed,
            )
        )
    return render_table(
        ("workers", "p50 us", "p99 us", "futex/query", "HITM/s", "queries"),
        rows,
    )


def best_pool_size(results: Dict[int, CharacterizationResult], pct: float = 99.0) -> int:
    """The worker count minimizing tail latency (completion-weighted)."""
    viable = {
        workers: cell
        for workers, cell in results.items()
        if cell.completed >= 0.9 * max(c.completed for c in results.values())
    }
    return min(viable, key=lambda w: viable[w].e2e.percentile(pct))


#: Registry entry: ``usuite poolsize``.
EXPERIMENT = runner.Experiment(
    name="poolsize",
    help="worker thread-pool sweep",
    title="Ablation — worker pool sweep ({service_name} @ {qps:g} QPS)",
    run=run_poolsize,
    format=format_poolsize,
    flags=runner.COMMON + (
        runner.service_flag("service_name"), runner.qps_flag(5_000.0),
    ),
)
