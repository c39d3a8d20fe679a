"""Fig. 10: end-to-end response latency across loads.

The paper plots violin distributions of end-to-end (mid-tier + leaves)
latency at 100 / 1 000 / 10 000 QPS for every service, and highlights two
effects this module verifies:

* tail latency grows with load, but
* **median latency at 100 QPS is up to ~1.45× higher than at 1 000 QPS**
  (deeper C-states and downclocked cores at low load), and
* worst-case end-to-end tails stay bounded (≤ ~22 ms in the paper).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import runner
from repro.experiments.characterize import (
    CharacterizationResult,
    characterize_services,
)
from repro.experiments.plots import render_distributions
from repro.experiments.tables import render_table


def format_fig10(results: Dict[str, Dict[float, CharacterizationResult]]) -> str:
    """Fig. 10 as a table of latency percentiles (µs) per load."""
    rows = []
    for service, by_load in results.items():
        for qps, cell in sorted(by_load.items()):
            e2e = cell.e2e
            rows.append(
                (
                    service,
                    int(qps),
                    round(e2e.median),
                    round(e2e.percentile(95)),
                    round(e2e.percentile(99)),
                    round(e2e.max or 0),
                    cell.completed,
                )
            )
    return render_table(
        ("service", "load QPS", "p50 us", "p95 us", "p99 us", "max us", "queries"),
        rows,
    )


def low_load_median_inflation(by_load: Dict[float, CharacterizationResult]) -> float:
    """The paper's headline ratio: median at 100 QPS / median at 1 000 QPS."""
    low = by_load[100.0].e2e.median
    mid = by_load[1_000.0].e2e.median
    return low / mid if mid > 0 else 0.0


def format_fig10_report(
    results: Dict[str, Dict[float, CharacterizationResult]], plot: bool = False
) -> str:
    """The table, the low-load inflation ratios, and optional violins."""
    out = [format_fig10(results)]
    for service, by_load in results.items():
        if 100.0 in by_load and 1_000.0 in by_load:
            ratio = low_load_median_inflation(by_load)
            out.append(f"{service}: median(100 QPS) / median(1K QPS) = {ratio:.2f}x")
    if plot:
        for service, by_load in results.items():
            out.append(f"\n{service} end-to-end latency (violin strips):")
            out.append(render_distributions({
                f"@{int(qps)} QPS": cell.e2e.samples()
                for qps, cell in sorted(by_load.items())
            }))
    return "\n".join(out)


#: Registry entry: ``usuite fig10``.
EXPERIMENT = runner.Experiment(
    name="fig10",
    help="end-to-end latency across loads",
    title="Fig. 10 — end-to-end latency across loads",
    run=characterize_services,
    format=format_fig10_report,
    flags=runner.COMMON + (
        runner.services_flag(), runner.loads_flag(),
        runner.plot_flag("render the latency distributions as text violins"),
    ),
)
