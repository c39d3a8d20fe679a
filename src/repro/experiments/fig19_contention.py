"""Fig. 19: context switches and thread contention (HITM) across loads.

The paper counts mid-tier context switches (``perf``) and HITM events
(Intel hit-Modified PEBS, a proxy for true-sharing lock contention) over
the measurement window at 100 / 1 000 / 10 000 QPS, finding that both
grow with load and that **HITM counts exceed context-switch counts** —
woken thread herds contend on socket locks more often than they switch.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments import runner
from repro.experiments.characterize import (
    CharacterizationResult,
    characterize_services,
)
from repro.experiments.tables import render_table


def rates_per_second(cell: CharacterizationResult) -> Tuple[float, float]:
    """(context switches, HITM) per second of measured window."""
    seconds = cell.duration_us / 1e6
    return cell.context_switches / seconds, cell.hitm / seconds


def format_fig19(results: Dict[str, Dict[float, CharacterizationResult]]) -> str:
    """Fig. 19 as a table (counts normalized per second; the paper's
    absolute counts are per 30 s window on real silicon)."""
    rows = []
    for service, by_load in results.items():
        for qps, cell in sorted(by_load.items()):
            cs_rate, hitm_rate = rates_per_second(cell)
            rows.append(
                (
                    service,
                    int(qps),
                    round(cs_rate),
                    round(hitm_rate),
                    f"{hitm_rate / cs_rate:.2f}" if cs_rate else "-",
                )
            )
    return render_table(
        ("service", "load QPS", "CS/s", "HITM/s", "HITM/CS"), rows
    )


#: Registry entry: ``usuite fig19``.
EXPERIMENT = runner.Experiment(
    name="fig19",
    help="context switches and HITM",
    title="Fig. 19 — context switches and HITM",
    run=characterize_services,
    format=format_fig19,
    flags=runner.COMMON + (runner.services_flag(), runner.loads_flag()),
)
