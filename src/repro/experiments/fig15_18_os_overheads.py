"""Figs. 15-18: latency breakdown of OS operations on the mid-tier.

The paper plots, per service and load, latency distributions for eight
categories: Hardirq, Net_tx, Net_rx, Block, Sched, RCU, Active-Exe (the
``runqlat`` wait from runnable to running), and Net (the net mid-tier
latency).  Its finding, which this module verifies: **Active-Exe
dominates every other OS category** — OS scheduler wakeup delay is the
principal mid-tier overhead — and stacked Active-Exe episodes make up a
large share of the net mid-tier latency tail.

The paper also reports (§VI-C) "only a single-digit number of TCP
re-transmissions for all services"; the retransmission count rides along
in each characterization cell.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import runner
from repro.experiments.characterize import (
    CharacterizationResult,
    OVERHEAD_KINDS,
    characterize_services,
)
from repro.experiments.plots import render_distributions
from repro.experiments.tables import render_table

#: Figure number per service, as in the paper.
FIGURE_OF = {"hdsearch": 15, "router": 16, "setalgebra": 17, "recommend": 18}

#: Paper's reported Active-Exe contribution to mid-tier tails (§VI-C).
PAPER_ACTIVE_EXE_TAIL_SHARE = {
    "hdsearch": 0.50,
    "router": 0.75,
    "setalgebra": 0.87,
    "recommend": 0.64,
}


def format_overheads(
    service_name: str, by_load: Dict[float, CharacterizationResult]
) -> str:
    """One figure as a table: rows = categories, columns = loads (p50/p99)."""
    loads = sorted(by_load)
    headers = ["category"]
    for qps in loads:
        headers += [f"p50 @{int(qps)}", f"p99 @{int(qps)}"]
    rows = []
    for kind in OVERHEAD_KINDS:
        row = [kind]
        for qps in loads:
            hist = by_load[qps].overheads[kind]
            row += [round(hist.median, 2), round(hist.percentile(99), 2)]
        rows.append(row)
    fig = FIGURE_OF.get(service_name, "?")
    retrans = {int(qps): by_load[qps].retransmissions for qps in loads}
    return (
        f"Fig. {fig} — {service_name} OS overhead latencies (µs)\n"
        + render_table(headers, rows)
        + f"\nTCP retransmissions per window: {retrans}"
    )


def active_exe_dominates(cell: CharacterizationResult) -> bool:
    """Does Active-Exe exceed every other pure-OS category at the tail?"""
    active = cell.overheads["active_exe"].percentile(99)
    others = ("hardirq", "net_tx", "net_rx", "block", "sched", "rcu")
    return all(active >= cell.overheads[kind].percentile(99) for kind in others)


def format_overheads_report(
    results: Dict[str, Dict[float, CharacterizationResult]], plot: bool = False
) -> str:
    """Every service's figure, each optionally followed by violins."""
    out = []
    for service, by_load in results.items():
        out.append(format_overheads(service, by_load))
        if plot:
            for qps, cell in sorted(by_load.items()):
                out.append(f"\n{service} @{int(qps)} QPS (violin strips):")
                out.append(render_distributions({
                    kind: cell.overheads[kind].samples()
                    for kind in OVERHEAD_KINDS
                }))
        out.append("")
    return "\n".join(out)


#: Registry entry: ``usuite overheads``.
EXPERIMENT = runner.Experiment(
    name="overheads",
    help="Figs 15-18: OS overhead breakdown",
    run=characterize_services,
    format=format_overheads_report,
    flags=runner.COMMON + (
        runner.services_flag(), runner.loads_flag(),
        runner.plot_flag("render the overhead distributions as text violins"),
    ),
)
