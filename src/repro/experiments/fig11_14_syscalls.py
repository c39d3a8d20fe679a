"""Figs. 11-14: OS system-call invocations per query, by service and load.

The paper's finding, which this module verifies: ``futex`` is the most-
invoked syscall for every service, and — counter-intuitively — futex
invocations *per query* are highest at **low** load, because parked
thread pools thundering-herd awake (and deadline waits re-fire) on every
sparse arrival.  ``sendmsg`` / ``recvmsg`` / ``epoll_pwait`` follow.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import runner
from repro.experiments.characterize import (
    CharacterizationResult,
    characterize_services,
)
from repro.experiments.tables import render_table

#: Figure number per service, as in the paper.
FIGURE_OF = {"hdsearch": 11, "router": 12, "setalgebra": 13, "recommend": 14}

#: Syscalls the paper's figures break out, in their x-axis order.
REPORTED_SYSCALLS = (
    "mprotect", "openat", "brk", "sendmsg", "epoll_pwait", "write", "read",
    "recvmsg", "close", "futex", "clone", "mmap", "munmap",
)


def format_syscall_profile(
    service_name: str, by_load: Dict[float, CharacterizationResult]
) -> str:
    """One figure as a table: rows = syscalls, columns = loads."""
    loads = sorted(by_load)
    headers = ["syscall"] + [f"per query @{int(qps)}" for qps in loads]
    rows = []
    for syscall in REPORTED_SYSCALLS:
        row = [syscall]
        for qps in loads:
            row.append(round(by_load[qps].syscalls_per_query.get(syscall, 0.0), 2))
        rows.append(row)
    fig = FIGURE_OF.get(service_name, "?")
    return f"Fig. {fig} — {service_name} syscalls per query\n" + render_table(headers, rows)


def dominant_syscall(cell: CharacterizationResult) -> str:
    """The most-invoked syscall in one (service, load) cell."""
    profile = cell.syscalls_per_query
    return max(profile, key=profile.get) if profile else ""


#: Registry entry: ``usuite syscalls``.
EXPERIMENT = runner.Experiment(
    name="syscalls",
    help="Figs 11-14: syscall profile",
    run=characterize_services,
    format=lambda results: "\n\n".join(
        format_syscall_profile(service, by_load)
        for service, by_load in results.items()
    ) + "\n",
    flags=runner.COMMON + (runner.services_flag(), runner.loads_flag()),
)
