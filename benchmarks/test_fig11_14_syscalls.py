"""Figs. 11-14 benchmark: syscall invocations per query, per service.

Regenerates each figure's per-load syscall profile and checks the paper's
claims: ``futex`` is the most-invoked syscall everywhere, futex calls per
query are highest at low load, and the messaging syscalls
(sendmsg / recvmsg / epoll_pwait) are all present.
"""

import pytest

from benchmarks.conftest import BENCH_LOADS
from repro.experiments.figures import (
    REPORTED_SYSCALLS,
    SYSCALLS_FIGURE_OF,
    dominant_syscall,
)
from repro.suite.registry import SERVICE_NAMES


@pytest.mark.parametrize("service", SERVICE_NAMES)
def test_fig11_14_syscall_profile(benchmark, char_cache, service):
    def run():
        return {qps: char_cache(service, qps) for qps in BENCH_LOADS}

    cells = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\nFig{SYSCALLS_FIGURE_OF[service]} {service} (calls per query):")
    for syscall in ("futex", "epoll_pwait", "sendmsg", "recvmsg", "read", "write"):
        series = "  ".join(
            f"@{int(qps)}={cells[qps].syscalls_per_query.get(syscall, 0.0):7.1f}"
            for qps in BENCH_LOADS
        )
        print(f"  {syscall:>12}: {series}")

    futex_series = [cells[qps].syscalls_per_query["futex"] for qps in BENCH_LOADS]
    benchmark.extra_info["futex_per_query"] = [round(v, 1) for v in futex_series]

    for qps in BENCH_LOADS:
        cell = cells[qps]
        # futex dominates at every load (Figs. 11-14 headline).
        assert dominant_syscall(cell) == "futex", (
            f"{service}@{qps}: dominant={dominant_syscall(cell)}"
        )
        # The messaging syscalls all appear.
        for syscall in ("sendmsg", "recvmsg", "epoll_pwait", "read", "write"):
            assert cell.syscalls_per_query.get(syscall, 0.0) > 0.0
        # Only reported syscalls appear (plus none unknown to the figure).
        for syscall in cell.syscalls_per_query:
            assert syscall in REPORTED_SYSCALLS or syscall in ("nanosleep", "sched_yield")

    # futex per query is highest at the lowest load (paper's finding).
    assert futex_series[0] > futex_series[1] >= futex_series[2] * 0.5
