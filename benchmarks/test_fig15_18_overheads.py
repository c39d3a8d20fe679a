"""Figs. 15-18 benchmark: OS-overhead latency breakdown on the mid-tier.

Regenerates each figure's eight-category breakdown and checks the paper's
claims: Active-Exe (runqueue wait) dominates every other OS category at
every load, and TCP retransmissions stay single-digit per window (§VI-C).
"""

import pytest

from benchmarks.conftest import BENCH_LOADS
from repro.experiments.characterize import OVERHEAD_KINDS
from repro.experiments.figures import OVERHEADS_FIGURE_OF, active_exe_dominates
from repro.suite.registry import SERVICE_NAMES


@pytest.mark.parametrize("service", SERVICE_NAMES)
def test_fig15_18_overhead_breakdown(benchmark, char_cache, service):
    def run():
        return {qps: char_cache(service, qps) for qps in BENCH_LOADS}

    cells = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\nFig{OVERHEADS_FIGURE_OF[service]} {service} (p99 in us):")
    for kind in OVERHEAD_KINDS:
        series = "  ".join(
            f"@{int(qps)}={cells[qps].overheads[kind].percentile(99):8.1f}"
            for qps in BENCH_LOADS
        )
        print(f"  {kind:>10}: {series}")

    for qps in BENCH_LOADS:
        cell = cells[qps]
        # Active-Exe dominates all pure-OS categories (paper headline).
        assert active_exe_dominates(cell), f"{service}@{qps}"
        # Every category actually recorded samples.
        for kind in OVERHEAD_KINDS:
            assert cell.overheads[kind].count > 0, f"{kind} empty at {qps}"
        # Single-digit TCP retransmissions per window (§VI-C).
        assert cell.retransmissions < 10

    share = cells[1_000.0].tail_share_of("active_exe")
    benchmark.extra_info["active_exe_tail_share_at_1k"] = round(share, 2)
    # Scheduler wakeups are a substantial share of the mid-tier tail.
    assert share > 0.1
