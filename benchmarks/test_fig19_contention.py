"""Fig. 19 benchmark: context switches and HITM contention across loads.

Regenerates the per-service CS/HITM series and checks the paper's claims:
both counts grow with load, and HITM (lock cacheline contention) exceeds
CS at every load.
"""

import pytest

from benchmarks.conftest import BENCH_LOADS
from repro.experiments.figures import rates_per_second
from repro.suite.registry import SERVICE_NAMES


@pytest.mark.parametrize("service", SERVICE_NAMES)
def test_fig19_contention(benchmark, char_cache, service):
    def run():
        return {qps: char_cache(service, qps) for qps in BENCH_LOADS}

    cells = benchmark.pedantic(run, rounds=1, iterations=1)

    cs_series, hitm_series = [], []
    for qps in BENCH_LOADS:
        cs, hitm = rates_per_second(cells[qps])
        cs_series.append(cs)
        hitm_series.append(hitm)
    print(f"\nFig19 {service}:")
    for qps, cs, hitm in zip(BENCH_LOADS, cs_series, hitm_series):
        print(f"  @{int(qps):>6}: CS/s={cs:>9.0f}  HITM/s={hitm:>9.0f}  "
              f"HITM/CS={hitm / cs:.2f}")

    benchmark.extra_info["cs_per_s"] = [round(v) for v in cs_series]
    benchmark.extra_info["hitm_per_s"] = [round(v) for v in hitm_series]

    # Both rise with load (paper: counts increase as load increases).
    assert cs_series[0] < cs_series[1] < cs_series[2]
    assert hitm_series[0] < hitm_series[1] < hitm_series[2]
    # HITM exceeds CS at every load (paper: "HITM counts are more than CS").
    for cs, hitm in zip(cs_series, hitm_series):
        assert hitm > cs
