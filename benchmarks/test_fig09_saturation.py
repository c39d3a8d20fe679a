"""Fig. 9 benchmark: saturation throughput per service.

Regenerates the paper's Fig. 9 bar chart as one row per service and
checks the reproduction criteria: every service saturates in the paper's
band (~10-17 K QPS) and the ordering matches
(HDSearch < Router < Recommend < Set Algebra).
"""

import pytest

from repro.experiments.figures import (
    PAPER_SATURATION_QPS,
    saturation_throughput,
)
from repro.suite.registry import SERVICE_NAMES

_RESULTS = {}


@pytest.mark.parametrize("service", SERVICE_NAMES)
def test_fig09_saturation(benchmark, service):
    qps = benchmark.pedantic(
        saturation_throughput,
        kwargs=dict(service_name=service, scale="small", duration_us=300_000.0),
        rounds=1,
        iterations=1,
    )
    _RESULTS[service] = qps
    paper = PAPER_SATURATION_QPS[service]
    benchmark.extra_info["measured_qps"] = round(qps)
    benchmark.extra_info["paper_qps"] = paper
    print(f"\nFig9 {service}: paper={paper:.0f} QPS  measured={qps:.0f} QPS "
          f"({qps / paper:.2f}x)")
    # Shape criterion: within 0.6-1.6x of the paper's value.
    assert 0.6 * paper < qps < 1.6 * paper


def test_fig09_ordering(benchmark):
    """Paper ordering: Set Algebra saturates highest."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_RESULTS) < 4:
        pytest.skip("per-service saturation benchmarks did not all run")
    assert _RESULTS["hdsearch"] < _RESULTS["setalgebra"]
    assert _RESULTS["router"] < _RESULTS["setalgebra"]
    assert _RESULTS["recommend"] < _RESULTS["setalgebra"]
