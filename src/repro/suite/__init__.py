"""µSuite's public API: build services, run characterizations.

Typical use::

    from repro.suite import SimCluster, build_service, SCALES

    cluster = SimCluster(seed=0)
    service = build_service("hdsearch", cluster, SCALES["small"])
    result = cluster.run_open_loop(service, qps=1000, duration_us=2_000_000)
    print(result.e2e.summary())
"""

from repro.suite.cluster import (
    RunResult,
    ServiceHandle,
    SimCluster,
    Tier,
    build_tier,
)
from repro.suite.config import (
    SCALES,
    BatchConfig,
    CacheConfig,
    EnergyConfig,
    LbConfig,
    ServiceScale,
    TopologyConfig,
)
from repro.suite.registry import SERVICE_NAMES, build_service

__all__ = [
    "BatchConfig",
    "CacheConfig",
    "EnergyConfig",
    "LbConfig",
    "RunResult",
    "SCALES",
    "SERVICE_NAMES",
    "ServiceHandle",
    "ServiceScale",
    "SimCluster",
    "Tier",
    "TopologyConfig",
    "build_service",
    "build_tier",
]
