"""Topology, dataset, and calibration scales for the four services.

The paper's testbed (Table II: 40C/80T Skylake, 10 Gbit/s, Linux 4.13)
serves ~10-16 K QPS per service.  Simulating 80-core machines over 30 s
windows is wasteful in a discrete-event simulator, so a *scale* bundles:

* a scaled topology (leaf count × cores, mid-tier cores, pool sizes), and
* per-service **target mean leaf service times**, chosen so that the
  analytic saturation ``total_leaf_cores / (fanout × mean_service_time)``
  lands at the paper's Fig. 9 values (HDSearch ≈ 11.5 K, Router ≈ 12 K,
  Set Algebra ≈ 16.5 K, Recommend ≈ 13 K QPS).

Service builders *self-calibrate*: they sample the real algorithm's work
units over the query set and set the per-unit cost so the mean matches the
target, letting the latency distribution's shape come from genuine
algorithmic variation.

Knobs are grouped into typed sub-configs — :class:`TopologyConfig`,
:class:`LbConfig`, and the runtime's own ``BatchConfig``
(:mod:`repro.rpc.batching`) and ``CacheConfig`` (:mod:`repro.midcache`)
— instead of one flat namespace; a flat keyword (``n_leaves=2``,
``batch_enable=True``, …) is an unknown field, so the dataclass rejects
it with ``TypeError`` like any other misspelling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Mapping

from repro.control.config import ControlConfig
from repro.energy.config import EnergyConfig
from repro.midcache import CacheConfig
from repro.rpc.batching import BatchConfig
from repro.rpc.loadbalance import canonical_policy
from repro.rpc.server import RuntimeConfig
from repro.telemetry.config import TelemetryConfig


@dataclass(frozen=True)
class TopologyConfig:
    """Machine counts and core counts for one service deployment."""

    # Leaf count (Router: shard count) and per-machine cores; Router sizes
    # its cores from services.router.service's constants instead.
    n_leaves: int = 4
    leaf_cores: int = 4
    midtier_cores: int = 8
    # Scale-out: replicate the mid-tier N times behind a front-end load
    # balancer (repro.rpc.loadbalance).  All replicas share the same leaf
    # shards.  1 (the default) reproduces the paper's single-mid-tier
    # topology exactly — no balancer is built and no extra randomness is
    # drawn, so goldens are unaffected.
    midtier_replicas: int = 1
    # Router's replicated pools: n_leaves shards × replicas leaves
    # (paper: 16 × 3).
    router_replicas: int = 3

    def __post_init__(self):
        for name, count in asdict(self).items():
            if count < 1:
                raise ValueError(f"{name} must be >= 1: {count}")


@dataclass(frozen=True)
class LbConfig:
    """Front-end load balancer knobs (active when midtier_replicas > 1)."""

    # round-robin | random | least-outstanding | power-of-two
    # (see repro.rpc.loadbalance.POLICY_NAMES).
    policy: str = "round-robin"
    # Per-replica connection pool: max requests in flight per replica
    # before the balancer queues in its FIFO backlog.
    pool_size: int = 128

    def __post_init__(self):
        # The name is kept as given ("p2c" stays "p2c"); only its validity
        # is checked here, so a bad knob fails even with one replica.
        canonical_policy(self.policy)
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1: {self.pool_size}")


_SUB_CONFIG_TYPES: Dict[str, type] = {
    "topology": TopologyConfig,
    "lb": LbConfig,
    "batch": BatchConfig,
    "cache": CacheConfig,
    "control": ControlConfig,
    "telemetry": TelemetryConfig,
    "midtier_runtime": RuntimeConfig,
    "leaf_runtime": RuntimeConfig,
    "router_midtier_runtime": RuntimeConfig,
    "energy": EnergyConfig,
}


#: ServiceScale's dataset sizes: a 0 builds an empty service or dies in numpy.
_DATASET_SIZES = ("hds_points", "hds_dims", "hds_k", "router_keys", "setalgebra_docs",
                  "setalgebra_vocab", "recommend_users", "recommend_items",
                  "recommend_ratings", "n_queries")


@dataclass(frozen=True)
class ServiceScale:
    """Everything size-dependent about one experiment configuration."""

    name: str

    # Typed knob groups (see the classes above).
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    lb: LbConfig = field(default_factory=LbConfig)
    # Leaf-request batching and the mid-tier result cache.  Off by
    # default: nothing is constructed and every golden stays bit-identical.
    batch: BatchConfig = field(default_factory=BatchConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    # Closed-loop control plane (repro.control).  Off by default: no
    # controller, no telemetry windows, no warm replicas — bit-identical
    # to a build without this field.
    control: ControlConfig = field(default_factory=ControlConfig)
    # Telemetry aggregation mode (repro.telemetry.config).  Buffered by
    # default: the historical in-memory hub is constructed and every
    # committed golden stays byte-identical; "streaming" spills windowed
    # deltas to a JSONL stream at O(windows) resident memory.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    # Per-core energy accounting (repro.energy).  Off by default: no
    # account is constructed, no scheduler hook fires, and every
    # committed golden stays byte-identical.
    energy: EnergyConfig = field(default_factory=EnergyConfig)

    midtier_runtime: RuntimeConfig = field(
        default_factory=lambda: RuntimeConfig(
            network_threads=4, worker_threads=16, response_threads=8
        )
    )
    leaf_runtime: RuntimeConfig = field(
        default_factory=lambda: RuntimeConfig(network_threads=2, worker_threads=6)
    )
    # Router's proxy parses and routes in the network threads under the
    # completion-queue lock (McRouter-style); that lock is its bottleneck.
    router_midtier_runtime: RuntimeConfig = field(
        default_factory=lambda: RuntimeConfig(
            network_threads=4,
            worker_threads=8,
            response_threads=4,
            parse_in_network_thread=True,
        )
    )

    # Dataset sizes (scaled stand-ins for 500K images / 4.3M docs / ...).
    hds_points: int = 8000
    hds_dims: int = 64
    hds_k: int = 10
    router_keys: int = 5000
    setalgebra_docs: int = 3000
    setalgebra_vocab: int = 4000
    recommend_users: int = 160
    recommend_items: int = 100
    recommend_ratings: int = 6000
    n_queries: int = 2000

    # Target mean leaf service time per sub-request, in microseconds.
    # Starting point: total_leaf_cores / (fanout × paper_saturation_qps);
    # then calibrated empirically (secant iterations against measured
    # open-loop overload capacity) to land each service's peak sustainable
    # throughput at the paper's Fig. 9 value.  The analytic budget misses
    # per-request OS/RPC overheads and Router's hot Zipf shard, which is
    # why the final numbers differ from the closed-form ones.
    target_leaf_service_us: Dict[str, float] = field(
        default_factory=lambda: {
            "hdsearch": 247.0,
            # Router leaves are memcached-fast; its mid-tier is the
            # bottleneck (see services.router.service.MIDTIER_CORES).
            "router": 60.0,
            "setalgebra": 176.0,
            "recommend": 222.0,
        }
    )
    # Mid-tier request-path compute targets (tens of microseconds: "its
    # computation typically takes tens of microseconds", §I).
    target_midtier_service_us: Dict[str, float] = field(
        default_factory=lambda: {
            "hdsearch": 40.0,
            "router": 75.0,
            "setalgebra": 15.0,
            "recommend": 10.0,
        }
    )

    def __post_init__(self):
        for name in _DATASET_SIZES:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1: {getattr(self, name)}")

    def with_overrides(self, **kwargs: Any) -> "ServiceScale":
        """A copy with some fields replaced (``topology=...``,
        ``n_queries=...``); an unknown field is a ``TypeError``."""
        return replace(self, **kwargs)

    # -- round-trip serialization ----------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-data dict that :meth:`from_dict` reconstructs exactly."""
        out: Dict[str, Any] = {}
        for f in fields(ServiceScale):
            value = getattr(self, f.name)
            if f.name in _SUB_CONFIG_TYPES:
                out[f.name] = asdict(value)
            elif isinstance(value, dict):
                out[f.name] = dict(value)
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceScale":
        """Rebuild a :class:`ServiceScale` from :meth:`to_dict` output."""
        kwargs: Dict[str, Any] = {}
        for key, value in data.items():
            sub_type = _SUB_CONFIG_TYPES.get(key)
            if sub_type is not None and isinstance(value, Mapping):
                kwargs[key] = sub_type(**value)
            else:
                kwargs[key] = value
        return cls(**kwargs)


#: "small" keeps full topology but tiny datasets — the benchmark default.
#: "unit" shrinks topology too, for fast unit tests.
SCALES: Dict[str, ServiceScale] = {
    "small": ServiceScale(name="small"),
    "unit": ServiceScale(
        name="unit",
        topology=TopologyConfig(
            n_leaves=2,
            leaf_cores=2,
            midtier_cores=8,
            router_replicas=2,
        ),
        midtier_runtime=RuntimeConfig(
            network_threads=1, worker_threads=4, response_threads=2
        ),
        leaf_runtime=RuntimeConfig(network_threads=1, worker_threads=3),
        hds_points=1500,
        hds_dims=32,
        router_keys=500,
        setalgebra_docs=400,
        setalgebra_vocab=800,
        recommend_users=60,
        recommend_items=40,
        recommend_ratings=900,
        n_queries=300,
    ),
}


__all__ = [
    "BatchConfig",
    "CacheConfig",
    "ControlConfig",
    "EnergyConfig",
    "LbConfig",
    "SCALES",
    "ServiceScale",
    "TopologyConfig",
]
