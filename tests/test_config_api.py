"""The typed config tree: round-trips, unknown fields, and the public API.

ServiceScale's knobs are grouped into frozen sub-configs
(topology/lb/batch/cache/telemetry/energy).  These tests pin the
three contracts: ``to_dict``/``from_dict`` reconstruct a scale exactly;
a flat keyword (``n_leaves=2``) is an unknown field — constructing,
overriding, or deserialising with one raises ``TypeError``; and a
malformed knob is a ``ValueError`` wherever it is built, on both knob
carriers (``ServiceScale`` and ``GraphNode``).
"""

import json
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.graph import GraphConfig, onehop_graph
from repro.rpc.server import RuntimeConfig
from repro.suite import SCALES
from repro.suite.config import (
    BatchConfig,
    CacheConfig,
    EnergyConfig,
    LbConfig,
    ServiceScale,
    TopologyConfig,
)


# -- round-trip serialization ------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCALES))
def test_builtin_scales_round_trip(name):
    scale = SCALES[name]
    rebuilt = ServiceScale.from_dict(scale.to_dict())
    assert rebuilt == scale
    assert rebuilt.to_dict() == scale.to_dict()


def test_round_trip_preserves_nested_overrides():
    scale = SCALES["unit"].with_overrides(
        lb=LbConfig(policy="power-of-two", pool_size=16),
        batch=BatchConfig(enabled=True, max_batch=4, max_wait_us=25.0),
        cache=CacheConfig(enabled=True, capacity=64, ttl_us=1e6, policy="fifo"),
    )
    rebuilt = ServiceScale.from_dict(scale.to_dict())
    assert rebuilt == scale
    assert rebuilt.cache.ttl_us == 1e6
    # The sub-configs come back as the typed classes, not plain dicts.
    assert isinstance(rebuilt.topology, TopologyConfig)
    assert isinstance(rebuilt.cache, CacheConfig)


def test_to_dict_is_plain_data():
    import json

    json.dumps(SCALES["small"].to_dict())  # must not raise


# -- flat keywords are unknown fields -------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"n_leaves": 2}, {"batch_enable": True, "cache_capacity": 99},
    {"definitely_not_a_knob": 1},
])
def test_flat_keyword_is_a_type_error(kwargs):
    with pytest.raises(TypeError):
        ServiceScale(name="t", **kwargs)
    with pytest.raises(TypeError):
        SCALES["unit"].with_overrides(**kwargs)
    with pytest.raises(TypeError):
        ServiceScale.from_dict({"name": "t", **kwargs})


def test_nested_override_leaves_other_groups_alone():
    nested = SCALES["unit"].with_overrides(lb=LbConfig(policy="random"))
    assert nested.lb.policy == "random"
    assert nested.topology == SCALES["unit"].topology


def test_energy_sub_config_rides_the_tree():
    scale = SCALES["unit"].with_overrides(energy=EnergyConfig(enabled=True))
    assert scale.energy.enabled is True
    rebuilt = ServiceScale.from_dict(scale.to_dict())
    assert rebuilt == scale
    assert isinstance(rebuilt.energy, EnergyConfig)
    # The default is off, keeping every committed golden byte-identical.
    assert SCALES["unit"].energy.enabled is False


def test_nested_construction_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        scale = ServiceScale(name="quiet", topology=TopologyConfig(n_leaves=3))
        scale.with_overrides(batch=BatchConfig(enabled=True))
        scale.to_dict()


@pytest.mark.parametrize("field", [
    "n_leaves", "leaf_cores", "midtier_cores", "midtier_replicas",
    "router_replicas",
])
def test_topology_config_rejects_counts_below_one(field):
    # Parent: accepted, then IndexError on ``runtimes[0]`` at build time.
    with pytest.raises(ValueError, match=f"{field} must be >= 1: 0"):
        TopologyConfig(**{field: 0})
    # The same check guards the two other ways a topology is made.
    small = SCALES["small"]
    with pytest.raises(ValueError, match=field):
        ServiceScale.from_dict(
            {**small.to_dict(), "topology": {**small.to_dict()["topology"], field: -1}}
        )
    with pytest.raises(ValueError, match=field):
        small.with_overrides(topology=replace(small.topology, **{field: 0}))


@pytest.mark.parametrize("field", [
    "hds_points", "hds_dims", "hds_k", "router_keys", "setalgebra_docs",
    "setalgebra_vocab", "recommend_users", "recommend_items",
    "recommend_ratings", "n_queries",
])
def test_service_scale_rejects_dataset_sizes_below_one(field):
    # Parent: accepted; hds_k=0 built an HDSearch whose every top-k was
    # empty, n_queries=0 died in numpy, recommend_users=0 reported "more
    # ratings than matrix cells".
    small = SCALES["small"]
    with pytest.raises(ValueError, match=f"{field} must be >= 1: 0"):
        small.with_overrides(**{field: 0})
    with pytest.raises(ValueError, match=field):
        ServiceScale.from_dict({**small.to_dict(), field: -1})


def _graph_dict_with(node_key, value):
    """The one-hop graph's dict with its root node's ``node_key`` set."""
    graph = onehop_graph(n_queries=10).to_dict()
    graph["nodes"][0][node_key] = value
    return graph


@pytest.mark.parametrize("enabled", [False, True])
@pytest.mark.parametrize("knob, field, value", [
    ("batch", "max_batch", 0), ("batch", "max_wait_us", 0),
    ("cache", "capacity", -1), ("cache", "policy", "mru"),
    ("cache", "ttl_us", 0),
])
def test_batch_and_cache_knobs_reject_bad_values_at_construction(
    knob, field, value, enabled
):
    # Parent: the suite's copies took anything; a disabled bad cache was
    # never rejected, an enabled one only when the cluster was built.
    config_type = {"batch": BatchConfig, "cache": CacheConfig}[knob]
    with pytest.raises(ValueError, match=field):
        config_type(enabled=enabled, **{field: value})
    small = SCALES["small"]
    knob_dict = {**small.to_dict()[knob], "enabled": enabled, field: value}
    with pytest.raises(ValueError, match=field):
        small.with_overrides(**{knob: replace(getattr(small, knob), **knob_dict)})
    with pytest.raises(ValueError, match=field):
        ServiceScale.from_dict({**small.to_dict(), knob: knob_dict})
    with pytest.raises(ValueError, match=field):
        GraphConfig.from_dict(_graph_dict_with(knob, knob_dict))


@pytest.mark.parametrize("field, value, match", [
    ("policy", "bogus", "unknown load-balancing policy 'bogus'"),
    ("pool_size", 0, "pool_size must be >= 1: 0"),
])
def test_lb_knobs_reject_bad_values_at_construction(field, value, match):
    # Parent: accepted; with one mid-tier replica no balancer is built, so
    # the bad knob was never checked at all.
    with pytest.raises(ValueError, match=match):
        LbConfig(**{field: value})
    small = SCALES["small"]
    assert small.topology.midtier_replicas == 1
    lb_dict = {**small.to_dict()["lb"], field: value}
    with pytest.raises(ValueError, match=match):
        small.with_overrides(lb=replace(small.lb, **{field: value}))
    with pytest.raises(ValueError, match=match):
        ServiceScale.from_dict({**small.to_dict(), "lb": lb_dict})
    with pytest.raises(ValueError, match=match):
        GraphConfig.from_dict(_graph_dict_with("lb", lb_dict))


def test_lb_policy_alias_is_kept_as_given():
    assert LbConfig(policy="p2c").policy == "p2c"


_ZERO_POOL_CARRIERS = {
    "constructor": lambda runtime: RuntimeConfig(**runtime),
    "ServiceScale.from_dict": lambda runtime: ServiceScale.from_dict(
        {**SCALES["unit"].to_dict(), "midtier_runtime": runtime}
    ),
    "GraphConfig.from_dict": lambda runtime: GraphConfig.from_dict(
        _graph_dict_with("runtime", runtime)
    ),
}


@pytest.mark.parametrize("carrier", sorted(_ZERO_POOL_CARRIERS))
@pytest.mark.parametrize("field", [
    "network_threads", "worker_threads", "response_threads",
])
def test_zero_sized_thread_pool_is_rejected(field, carrier):
    # Parent: accepted; the pool then answered nothing, silently (unit
    # hdsearch at 500 QPS sent 65 queries and completed 0).
    runtime = {**asdict(RuntimeConfig()), field: 0}
    with pytest.raises(ValueError, match=f"{field} must be >= 1: 0"):
        _ZERO_POOL_CARRIERS[carrier](runtime)


def test_committed_graph_configs_round_trip():
    with open(Path(__file__).resolve().parent.parent / "BENCH_graph.json") as f:
        graphs = json.load(f)["graphs"]
    for name in ("onehop", "deep"):
        assert GraphConfig.from_dict(graphs[name]).to_dict() == graphs[name]


# -- the package's public surface -------------------------------------------

def test_repro_package_exports_the_stable_api():
    import repro

    for name in ("build_cluster", "run_experiment", "ServiceScale",
                 "SCALES", "Tracer", "attribute",
                 # PR 10: the energy account and granularity transforms.
                 "EnergyAccount", "EnergyConfig", "EnergyReport",
                 "attribution_energy", "pipeline_graph", "merge_edge",
                 "split_node", "monolith", "work_per_query"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_one_config_class_per_feature():
    import repro
    from repro import midcache
    from repro.rpc import batching

    assert repro.BatchConfig is BatchConfig is batching.BatchConfig
    assert repro.CacheConfig is CacheConfig is midcache.CacheConfig


def test_repro_package_rejects_internals():
    import repro

    with pytest.raises(AttributeError):
        repro.definitely_not_public
