"""Tests for kernel configuration, cost models, and the fabric link math."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.config import CStatePoint, OsCosts
from repro.net.fabric import LinkSpec
from repro.services.costmodel import LinearCost
from repro.suite import SCALES, SimCluster, build_service


# -- OsCosts ------------------------------------------------------------------

def test_syscall_cost_lookup():
    costs = OsCosts()
    assert costs.syscall_cost("futex") == 1.8
    with pytest.raises(KeyError):
        costs.syscall_cost("not_a_syscall")


def test_cstate_exit_latency_tiers():
    costs = OsCosts()
    c1 = costs.cstate_exit_latency(5.0)
    c1e = costs.cstate_exit_latency(100.0)
    c6 = costs.cstate_exit_latency(10_000.0)
    assert c1[1] == "C1" and c1e[1] == "C1E" and c6[1] == "C6"
    assert c1[0] < c1e[0] < c6[0]


@given(st.floats(min_value=0.0, max_value=1e9))
@settings(max_examples=100, deadline=None)
def test_cstate_exit_latency_monotone(idle_us):
    costs = OsCosts()
    shallow, _ = costs.cstate_exit_latency(idle_us)
    deeper, _ = costs.cstate_exit_latency(idle_us * 2 + 1)
    assert deeper >= shallow


def test_custom_cstate_table():
    costs = OsCosts(cstates=(CStatePoint(0.0, 3.0, "X"),))
    assert costs.cstate_exit_latency(1e9) == (3.0, "X")


# -- LinearCost -----------------------------------------------------------------

def test_linear_cost_evaluation():
    cost = LinearCost(base_us=10.0, per_unit_us=0.5)
    assert cost(0) == 10.0
    assert cost(100) == 60.0


def test_calibrated_hits_target_mean():
    samples = [50.0, 100.0, 150.0]
    cost = LinearCost.calibrated(200.0, samples, base_fraction=0.25)
    mean = sum(cost(u) for u in samples) / len(samples)
    assert mean == pytest.approx(200.0)
    assert cost.base_us == pytest.approx(50.0)


def test_calibrated_zero_units_all_base():
    cost = LinearCost.calibrated(80.0, [0.0, 0.0])
    assert cost(0) == 80.0
    assert cost.per_unit_us == 0.0


def test_calibrated_validates():
    with pytest.raises(ValueError):
        LinearCost.calibrated(0.0, [1.0])
    with pytest.raises(ValueError):
        LinearCost.calibrated(10.0, [1.0], base_fraction=1.0)


@given(
    st.floats(min_value=1.0, max_value=1e5),
    st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=1, max_size=50),
    st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=100, deadline=None)
def test_calibrated_mean_property(target, samples, base_fraction):
    cost = LinearCost.calibrated(target, samples, base_fraction)
    mean = sum(cost(u) for u in samples) / len(samples)
    assert mean == pytest.approx(target, rel=1e-6)
    assert cost.base_us >= 0.0 and cost.per_unit_us >= 0.0


# -- LinkSpec --------------------------------------------------------------------

def test_serialization_delay_scales_with_size():
    link = LinkSpec(gbps=10.0)
    assert link.serialization_us(1250) == pytest.approx(1.0)  # 10 kbit @ 10 Gbps
    assert link.serialization_us(0) == 0.0
    assert link.serialization_us(2500) == 2 * link.serialization_us(1250)


@pytest.mark.parametrize(
    "field, value",
    [
        ("base_latency_us", -5.0),
        ("jitter_mean_us", -1.0),
        ("rto_us", -1.0),
        ("gbps", 0.0),
        ("gbps", -10.0),
        ("loss_probability", 2.0),
        ("loss_probability", -0.1),
        ("base_latency_us", float("nan")),
    ],
)
def test_link_spec_rejects_impossible_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"LinkSpec.{field}"):
        LinkSpec(**{field: value})


def test_link_spec_accepts_its_bounds():
    LinkSpec(0.0, 0.0, gbps=1e12, loss_probability=0.0, rto_us=0.0)
    LinkSpec(loss_probability=1.0)


# -- ServiceScale / registry --------------------------------------------------------

def test_scale_with_overrides_preserves_rest():
    from dataclasses import replace

    scale = SCALES["unit"].with_overrides(
        topology=replace(SCALES["unit"].topology, n_leaves=3),
    )
    assert scale.topology.n_leaves == 3
    assert scale.hds_points == SCALES["unit"].hds_points
    assert SCALES["unit"].topology.n_leaves == 2  # original untouched


def test_all_scales_have_all_service_targets():
    for scale in SCALES.values():
        for service in ("hdsearch", "router", "setalgebra", "recommend"):
            assert scale.target_leaf_service_us[service] > 0
            assert scale.target_midtier_service_us[service] > 0


def test_registry_rejects_unknown_service():
    cluster = SimCluster(seed=0)
    with pytest.raises(KeyError):
        build_service("nope", cluster, SCALES["unit"])


def test_registry_builds_each_service_with_unique_machines():
    cluster = SimCluster(seed=0)
    handles = [
        build_service(name, cluster, SCALES["unit"])
        for name in ("hdsearch", "router", "setalgebra", "recommend")
    ]
    names = [machine.name for machine in cluster.machines]
    assert len(names) == len(set(names))
    assert {h.name for h in handles} == {"hdsearch", "router", "setalgebra", "recommend"}
