"""Fault-injection subsystem: determinism, inertness, and effect shape."""

import pytest

from repro.experiments.characterize import characterize
from repro.faults import (
    FaultPlan,
    LeafSlowdown,
    LeafStall,
    MidTierPressure,
    NetworkFault,
)
from repro.loadgen.client import _ClientBase
from repro.suite import SimCluster

CELL = dict(scale="small", seed=0, duration_us=120_000.0, warmup_us=60_000.0)


def _run(service="hdsearch", qps=1_000.0, **kwargs):
    _ClientBase._instances = 0
    return characterize(service, qps, **CELL, **kwargs)


def test_empty_plan_is_inert():
    assert not FaultPlan().active
    # Injectors configured to no-op values are inert too.
    assert not FaultPlan(leaf_slowdown=LeafSlowdown(multiplier=1.0)).active
    assert not FaultPlan(leaf_stall=LeafStall(start_us=0, duration_us=0)).active
    assert not FaultPlan(midtier_pressure=MidTierPressure(hog_threads=0)).active
    assert not FaultPlan(network=NetworkFault()).active
    cluster = SimCluster(seed=0, faults=FaultPlan())
    assert cluster.faults is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("extra_delay_us", -10.0),
        ("extra_delay_us", -40.0),
        ("jitter_mean_us", -1.0),
        ("drop_probability", 1.5),
        ("drop_probability", -0.5),
    ],
)
def test_network_fault_rejects_impossible_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"NetworkFault.{field}"):
        NetworkFault(**{field: value})


def test_network_fault_cannot_beat_the_link():
    """A negative extra delay used to land packets before the link allows
    (and, large enough, before the receiver's clock)."""
    with pytest.raises(ValueError, match="extra_delay_us"):
        FaultPlan(network=NetworkFault(extra_delay_us=-10.0, jitter_mean_us=1.0))
    assert NetworkFault(extra_delay_us=0.0, drop_probability=1.0).active


def test_faults_off_bit_identical_to_golden():
    """An inert plan + no tail policy reproduces the golden cell exactly."""
    cell = _run(faults=FaultPlan(), tail_policy=None)
    # The golden-determinism baselines (tests/test_golden_determinism.py).
    assert cell.e2e.mean == 689.4066756064559
    assert cell.e2e.percentile(50) == 686.799181362243
    assert cell.e2e.percentile(99) == 903.6021952644992
    assert cell.context_switches == 5104
    assert cell.hitm == 13981


def test_injected_run_is_deterministic():
    """Same seed + same plan → bit-identical injected metrics."""
    plan = FaultPlan(
        leaf_slowdown=LeafSlowdown(tail_probability=0.05, tail_scale_us=1_500.0)
    )
    a = _run(faults=plan)
    b = _run(faults=plan)
    assert a.e2e.mean == b.e2e.mean
    assert a.e2e.percentile(99) == b.e2e.percentile(99)
    assert a.completed == b.completed
    assert a.extras["counters"] == b.extras["counters"]
    # The injector actually fired (otherwise this test proves nothing).
    inflations = sum(
        count for name, count in a.extras["counters"].items()
        if name.startswith("fault_leaf_inflations:")
    )
    assert inflations > 0


def test_leaf_slowdown_inflates_tail():
    healthy = _run()
    faulted = _run(
        faults=FaultPlan(
            leaf_slowdown=LeafSlowdown(tail_probability=0.05, tail_scale_us=1_500.0)
        )
    )
    assert faulted.e2e.percentile(99) > 1.5 * healthy.e2e.percentile(99)


def test_leaf_injector_draws_are_reproducible():
    """The per-leaf Pareto stream replays exactly for a fixed master seed."""
    plan = FaultPlan(
        leaf_slowdown=LeafSlowdown(tail_probability=0.5, tail_scale_us=100.0)
    )

    def draws():
        cluster = SimCluster(seed=7, faults=plan)
        machine = cluster.machine("leaf0", cores=1, role="leaf", leaf_index=0)
        injector = machine.fault_injector
        assert injector is not None
        return [injector.inflate(10.0) for _ in range(64)]

    first, second = draws(), draws()
    assert first == second
    assert any(value > 10.0 for value in first)  # some draws hit the tail


def test_leaf_crash_drops_queries():
    """A crashed leaf silently loses sub-requests: queries stop completing
    during the outage and resume after the timed recovery."""
    plan = FaultPlan(
        leaf_stall=LeafStall(start_us=70_000.0, duration_us=40_000.0, mode="crash")
    )
    healthy = _run()
    faulted = _run(faults=plan)
    drops = sum(
        count for name, count in faulted.extras["counters"].items()
        if name.startswith("fault_leaf_drops:")
    )
    assert drops > 0
    assert faulted.completed < healthy.completed
    # Recovery happened: queries after the outage still completed.
    assert faulted.completed > 0


def test_leaf_stall_parks_requests():
    plan = FaultPlan(
        leaf_stall=LeafStall(start_us=70_000.0, duration_us=20_000.0, mode="stall")
    )
    healthy = _run()
    faulted = _run(faults=plan)
    stalls = sum(
        count for name, count in faulted.extras["counters"].items()
        if name.startswith("fault_leaf_stalls:")
    )
    assert stalls > 0
    # Parked requests complete after recovery, but the max latency shows
    # the ~20 ms park.
    assert faulted.e2e.max > healthy.e2e.max + 10_000.0


def test_network_fault_drops_and_delays():
    plan = FaultPlan(
        network=NetworkFault(drop_probability=0.02, dst_prefix="hds-leaf")
    )
    faulted = _run(faults=plan)
    assert faulted.extras["counters"].get("fault_net_drops", 0) > 0


def test_midtier_pressure_inflates_tail():
    """CPU antagonists oversubscribing the mid-tier (16 hogs at ~95% duty
    on 8 cores) force RPC threads into the runqueue and push out the
    end-to-end latency distribution."""
    healthy = _run()
    pressured = _run(
        faults=FaultPlan(
            midtier_pressure=MidTierPressure(
                hog_threads=16, busy_us=1_000.0, idle_mean_us=50.0
            )
        )
    )
    assert pressured.e2e.mean > healthy.e2e.mean
    assert pressured.e2e.percentile(99) > 1.5 * healthy.e2e.percentile(99)


def test_bad_stall_mode_rejected():
    with pytest.raises(ValueError):
        LeafStall(start_us=0.0, duration_us=1.0, mode="explode")
