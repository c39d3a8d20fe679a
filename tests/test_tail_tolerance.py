"""Tail-tolerance layer: hedges, deadlines, retries, and inertness."""

import pytest

from repro.experiments.characterize import characterize
from repro.faults import FaultPlan, LeafSlowdown, LeafStall
from repro.rpc.policy import DEFAULT_TAIL_POLICY, TailPolicy
from repro.suite import SCALES, SimCluster, build_service

CELL = dict(scale="small", seed=0, duration_us=120_000.0, warmup_us=60_000.0)


def _run(service="hdsearch", qps=1_000.0, **kwargs):
    return characterize(service, qps, **CELL, **kwargs)


def test_policy_validation():
    with pytest.raises(ValueError):
        TailPolicy(deadline_us=0.0)
    with pytest.raises(ValueError):
        TailPolicy(hedge_percentile=100.0)
    with pytest.raises(ValueError):
        TailPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        TailPolicy(hedge_max_fraction=-0.1)
    assert TailPolicy().wants_hedging
    assert not TailPolicy(hedging=False).wants_hedging
    assert not TailPolicy(hedge_max_fraction=0.0).wants_hedging


def test_policy_none_bit_identical_to_golden():
    """tail_policy=None keeps the golden cell bit-identical (the policy
    plumbing itself must not perturb the engine)."""
    cell = _run(tail_policy=None)
    assert cell.e2e.mean == 689.4066756064559
    assert cell.context_switches == 5104


def test_hedging_no_double_count():
    """Aggressive hedging on a healthy cluster: every query still merges
    exactly once and losing duplicates are dropped, not double-counted."""
    policy = TailPolicy(hedge_after_us=400.0, hedge_max_fraction=1.0)
    plain = _run(tail_policy=None)
    hedged = _run(tail_policy=policy)
    tail = hedged.extras["tail"]
    assert tail["hedges_sent"] > 0
    # A duplicate either wins its slot, loses (wasted), or arrives after
    # the parent finished (late) — never a second merge.
    assert tail["hedge_wins"] + tail["hedges_wasted"] + tail["late_responses"] > 0
    # Same arrival process ⇒ same query population; no query completes
    # twice and none is lost.
    assert hedged.completed == plain.completed
    assert hedged.extras["counters"].get("client_partial_replies", 0) == 0


def test_hedging_recovers_slowdown_tail():
    """The acceptance shape at a cheap cell: leaf slowdown inflates p99,
    policies claw back more than half of the inflation."""
    plan = FaultPlan(
        leaf_slowdown=LeafSlowdown(tail_probability=0.05, tail_scale_us=1_500.0)
    )
    base = _run()
    off = _run(faults=plan)
    on = _run(faults=plan, tail_policy=DEFAULT_TAIL_POLICY)
    injected = off.e2e.percentile(99) - base.e2e.percentile(99)
    recovered = off.e2e.percentile(99) - on.e2e.percentile(99)
    assert injected > 0
    assert recovered / injected >= 0.5
    assert on.extras["tail"]["hedges_sent"] > 0


def test_deadline_partial_replies():
    """A stalled leaf + a tight deadline degrade to partial merges: the
    client sees ``partial=True`` replies instead of stalling."""
    plan = FaultPlan(
        leaf_stall=LeafStall(start_us=60_000.0, duration_us=120_000.0, mode="stall")
    )
    policy = TailPolicy(deadline_us=5_000.0, hedging=False)
    off = _run(faults=plan)
    on = _run(faults=plan, tail_policy=policy)
    tail = on.extras["tail"]
    assert tail["partial_replies"] > 0
    assert on.extras["counters"].get("client_partial_replies", 0) > 0
    # Degradation beats stalling: far more queries complete in-window.
    assert on.completed > off.completed


def test_retries_recover_crashed_leaf():
    """Silent sub-request loss (crash) is recovered by backoff retries
    once the leaf comes back."""
    plan = FaultPlan(
        leaf_stall=LeafStall(start_us=60_000.0, duration_us=15_000.0, mode="crash")
    )
    policy = TailPolicy(
        hedging=False, max_retries=3, retry_timeout_us=4_000.0, degrade_partial=False
    )
    off = _run(faults=plan)
    on = _run(faults=plan, tail_policy=policy)
    tail = on.extras["tail"]
    assert tail["retries_sent"] > 0
    assert on.completed > off.completed


def test_deadline_propagates_to_leaves():
    """Expired sub-requests are shed at the leaf, visible as counters."""
    plan = FaultPlan(
        leaf_stall=LeafStall(start_us=60_000.0, duration_us=120_000.0, mode="stall")
    )
    # Stalled leaf + retries: the re-sent copies arrive past the deadline
    # and the (recovered) leaf sheds them.
    policy = TailPolicy(deadline_us=2_000.0, hedging=False, max_retries=1,
                        retry_timeout_us=1_000.0)
    on = _run(faults=plan, tail_policy=policy)
    sheds = sum(
        count for name, count in on.extras["counters"].items()
        if name.startswith("leaf_deadline_drops:")
    )
    # When the stall lifts (at drain time), the parked + retried copies
    # wake with long-expired deadlines and the leaf sheds them.
    assert on.extras["tail"]["partial_replies"] > 0
    assert sheds > 0


def test_tail_stats_shape():
    """tail_stats() reports the full accounting dict on every runtime."""
    cluster = SimCluster(seed=0)
    service = build_service("hdsearch", cluster, SCALES["small"],
                            tail_policy=DEFAULT_TAIL_POLICY)
    stats = service.midtier.tail_stats()
    for key in ("subrequests_sent", "hedges_sent", "hedges_denied",
                "hedge_wins", "hedges_wasted", "retries_sent",
                "partial_replies", "late_responses", "extra_leaf_load"):
        assert key in stats
    cluster.shutdown()
