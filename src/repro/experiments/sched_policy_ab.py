"""The paper's primary finding: non-optimal OS scheduler decisions can
degrade microservice tail latency by up to ~87 %.

Two complementary experiments:

* **Policy A/B** — the same service, same load, same seed, with the
  mid-tier's wakeup placement policy swapped: a well-behaved
  wake-affinity scheduler vs. a non-optimal one (random or worst-fit
  placement plus delayed reaction).  The tail degradation is the paper's
  headline number.
* **Scheduler-cost ablation** — re-run with every scheduler-induced cost
  zeroed (free context switches, no C-state exits, instant wakeup IPIs);
  the share of the mid-tier latency tail that disappears is the
  scheduler's causal contribution (the paper's 50 % / 75 % / 87 % / 64 %
  per-service figures).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional

from repro.experiments import runner
from repro.experiments.characterize import (
    CharacterizationResult,
    characterize,
    default_duration_us,
)
from repro.experiments.tables import render_table
from repro.kernel.config import CStatePoint, OsCosts
from repro.kernel.scheduler import (
    RandomPlacement,
    WakeAffinityPlacement,
    WorstFitPlacement,
)
from repro.suite import ServiceScale
from repro.suite.registry import SERVICE_NAMES

#: Policies compared by the A/B (constructed fresh per run).
POLICY_FACTORIES = {
    "wake-affinity": WakeAffinityPlacement,
    "random": lambda: RandomPlacement(wake_delay_median_us=5.0),
    "worst-fit": lambda: WorstFitPlacement(wake_delay_median_us=10.0),
}


def run_policy_ab(
    service_name: str,
    qps: float = 1_000.0,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: int = 800,
    policies: Iterable[str] = ("wake-affinity", "worst-fit"),
) -> Dict[str, CharacterizationResult]:
    """Characterize one service under each scheduler policy."""
    duration = default_duration_us(qps, min_queries)
    results = {}
    for policy_name in policies:
        policy = POLICY_FACTORIES[policy_name]()
        results[policy_name] = characterize(
            service_name,
            qps,
            scale=scale,
            seed=seed,
            duration_us=duration,
            midtier_policy=policy,
        )
    return results


def tail_degradation(
    results: Dict[str, CharacterizationResult],
    good: str = "wake-affinity",
    bad: str = "worst-fit",
    pct: float = 99.0,
) -> float:
    """Fractional p99 inflation of the bad policy over the good one."""
    good_tail = results[good].e2e.percentile(pct)
    bad_tail = results[bad].e2e.percentile(pct)
    if good_tail <= 0:
        return 0.0
    return (bad_tail - good_tail) / good_tail


def free_scheduler_costs(base: Optional[OsCosts] = None) -> OsCosts:
    """A cost model with every scheduler-induced latency zeroed."""
    base = base or OsCosts()
    return replace(
        base,
        context_switch_us=0.0,
        wakeup_ipi_us=0.0,
        runq_dispatch_us=0.0,
        runq_per_waiter_us=0.0,
        softirq_sched_median_us=0.0,
        cstates=(CStatePoint(0.0, 0.0, "C0"),),
    )


def scheduler_tail_contribution(
    service_name: str,
    qps: float = 1_000.0,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: int = 800,
    pct: float = 99.0,
) -> Dict[str, float]:
    """Share of the mid-tier latency tail caused by scheduler delays.

    Runs the service twice — real scheduler costs vs. zeroed — and
    reports ``1 - ideal_tail / real_tail`` over the *net mid-tier
    latency* (the Figs. 15-18 "Net" category).
    """
    duration = default_duration_us(qps, min_queries)

    def midtier_tail(costs: Optional[OsCosts]) -> float:
        result, service = runner.open_loop_cell(
            service_name, qps, duration, scale=scale, seed=seed, costs=costs
        )
        return result.telemetry.hist(
            f"midtier_latency:{service.midtier_name}"
        ).percentile(pct)

    real = midtier_tail(None)
    ideal = midtier_tail(free_scheduler_costs())
    share = 1.0 - (ideal / real) if real > 0 else 0.0
    return {"real_tail_us": real, "ideal_tail_us": ideal, "scheduler_share": share}


def midtier_tail_degradation(
    results: Dict[str, CharacterizationResult],
    good: str = "wake-affinity",
    bad: str = "worst-fit",
    pct: float = 99.0,
) -> float:
    """Fractional mid-tier ("Net") tail inflation of bad over good."""
    good_tail = results[good].midtier_latency.percentile(pct)
    bad_tail = results[bad].midtier_latency.percentile(pct)
    if good_tail <= 0:
        return 0.0
    return (bad_tail - good_tail) / good_tail


def run_headline(
    services: Optional[Iterable[str]] = None,
    loads: Iterable[float] = (1_000.0, 10_000.0),
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: int = 800,
) -> Dict[str, Dict[str, float]]:
    """Both experiments for every service, sweeping loads.

    The paper's "up to ~87 %" is a maximum over its services and loads;
    this sweep reports, per service, the worst-case A/B degradation of
    both the end-to-end and the mid-tier tail, plus the scheduler-cost
    ablation share.  The degradation is load-dependent — even *negative*
    at light load, where packing wakeups keeps cores warm — which is the
    paper's point that "the relationship between optimal OS/network
    parameters and service load is complex".
    """
    out: Dict[str, Dict[str, float]] = {}
    for name in services or SERVICE_NAMES:
        worst_e2e = float("-inf")
        worst_mid = float("-inf")
        good_p99 = bad_p99 = 0.0
        for qps in loads:
            ab = run_policy_ab(name, qps=qps, scale=scale, seed=seed, min_queries=min_queries)
            e2e_deg = tail_degradation(ab)
            mid_deg = midtier_tail_degradation(ab)
            if mid_deg > worst_mid:
                worst_mid = mid_deg
                good_p99 = ab["wake-affinity"].midtier_latency.percentile(99)
                bad_p99 = ab["worst-fit"].midtier_latency.percentile(99)
            worst_e2e = max(worst_e2e, e2e_deg)
        contribution = scheduler_tail_contribution(
            name, qps=max(loads), scale=scale, seed=seed, min_queries=min_queries
        )
        out[name] = {
            "ab_e2e_degradation": worst_e2e,
            "ab_midtier_degradation": worst_mid,
            "good_mid_p99_us": good_p99,
            "bad_mid_p99_us": bad_p99,
            **contribution,
        }
    return out


def format_headline(results: Dict[str, Dict[str, float]]) -> str:
    """The headline experiment as a table."""
    rows = []
    for service, stats in results.items():
        rows.append(
            (
                service,
                round(stats["good_mid_p99_us"]),
                round(stats["bad_mid_p99_us"]),
                f"{100 * stats['ab_midtier_degradation']:.0f}%",
                f"{100 * stats['ab_e2e_degradation']:.0f}%",
                f"{100 * stats['scheduler_share']:.0f}%",
            )
        )
    return render_table(
        (
            "service",
            "good mid p99 us",
            "bad mid p99 us",
            "mid-tier tail degr.",
            "e2e tail degr.",
            "sched ablation share",
        ),
        rows,
    )


#: Registry entry: ``usuite headline``.
EXPERIMENT = runner.Experiment(
    name="headline",
    help="scheduler policy A/B + ablation",
    title="Headline — non-optimal scheduler tail degradation",
    run=run_headline,
    format=format_headline,
    flags=(
        runner.SCALE, runner.SEED, runner.services_flag(),
        runner.loads_flag((1_000.0, 10_000.0)),
    ),
)
