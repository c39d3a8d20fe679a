"""Fault injection × tail-tolerance sweep (``usuite faults``).

The paper measures µSuite on a healthy cluster; this module measures what
the same services do on an *unhealthy* one, and how much of the damage
the mid-tier's tail-tolerance layer (deadlines + hedged requests +
bounded retries, :mod:`repro.rpc.policy`) claws back.

Two artifacts:

* **Sweep** — every service × injector intensity × policy {off, on},
  reporting the tail amplification (faulted p99 / healthy p99) and the
  hedging/retry/partial telemetry for the policy-on cells.
* **Recovery** — the acceptance cell: HDSearch at the paper's highest
  characterized load (10K QPS) under leaf slowdown.  The triple
  (healthy, faulted/policy-off, faulted/policy-on) yields the *recovery
  fraction*: how much of the injected p99 inflation the policies remove.
  ``usuite faults --sweep --output BENCH_faults.json`` commits the result.

Every cell shares one arrival process (the runner names every load
generator alike) — the comparison isolates the fault/policy effect.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments import runner
from repro.experiments.characterize import characterize
from repro.experiments.tables import render_table
from repro.faults import FaultPlan, LeafSlowdown
from repro.rpc.policy import DEFAULT_TAIL_POLICY, TailPolicy
from repro.suite.registry import SERVICE_NAMES

#: The acceptance cell: the paper's highest characterized load.
RECOVERY_SERVICE = "hdsearch"
RECOVERY_QPS = 10_000.0
RECOVERY_INTENSITY = 0.05

#: Leaf-slowdown tail shape shared by every cell: a request that draws
#: the fault sees a Pareto(α=1.8) inflation at ms scale — far above the
#: healthy sub-ms service times, mimicking a degraded replica.
TAIL_SCALE_US = 1_500.0
TAIL_ALPHA = 1.8

#: Default artifact path, relative to the repository root / CWD.
BENCH_PATH = "BENCH_faults.json"


def slowdown_plan(
    intensity: float,
    tail_scale_us: float = TAIL_SCALE_US,
    tail_alpha: float = TAIL_ALPHA,
    leaves: Optional[Tuple[int, ...]] = None,
) -> FaultPlan:
    """A leaf-slowdown plan: each execution on ``leaves`` (default: every
    leaf) draws the Pareto tail with probability ``intensity``."""
    return FaultPlan(
        leaf_slowdown=LeafSlowdown(
            tail_probability=intensity,
            tail_scale_us=tail_scale_us,
            tail_alpha=tail_alpha,
            leaves=leaves,
        )
    )


@dataclass
class FaultCell:
    """One (service, intensity, policy) sweep point."""

    service: str
    qps: float
    intensity: float
    policy_on: bool
    p50_us: float
    p99_us: float
    healthy_p99_us: float
    completed: int
    hedges_sent: int
    hedge_wins: int
    retries_sent: int
    partial_replies: int
    extra_leaf_load: float

    @property
    def tail_amplification(self) -> float:
        """Faulted p99 over the healthy (no-fault, no-policy) p99."""
        if self.healthy_p99_us <= 0:
            return 0.0
        return self.p99_us / self.healthy_p99_us


def run_fault_sweep(
    services: Optional[Iterable[str]] = None,
    intensities: Iterable[float] = (0.02, 0.05),
    qps: float = RECOVERY_QPS,
    tail_policy: TailPolicy = DEFAULT_TAIL_POLICY,
    scale: str = "small",
    seed: int = 0,
    duration_us: Optional[float] = None,
    telemetry=None,
) -> List[FaultCell]:
    """Sweep injector intensity × policy {off, on} across services."""
    cells: List[FaultCell] = []
    for service in services or SERVICE_NAMES:
        healthy = characterize(
            service, qps, faults=None, tail_policy=None,
            scale=scale, seed=seed, duration_us=duration_us,
            telemetry=telemetry,
        )
        healthy_p99 = healthy.e2e.percentile(99)
        for intensity in intensities:
            for policy_on in (False, True):
                cell = characterize(
                    service,
                    qps,
                    faults=slowdown_plan(intensity),
                    tail_policy=tail_policy if policy_on else None,
                    scale=scale,
                    seed=seed,
                    duration_us=duration_us,
                    telemetry=telemetry,
                )
                tail = cell.extras["tail"]
                cells.append(
                    FaultCell(
                        service=service,
                        qps=qps,
                        intensity=intensity,
                        policy_on=policy_on,
                        p50_us=cell.e2e.median,
                        p99_us=cell.e2e.percentile(99),
                        healthy_p99_us=healthy_p99,
                        completed=cell.completed,
                        hedges_sent=tail["hedges_sent"],
                        hedge_wins=tail["hedge_wins"],
                        retries_sent=tail["retries_sent"],
                        partial_replies=tail["partial_replies"],
                        extra_leaf_load=tail["extra_leaf_load"],
                    )
                )
    return cells


def format_fault_sweep(cells: List[FaultCell]) -> str:
    """The sweep as a tail-amplification table."""
    rows = []
    for cell in cells:
        rows.append(
            (
                cell.service,
                f"{cell.intensity:.2f}",
                "on" if cell.policy_on else "off",
                round(cell.p50_us),
                round(cell.p99_us),
                f"{cell.tail_amplification:.2f}x",
                cell.hedges_sent,
                cell.retries_sent,
                cell.partial_replies,
                f"{cell.extra_leaf_load:.3f}",
            )
        )
    return render_table(
        (
            "service", "intensity", "policy", "p50 us", "p99 us",
            "tail amp", "hedges", "retries", "partials", "extra load",
        ),
        rows,
    )


@dataclass
class RecoveryReport:
    """The acceptance triple: healthy / faulted-off / faulted-on."""

    service: str
    qps: float
    intensity: float
    scale: str
    seed: int
    duration_us: float
    base_p50_us: float
    base_p99_us: float
    faulted_p50_us: float
    faulted_p99_us: float
    tolerant_p50_us: float
    tolerant_p99_us: float
    injected_p99_inflation_us: float
    recovered_p99_us: float
    recovery_fraction: float
    hedges_sent: int
    hedge_wins: int
    hedges_wasted: int
    retries_sent: int
    partial_replies: int
    extra_leaf_load: float
    completed: int

    def format(self) -> str:
        return "\n".join(
            [
                f"recovery cell      {self.service} @ {self.qps:g} QPS "
                f"(intensity={self.intensity:g}, scale={self.scale}, seed={self.seed})",
                f"healthy p99        {self.base_p99_us:10.1f} us",
                f"faulted p99 (off)  {self.faulted_p99_us:10.1f} us",
                f"faulted p99 (on)   {self.tolerant_p99_us:10.1f} us",
                f"injected inflation {self.injected_p99_inflation_us:10.1f} us",
                f"recovered          {self.recovered_p99_us:10.1f} us "
                f"({self.recovery_fraction:.1%} of the inflation)",
                f"hedges             {self.hedges_sent:10d} "
                f"(wins {self.hedge_wins}, wasted {self.hedges_wasted})",
                f"retries            {self.retries_sent:10d}",
                f"partial replies    {self.partial_replies:10d}",
                f"extra leaf load    {self.extra_leaf_load:10.3f}",
                f"completed/cell     {self.completed:10d}",
            ]
        )


def run_recovery(
    service: str = RECOVERY_SERVICE,
    qps: float = RECOVERY_QPS,
    intensity: float = RECOVERY_INTENSITY,
    tail_policy: TailPolicy = DEFAULT_TAIL_POLICY,
    scale: str = "small",
    seed: int = 0,
    duration_us: Optional[float] = None,
    telemetry=None,
) -> RecoveryReport:
    """Measure how much injected p99 inflation the policies recover."""
    faults = slowdown_plan(intensity)
    base = characterize(
        service, qps, faults=None, tail_policy=None,
        scale=scale, seed=seed, duration_us=duration_us,
        telemetry=telemetry,
    )
    faulted = characterize(
        service, qps, faults=faults, tail_policy=None,
        scale=scale, seed=seed, duration_us=duration_us,
        telemetry=telemetry,
    )
    tolerant = characterize(
        service, qps, faults=faults, tail_policy=tail_policy,
        scale=scale, seed=seed, duration_us=duration_us,
        telemetry=telemetry,
    )
    base_p99 = base.e2e.percentile(99)
    faulted_p99 = faulted.e2e.percentile(99)
    tolerant_p99 = tolerant.e2e.percentile(99)
    injected = faulted_p99 - base_p99
    recovered = faulted_p99 - tolerant_p99
    tail = tolerant.extras["tail"]
    return RecoveryReport(
        service=service,
        qps=qps,
        intensity=intensity,
        scale=scale,
        seed=seed,
        duration_us=tolerant.duration_us,
        base_p50_us=base.e2e.median,
        base_p99_us=base_p99,
        faulted_p50_us=faulted.e2e.median,
        faulted_p99_us=faulted_p99,
        tolerant_p50_us=tolerant.e2e.median,
        tolerant_p99_us=tolerant_p99,
        injected_p99_inflation_us=injected,
        recovered_p99_us=recovered,
        recovery_fraction=recovered / injected if injected > 0 else 0.0,
        hedges_sent=tail["hedges_sent"],
        hedge_wins=tail["hedge_wins"],
        hedges_wasted=tail["hedges_wasted"],
        retries_sent=tail["retries_sent"],
        partial_replies=tail["partial_replies"],
        extra_leaf_load=tail["extra_leaf_load"],
        completed=tolerant.completed,
    )


#: Acceptance: the policies must recover at least this much of the
#: injected p99 inflation.
TARGET_RECOVERY = 0.5


@dataclass
class FaultsReport:
    """``usuite faults``: the recovery triple, plus the sweep when asked."""

    recovery: RecoveryReport
    sweep: Optional[List[FaultCell]] = None


def run_faults(
    services: Optional[Iterable[str]] = None,
    qps: float = RECOVERY_QPS,
    scale: str = "small",
    seed: int = 0,
    duration_us: Optional[float] = None,
    sweep: bool = False,
    telemetry=None,
) -> FaultsReport:
    """The recovery triple, preceded by the (slow) sweep when ``sweep``."""
    cells = None
    if sweep:
        cells = run_fault_sweep(
            services=services, qps=qps, scale=scale, seed=seed,
            duration_us=duration_us, telemetry=telemetry,
        )
    recovery = run_recovery(
        qps=qps, scale=scale, seed=seed, duration_us=duration_us,
        telemetry=telemetry,
    )
    return FaultsReport(recovery=recovery, sweep=cells)


def format_faults(report: FaultsReport) -> str:
    out = []
    if report.sweep:
        out += [
            "Fault sweep — tail amplification, policy off vs on",
            format_fault_sweep(report.sweep),
            "",
        ]
    out += ["Tail-tolerance recovery (leaf slowdown)", report.recovery.format()]
    return "\n".join(out)


def acceptance(report: FaultsReport) -> Dict[str, object]:
    """The checks committed alongside the data."""
    fraction = report.recovery.recovery_fraction
    return {
        "target_recovery_fraction": TARGET_RECOVERY,
        "achieved_recovery_fraction": round(fraction, 4),
        "pass": fraction >= TARGET_RECOVERY,
    }


def to_document(report: FaultsReport) -> dict:
    """The JSON artifact (validates against bench_faults.schema.json)."""
    recovery = report.recovery
    data: dict = {
        "benchmark": (
            f"leaf slowdown (p={recovery.intensity:g}, "
            f"pareto scale={TAIL_SCALE_US:g}us alpha={TAIL_ALPHA:g}) on "
            f"{recovery.service} @ {recovery.qps:g} QPS, scale={recovery.scale}, "
            f"seed={recovery.seed}"
        ),
        "policy": asdict(DEFAULT_TAIL_POLICY),
        "recovery": asdict(recovery),
        "acceptance": acceptance(report),
    }
    if report.sweep:
        data["sweep"] = [
            {**asdict(cell), "tail_amplification": round(cell.tail_amplification, 3)}
            for cell in report.sweep
        ]
    return data


def pinned(doc: dict, telemetry=None):
    """Drift probe: the recovery triple from its recorded parameters."""
    recorded = doc["recovery"]
    report = run_recovery(
        telemetry=telemetry,
        **{key: recorded[key] for key in (
            "service", "qps", "intensity", "scale", "seed", "duration_us",
        )},
    )
    return report, recorded, "recovery triple"


#: Registry entry: ``usuite faults``.
EXPERIMENT = runner.Experiment(
    name="faults",
    help="fault injection x tail-tolerance sweep",
    run=run_faults,
    format=format_faults,
    acceptance=acceptance,
    to_document=to_document,
    schema="bench_faults.schema.json",
    bench_path=BENCH_PATH,
    pinned=pinned,
    flags=(
        runner.SCALE, runner.SEED, runner.services_flag(),
        runner.qps_flag(10_000.0), runner.duration_flag(),
        runner.TELEMETRY,
        runner.Flag("--sweep", action="store_true",
                    help="also run the service x intensity x policy sweep "
                    "(slow; the default runs only the recovery triple)"),
    ),
)
