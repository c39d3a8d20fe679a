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
from functools import partial
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


def tail_amplification(cell: dict) -> float:
    """Faulted p99 over the healthy (no-fault, no-policy) p99 of one
    sweep row (a :class:`FaultCell` as a dict).  The row records it
    rounded; the table prints it from the full-precision p99s."""
    if cell["healthy_p99_us"] <= 0:
        return 0.0
    return cell["p99_us"] / cell["healthy_p99_us"]


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
        # Healthy (no faults, no policy) unless a cell says otherwise.
        measure = partial(
            characterize, service, qps, scale=scale, seed=seed,
            duration_us=duration_us, telemetry=telemetry,
        )
        healthy_p99 = measure().e2e.percentile(99)
        for intensity in intensities:
            for policy_on in (False, True):
                cell = measure(
                    faults=slowdown_plan(intensity),
                    tail_policy=tail_policy if policy_on else None,
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


def format_fault_sweep(cells: List[dict]) -> str:
    """The sweep rows of the document as a tail-amplification table."""
    rows = []
    for cell in cells:
        rows.append((
            cell["service"],
            f"{cell['intensity']:.2f}",
            "on" if cell["policy_on"] else "off",
            round(cell["p50_us"]),
            round(cell["p99_us"]),
            f"{tail_amplification(cell):.2f}x",
            cell["hedges_sent"],
            cell["retries_sent"],
            cell["partial_replies"],
            f"{cell['extra_leaf_load']:.3f}",
        ))
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


def format_recovery(recovery: dict) -> str:
    """The recovery triple of the document (a :class:`RecoveryReport` as
    a dict) as an aligned listing."""
    r = recovery
    return "\n".join([
        f"recovery cell      {r['service']} @ {r['qps']:g} QPS "
        f"(intensity={r['intensity']:g}, scale={r['scale']}, seed={r['seed']})",
        f"healthy p99        {r['base_p99_us']:10.1f} us",
        f"faulted p99 (off)  {r['faulted_p99_us']:10.1f} us",
        f"faulted p99 (on)   {r['tolerant_p99_us']:10.1f} us",
        f"injected inflation {r['injected_p99_inflation_us']:10.1f} us",
        f"recovered          {r['recovered_p99_us']:10.1f} us "
        f"({r['recovery_fraction']:.1%} of the inflation)",
        f"hedges             {r['hedges_sent']:10d} "
        f"(wins {r['hedge_wins']}, wasted {r['hedges_wasted']})",
        f"retries            {r['retries_sent']:10d}",
        f"partial replies    {r['partial_replies']:10d}",
        f"extra leaf load    {r['extra_leaf_load']:10.3f}",
        f"completed/cell     {r['completed']:10d}",
    ])


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
    measure = partial(
        characterize, service, qps, scale=scale, seed=seed,
        duration_us=duration_us, telemetry=telemetry,
    )
    base = measure()
    faulted = measure(faults=faults)
    tolerant = measure(faults=faults, tail_policy=tail_policy)
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


def run_faults(
    services: Optional[Iterable[str]] = None,
    qps: float = RECOVERY_QPS,
    scale: str = "small",
    seed: int = 0,
    duration_us: Optional[float] = None,
    sweep: bool = False,
    telemetry=None,
) -> dict:
    """``usuite faults``: the recovery triple, preceded by the (slow)
    sweep when ``sweep``, as the JSON artifact (validates against
    bench_faults.schema.json)."""
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
    doc: dict = {
        "benchmark": (
            f"leaf slowdown (p={recovery.intensity:g}, "
            f"pareto scale={TAIL_SCALE_US:g}us alpha={TAIL_ALPHA:g}) on "
            f"{recovery.service} @ {recovery.qps:g} QPS, scale={recovery.scale}, "
            f"seed={recovery.seed}"
        ),
        "policy": asdict(DEFAULT_TAIL_POLICY),
        "recovery": asdict(recovery),
    }
    doc["acceptance"] = acceptance(doc)
    if cells:
        doc["sweep"] = [
            {**row, "tail_amplification": round(tail_amplification(row), 3)}
            for row in map(asdict, cells)
        ]
    return doc


def format_faults(doc: dict) -> str:
    out = []
    if doc.get("sweep"):
        out += [
            "Fault sweep — tail amplification, policy off vs on",
            format_fault_sweep(doc["sweep"]),
            "",
        ]
    out += ["Tail-tolerance recovery (leaf slowdown)", format_recovery(doc["recovery"])]
    return "\n".join(out)


def acceptance(doc: dict) -> Dict[str, object]:
    """The checks committed alongside the data."""
    fraction = doc["recovery"]["recovery_fraction"]
    return {
        "target_recovery_fraction": TARGET_RECOVERY,
        "achieved_recovery_fraction": round(fraction, 4),
        "pass": fraction >= TARGET_RECOVERY,
    }


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
    schema="bench_faults.schema.json",
    bench_path="BENCH_faults.json",
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
