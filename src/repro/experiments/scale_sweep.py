"""Scale-out sweep: mid-tier replicas × balancing policy × load
(``usuite scale``).

The paper runs one mid-tier per service, so its Fig. 9 saturation is a
single-machine ceiling.  This experiment measures what the suite does
when that tier is replicated behind the :mod:`repro.rpc.loadbalance`
front end: saturation throughput versus replica count, and tail latency
versus balancing policy at fixed loads.

The sweep's scale makes the *mid-tier* the bottleneck — the paper's
"small" scale saturates on leaf CPU (4 leaves × 4 cores), where adding
mid-tier replicas cannot help.  Two overrides flip that: the mid-tier is
squeezed to one core (its thread pools now contend the way the paper's
40-core testbed never lets them) and HDSearch's leaf service-time target
drops to 80 µs so the 16 leaf cores stay out of the way up to ~50 K QPS.
Under that scale, replicas scale saturation and the classic balancing
results appear: uniform random is the worst tail, power-of-two-choices
tracks least-outstanding, and both beat round-robin at high load.

``usuite scale --output BENCH_scale.json`` records the artifact, validated
against the checked-in ``schemas/bench_scale.schema.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments import runner
from repro.experiments.tables import render_table
from repro.rpc.loadbalance import canonical_policy, replica_imbalance
from repro.suite import ServiceScale

SWEEP_SERVICE = "hdsearch"
#: Leaf service-time target that keeps leaves unsaturated to ~50 K QPS.
SWEEP_LEAF_US = 80.0
#: One mid-tier core: the replicated tier is the bottleneck by design.
SWEEP_MIDTIER_CORES = 1

REPLICA_COUNTS: Tuple[int, ...] = (1, 2, 3)
POLICIES: Tuple[str, ...] = (
    "round-robin", "random", "least-outstanding", "power-of-two"
)
#: Fixed offered loads for the tail-latency cells; the highest sits near
#: the 3-replica knee, where policies separate most.
LOADS: Tuple[float, ...] = (5_000.0, 10_000.0, 20_000.0)
#: Open-loop overload that establishes saturation (2× the leaf ceiling).
SATURATION_OFFERED_QPS = 40_000.0

WARMUP_US = 200_000.0
SATURATION_DURATION_US = 300_000.0
DEFAULT_DURATION_US = 500_000.0

#: Acceptance: 2 replicas must lift saturation by at least this factor.
TARGET_SPEEDUP_AT_2 = 1.7


def sweep_scale(
    replicas: int,
    policy: str,
    scale: ServiceScale | str = "small",
    service: str = SWEEP_SERVICE,
) -> ServiceScale:
    """The sweep's scale: ``scale`` with the mid-tier made the bottleneck."""
    scale = runner.resolve_scale(scale)
    leaf_us = {**scale.target_leaf_service_us, service: SWEEP_LEAF_US}
    return scale.with_overrides(
        topology=replace(
            scale.topology,
            midtier_replicas=replicas,
            midtier_cores=SWEEP_MIDTIER_CORES,
        ),
        lb=replace(scale.lb, policy=policy),
        target_leaf_service_us=leaf_us,
    )


@dataclass
class LoadPoint:
    """Tail latency at one offered load."""

    qps: float
    sent: int
    completed: int
    p50_us: float
    p99_us: float
    mean_us: float
    lb_backlogged: int = 0
    replica_imbalance: float = 0.0
    per_replica_forwarded: List[int] = field(default_factory=list)
    per_replica_runqlat_p99_us: List[float] = field(default_factory=list)


@dataclass
class ScaleCell:
    """One (replica count, policy) point of the sweep."""

    replicas: int
    policy: str
    saturation_qps: float
    loads: List[LoadPoint] = field(default_factory=list)


def saturation_series(doc: dict) -> List[Tuple[int, float]]:
    """(replicas, saturation) along the round-robin axis (the 1-replica
    cell has no balancer, so it belongs to every policy)."""
    return sorted(
        (cell["replicas"], cell["saturation_qps"])
        for cell in doc["cells"]
        if cell["replicas"] == 1 or cell["policy"] == "round-robin"
    )


def find_cell(doc: dict, replicas: int, policy: str) -> Optional[dict]:
    for cell in doc["cells"]:
        if cell["replicas"] == replicas and (
            cell["replicas"] == 1 or cell["policy"] == policy
        ):
            return cell
    return None


def measure_load_point(
    service_name: str,
    scale: ServiceScale,
    qps: float,
    seed: int = 0,
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = WARMUP_US,
    telemetry=None,
) -> LoadPoint:
    """One open-loop cell with per-replica balancing telemetry.

    ``telemetry`` (a :class:`~repro.telemetry.TelemetryConfig`) selects
    the aggregation mode; None keeps the scale's default (buffered).
    """
    result, _service = runner.open_loop_cell(
        service_name, qps, duration_us, scale=scale, seed=seed,
        warmup_us=warmup_us, telemetry=telemetry,
    )
    breakdown = result.telemetry.replica_breakdown(result.midtier_names)
    point = LoadPoint(
        qps=qps,
        sent=result.sent,
        completed=result.completed,
        p50_us=result.e2e.percentile(50),
        p99_us=result.e2e.percentile(99),
        mean_us=result.e2e.mean,
        per_replica_runqlat_p99_us=[
            row["runqlat_p99_us"] for row in breakdown.values()
        ],
    )
    if result.lb_stats is not None:
        forwarded = list(result.lb_stats["per_replica_forwarded"])
        point.lb_backlogged = int(result.lb_stats["backlogged"])
        point.per_replica_forwarded = forwarded
        point.replica_imbalance = replica_imbalance(forwarded)
    return point


def pinned_point(
    replicas: int,
    policy: str,
    qps: float,
    service: str = SWEEP_SERVICE,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    duration_us: float = DEFAULT_DURATION_US,
    telemetry=None,
) -> LoadPoint:
    """The reproducibility cell: one (replicas, policy) point at ``qps``.

    One mid-tier has no balancer, so its policy label (``"direct"``) maps
    to the round-robin default.
    """
    built = sweep_scale(
        replicas, policy if replicas > 1 else "round-robin",
        scale=scale, service=service,
    )
    return measure_load_point(
        service, built, qps, seed=seed, duration_us=duration_us,
        telemetry=telemetry,
    )


def run_scale_sweep(
    service: str = SWEEP_SERVICE,
    replica_counts: Iterable[int] = REPLICA_COUNTS,
    policies: Iterable[str] = POLICIES,
    loads: Sequence[float] = LOADS,
    scale: str = "small",
    seed: int = 0,
    duration_us: float = DEFAULT_DURATION_US,
    telemetry=None,
) -> dict:
    """The full sweep plus a same-seed double run of one cell, as the
    JSON artifact (validates against bench_scale.schema.json)."""
    # Validate policies up front: a typo'd name is a one-line usage
    # error, not a ValueError traceback mid-sweep.
    try:
        policies = [canonical_policy(name) for name in policies]
    except ValueError as err:
        raise runner.UsageError(str(err)) from None
    replica_counts = sorted(set(replica_counts))
    cells: List[ScaleCell] = []
    for n in replica_counts:
        # One mid-tier has no balancer: every policy is the same topology.
        cell_policies = ["direct"] if n == 1 else policies
        for policy in cell_policies:
            built = sweep_scale(n, policy if n > 1 else "round-robin",
                                scale=scale, service=service)
            cells.append(ScaleCell(
                replicas=n,
                policy=policy,
                saturation_qps=runner.measure_saturation(
                    service, built, SATURATION_OFFERED_QPS, seed=seed,
                    duration_us=SATURATION_DURATION_US, warmup_us=WARMUP_US,
                ),
                loads=[
                    measure_load_point(
                        service, built, qps, seed=seed, duration_us=duration_us,
                        telemetry=telemetry,
                    )
                    for qps in loads
                ],
            ))

    # Reproducibility: the most stochastic cell (power-of-two if swept),
    # run twice from scratch under the same seed.
    repro_n = max(replica_counts)
    repro_policy = "power-of-two" if "power-of-two" in policies else policies[0]
    repro_qps = loads[len(loads) // 2] if loads else 1_000.0
    if repro_n == 1:
        repro_policy = "direct"
    scale_name = scale if isinstance(scale, str) else scale.name
    doc = {
        "benchmark": (
            f"mid-tier scale-out on {service}, scale={scale_name} "
            f"(midtier_cores={SWEEP_MIDTIER_CORES}, "
            f"leaf target={SWEEP_LEAF_US:g}us), seed={seed}"
        ),
        "service": service,
        "scale": scale_name,
        "seed": seed,
        "duration_us": duration_us,
        "scale_overrides": {
            "midtier_cores": SWEEP_MIDTIER_CORES,
            "target_leaf_service_us": SWEEP_LEAF_US,
        },
        "cells": [asdict(cell) for cell in cells],
        "reproducibility": runner.double_run(
            lambda: pinned_point(
                repro_n, repro_policy, repro_qps, service=service, scale=scale,
                seed=seed, duration_us=duration_us, telemetry=telemetry,
            ),
            replicas=repro_n, policy=repro_policy, qps=repro_qps,
        ),
    }
    doc["acceptance"] = acceptance(doc)
    return doc


def acceptance(doc: dict) -> Dict[str, object]:
    """The checks committed alongside the data."""
    series = saturation_series(doc)
    saturations = [qps for _, qps in series]
    monotone = all(b > a for a, b in zip(saturations, saturations[1:]))
    speedup = 0.0
    if len(saturations) >= 2 and saturations[0] > 0:
        by_n = dict(series)
        if 1 in by_n and 2 in by_n and by_n[1] > 0:
            speedup = by_n[2] / by_n[1]

    max_n = max((cell["replicas"] for cell in doc["cells"]), default=1)
    p2c = find_cell(doc, max_n, "power-of-two")
    rr = find_cell(doc, max_n, "round-robin")
    p2c_p99 = p2c["loads"][-1]["p99_us"] if p2c and p2c["loads"] else 0.0
    rr_p99 = rr["loads"][-1]["p99_us"] if rr and rr["loads"] else 0.0
    p2c_wins = bool(p2c_p99 and rr_p99 and p2c_p99 <= rr_p99)
    reproducible = doc["reproducibility"]["bit_identical"]

    checks = {
        "saturation_monotone": monotone,
        "speedup_at_2_replicas": round(speedup, 3),
        "target_speedup_at_2_replicas": TARGET_SPEEDUP_AT_2,
        "p2c_p99_us": round(p2c_p99, 1),
        "round_robin_p99_us": round(rr_p99, 1),
        "p2c_beats_round_robin": p2c_wins,
        "bit_reproducible": reproducible,
    }
    checks["pass"] = bool(
        monotone
        and speedup >= TARGET_SPEEDUP_AT_2
        and p2c_wins
        and reproducible
    )
    return checks


def format_scale_sweep(doc: dict) -> str:
    """The sweep as saturation and tail-latency tables."""
    sat_rows = [(n, f"{qps:,.0f}") for n, qps in saturation_series(doc)]
    out = ["saturation vs replicas (round-robin):"]
    out.append(render_table(("replicas", "saturation QPS"), sat_rows))
    rows = []
    for cell in doc["cells"]:
        for point in cell["loads"]:
            rows.append((
                cell["replicas"],
                cell["policy"],
                f"{point['qps']:g}",
                point["completed"],
                round(point["p50_us"]),
                round(point["p99_us"]),
                f"{point['replica_imbalance']:.2f}"
                if cell["replicas"] > 1 else "-",
            ))
    out.append("")
    out.append("tail latency per cell:")
    out.append(render_table(
        ("replicas", "policy", "QPS", "done", "p50 us", "p99 us", "imbalance"),
        rows,
    ))
    repro = doc["reproducibility"]
    out.append("")
    out.append(
        f"reproducibility ({repro['replicas']} replicas, "
        f"{repro['policy']} @ {repro['qps']:g} QPS): " + runner.reproduced(doc)
    )
    return "\n".join(out)


def pinned(doc: dict, telemetry=None):
    """Drift probe: the reproducibility cell from its recorded parameters."""
    repro = doc["reproducibility"]
    point = pinned_point(
        repro["replicas"], repro["policy"], repro["qps"],
        service=doc["service"], scale=doc["scale"], seed=doc["seed"],
        duration_us=doc["duration_us"], telemetry=telemetry,
    )
    label = (
        f"{repro['replicas']} replicas / {repro['policy']} @ "
        f"{repro['qps']:g} QPS cell"
    )
    return point, repro["first"], label


#: Registry entry: ``usuite scale``.
EXPERIMENT = runner.Experiment(
    name="scale",
    help="mid-tier replicas x balancing policy sweep",
    title="Scale-out sweep — {service}",
    run=run_scale_sweep,
    format=format_scale_sweep,
    acceptance=acceptance,
    schema="bench_scale.schema.json",
    bench_path="BENCH_scale.json",
    pinned=pinned,
    flags=(
        runner.SCALE, runner.SEED, runner.service_flag(),
        runner.loads_flag(None, help="offered loads in QPS for the tail cells"),
        runner.duration_flag(), runner.TELEMETRY,
        runner.Flag("--replicas", param="replica_counts", nargs="+",
                    type=runner.positive_int, default=None,
                    help="replica counts to sweep (default: 1 2 3)"),
        runner.Flag("--policies", nargs="+", default=None, metavar="POLICY",
                    help="balancing policies (default: all four)"),
    ),
)
