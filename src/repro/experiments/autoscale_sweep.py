"""Autoscale sweep: closed-loop control vs the best static configuration
(``usuite autoscale``).

The scenario is the one ROADMAP item 2 prescribes: a **diurnal** offered
load (sinusoidal, trough at the start of the measured window, peak in
the middle) plus a **CPU antagonist** on every mid-tier machine
(:class:`~repro.faults.plan.MidTierPressure` hog threads — the paper's
"interference from colocated work" failure mode).  The mid-tier is made
the bottleneck exactly as in :mod:`~repro.experiments.scale_sweep`
(one mid-tier core, 80 µs leaf target), so replica count is the knob
that matters.

The sweep measures a **static grid** — 1, 2, 3 fixed replicas, controller
off — and one **controller cell**: a warm pool of 3 replicas, 1 admitting
at t=0, driven by the threshold/hysteresis policy on windowed e2e p99,
with hedge-percentile and batch-size retuning on overload.  Two gates:

* **p99 recovery**: the controller's p99 must recover at least
  ``RECOVERY_GATE`` of the gap from the *worst* static configuration's
  p99 down to the *best* static configuration's p99;
* **cost**: at ≥ ``SAVINGS_GATE`` (20%) fewer replica-seconds than that
  best static configuration, integrated over the measured window by the
  controller's :class:`~repro.control.account.ReplicaSecondsAccount`
  (admitting + draining replicas bill; warm parked replicas do not).

Plus the suite-wide reproducibility bar: the controller cell runs twice
from scratch and must be bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.control import ControlConfig
from repro.experiments import runner
from repro.experiments.scale_sweep import (
    SWEEP_LEAF_US,
    SWEEP_MIDTIER_CORES,
    sweep_scale,
)
from repro.experiments.tables import render_table
from repro.faults.plan import FaultPlan, MidTierPressure
from repro.loadgen.traffic import DiurnalRate, VariableRateLoadGen
from repro.rpc.policy import TailPolicy
from repro.suite import ServiceScale
from repro.suite.cluster import drive
from repro.suite.config import BatchConfig

SWEEP_SERVICE = "hdsearch"

#: Diurnal curve: trough ~1.8 K QPS (one replica coasts), peak ~8.6 K QPS
#: (past the 1-replica saturation of ~5.9 K measured in BENCH_scale.json).
BASE_QPS = 5_200.0
AMPLITUDE = 0.65

#: The antagonist: hog threads on every mid-tier machine.
ANTAGONIST = MidTierPressure(hog_threads=2, busy_us=150.0, idle_mean_us=300.0)

#: Static grid (controller off) the controller is judged against.
STATIC_REPLICAS: Tuple[int, ...] = (1, 2, 3)

WARMUP_US = 200_000.0
DRAIN_US = 50_000.0
DEFAULT_DURATION_US = 1_600_000.0
DEFAULT_TICK_US = 20_000.0
DEFAULT_WINDOW_US = 20_000.0

#: Tail policy for every cell (static and controlled): auto-percentile
#: hedging with a deadline far above the tail, so nothing is shed and the
#: controller's hedge retuning is observable in like-for-like runs.
SWEEP_TAIL_POLICY = TailPolicy(deadline_us=50_000.0, hedge_percentile=95.0)
#: Leaf batching for every cell; the controller widens it on overload.
SWEEP_BATCH = BatchConfig(enabled=True, max_batch=4, max_wait_us=40.0)

#: Controller knobs (threshold/hysteresis on windowed e2e p99).
P99_HIGH_US = 2_600.0
P99_LOW_US = 900.0
COOLDOWN_US = 100_000.0
HEDGE_PCT_OVERLOAD = 99.0
HEDGE_PCT_BASELINE = 95.0
BATCH_MAX_OVERLOAD = 8
BATCH_MAX_BASELINE = 4

#: Acceptance gates (see module docstring).
RECOVERY_GATE = 0.75
SAVINGS_GATE = 0.20


def static_scale(
    replicas: int,
    scale: ServiceScale | str = "small",
    service: str = SWEEP_SERVICE,
) -> ServiceScale:
    """One static-grid configuration: ``replicas`` fixed, controller off.

    The scale sweep's bottleneck shaping (one mid-tier core, fast leaves —
    replica count is the knob under test) plus this sweep's leaf batching.
    """
    scale = runner.resolve_scale(scale)
    return sweep_scale(
        replicas, scale.lb.policy, scale=scale, service=service
    ).with_overrides(batch=SWEEP_BATCH)


def controlled_scale(
    max_replicas: int,
    tick_us: float = DEFAULT_TICK_US,
    window_us: float = DEFAULT_WINDOW_US,
    scale: ServiceScale | str = "small",
    service: str = SWEEP_SERVICE,
) -> ServiceScale:
    """The controller cell: warm pool of ``max_replicas``, 1 admitting."""
    scale = runner.resolve_scale(scale)
    return static_scale(
        scale.topology.midtier_replicas, scale=scale, service=service
    ).with_overrides(
        control=ControlConfig(
            enabled=True,
            tick_us=tick_us,
            window_us=window_us,
            policy="threshold",
            min_replicas=1,
            max_replicas=max_replicas,
            initial_replicas=1,
            p99_high_us=P99_HIGH_US,
            p99_low_us=P99_LOW_US,
            cooldown_us=COOLDOWN_US,
            hedge_percentile_overload=HEDGE_PCT_OVERLOAD,
            hedge_percentile_baseline=HEDGE_PCT_BASELINE,
            batch_max_overload=BATCH_MAX_OVERLOAD,
            batch_max_baseline=BATCH_MAX_BASELINE,
        ),
    )


@dataclass
class AutoscaleCell:
    """One measured diurnal+antagonist run."""

    label: str
    replicas: int  # fixed count, or the warm-pool max for the controller
    sent: int
    completed: int
    p50_us: float
    p99_us: float
    mean_us: float
    replica_seconds: float
    thinned: int
    expected_sent: float
    controller: Optional[Dict[str, object]] = None


def best_static(doc: dict) -> dict:
    return min(doc["static_grid"], key=lambda cell: cell["p99_us"])


def worst_static(doc: dict) -> dict:
    return max(doc["static_grid"], key=lambda cell: cell["p99_us"])


def p99_recovery(doc: dict) -> float:
    """Fraction of the worst→best static p99 gap the controller closes."""
    worst = worst_static(doc)["p99_us"]
    best = best_static(doc)["p99_us"]
    ctrl = doc["controller"]["p99_us"]
    if worst <= best:
        return 1.0 if ctrl <= best else 0.0
    return (worst - ctrl) / (worst - best)


def replica_seconds_savings(doc: dict) -> float:
    """1 − controller cost / best-static cost, over the window."""
    best = best_static(doc)["replica_seconds"]
    if best <= 0:
        return 0.0
    return 1.0 - doc["controller"]["replica_seconds"] / best


def diurnal_curve(
    base_qps: float,
    amplitude: float,
    duration_us: float,
    warmup_us: float = WARMUP_US,
) -> DiurnalRate:
    """One full day over the measured window, trough at window start.

    The phase shift puts sin = −1 at ``warmup_us`` (window open), so the
    window sees trough → peak → trough and the controller must both scale
    out and scale back in.
    """
    period = duration_us
    phase = -math.pi / 2.0 - 2.0 * math.pi * warmup_us / period
    return DiurnalRate(
        base_qps=base_qps,
        amplitude=amplitude,
        period_us=period,
        phase_rad=phase,
    )


def measure_cell(
    label: str,
    scale_cfg: ServiceScale,
    replicas: int,
    base_qps: float = BASE_QPS,
    amplitude: float = AMPLITUDE,
    service: str = SWEEP_SERVICE,
    seed: int = 0,
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = WARMUP_US,
    telemetry=None,
) -> AutoscaleCell:
    """One diurnal+antagonist run of either kind of configuration.

    ``telemetry`` (a :class:`~repro.telemetry.TelemetryConfig`) selects
    the aggregation mode; None keeps the scale's default (buffered).
    """
    curve = diurnal_curve(base_qps, amplitude, duration_us, warmup_us)
    with runner.build_cluster(
        service, scale_cfg, seed=seed, tail_policy=SWEEP_TAIL_POLICY,
        faults=FaultPlan(midtier_pressure=ANTAGONIST), telemetry=telemetry,
    ) as (cluster, handle):
        gen = runner.loadgen(cluster, handle, VariableRateLoadGen, curve=curve)
        window_start = cluster.sim.now + warmup_us
        window_end = window_start + duration_us
        result = drive(cluster, handle, gen, warmup_us, duration_us, DRAIN_US)
        controller_stats: Optional[Dict[str, object]] = None
        if cluster.controllers:
            controller = cluster.controllers[0]
            replica_seconds = (
                controller.account.total(window_end)
                - controller.account.total(window_start)
            )
            controller_stats = controller.stats()
        else:
            replica_seconds = replicas * duration_us / 1e6
    return AutoscaleCell(
        label=label,
        replicas=replicas,
        sent=result.sent,
        completed=result.completed,
        p50_us=result.e2e.percentile(50),
        p99_us=result.e2e.percentile(99),
        mean_us=result.e2e.mean,
        replica_seconds=replica_seconds,
        thinned=gen.thinned,
        expected_sent=curve.expected_arrivals(window_start, window_end),
        controller=controller_stats,
    )


def controller_cell(
    max_replicas: int,
    service: str = SWEEP_SERVICE,
    scale: str = "small",
    seed: int = 0,
    base_qps: float = BASE_QPS,
    amplitude: float = AMPLITUDE,
    duration_us: float = DEFAULT_DURATION_US,
    tick_us: float = DEFAULT_TICK_US,
    window_us: float = DEFAULT_WINDOW_US,
    telemetry=None,
) -> AutoscaleCell:
    """The controller cell (also the reproducibility cell): a warm pool of
    ``max_replicas`` under the diurnal day plus the antagonist."""
    cfg = controlled_scale(
        max_replicas, tick_us=tick_us, window_us=window_us,
        scale=scale, service=service,
    )
    return measure_cell(
        "controller", cfg, max_replicas,
        base_qps=base_qps, amplitude=amplitude, service=service,
        seed=seed, duration_us=duration_us, telemetry=telemetry,
    )


def run_autoscale_sweep(
    service: str = SWEEP_SERVICE,
    scale: str = "small",
    seed: int = 0,
    base_qps: float = BASE_QPS,
    amplitude: float = AMPLITUDE,
    duration_us: float = DEFAULT_DURATION_US,
    tick_us: float = DEFAULT_TICK_US,
    window_us: float = DEFAULT_WINDOW_US,
    static_replicas: Iterable[int] = STATIC_REPLICAS,
    telemetry=None,
) -> dict:
    """The full grid plus the controller cell, run twice, as the JSON
    artifact (validates against bench_autoscale.schema.json)."""
    if base_qps <= 0:
        raise runner.UsageError(f"base-qps must be positive: {base_qps}")
    if not 0.0 <= amplitude <= 1.0:
        raise runner.UsageError(f"amplitude must be in [0, 1]: {amplitude}")
    if duration_us <= 0:
        raise runner.UsageError(f"duration-us must be positive: {duration_us}")
    if tick_us <= 0:
        raise runner.UsageError(f"tick-us must be positive: {tick_us}")
    if window_us <= 0:
        raise runner.UsageError(f"window-us must be positive: {window_us}")
    static_replicas = sorted(set(static_replicas))
    if not static_replicas or static_replicas[0] < 1:
        raise runner.UsageError(
            f"static replica counts must be >= 1: {static_replicas}"
        )
    statics = [
        measure_cell(
            f"static-{n}", static_scale(n, scale=scale, service=service), n,
            base_qps=base_qps, amplitude=amplitude, service=service,
            seed=seed, duration_us=duration_us, telemetry=telemetry,
        )
        for n in static_replicas
    ]
    reproducibility = runner.double_run(
        lambda: controller_cell(
            max(static_replicas), service=service, scale=scale, seed=seed,
            base_qps=base_qps, amplitude=amplitude, duration_us=duration_us,
            tick_us=tick_us, window_us=window_us, telemetry=telemetry,
        )
    )
    scale_name = scale if isinstance(scale, str) else scale.name
    doc = {
        "benchmark": (
            f"closed-loop autoscaling on {service}, "
            f"scale={scale_name} (midtier_cores={SWEEP_MIDTIER_CORES}, "
            f"leaf target={SWEEP_LEAF_US:g}us), seed={seed}"
        ),
        "service": service,
        "scale": scale_name,
        "seed": seed,
        "duration_us": duration_us,
        "tick_us": tick_us,
        "window_us": window_us,
        "traffic": {
            "curve": "diurnal",
            "base_qps": base_qps,
            "amplitude": amplitude,
            "period_us": duration_us,
        },
        "antagonist": {
            "kind": "midtier_pressure",
            "hog_threads": ANTAGONIST.hog_threads,
            "busy_us": ANTAGONIST.busy_us,
            "idle_mean_us": ANTAGONIST.idle_mean_us,
        },
        "control": {
            "policy": "threshold",
            "p99_high_us": P99_HIGH_US,
            "p99_low_us": P99_LOW_US,
            "cooldown_us": COOLDOWN_US,
            "hedge_percentile_overload": HEDGE_PCT_OVERLOAD,
            "hedge_percentile_baseline": HEDGE_PCT_BASELINE,
            "batch_max_overload": BATCH_MAX_OVERLOAD,
            "batch_max_baseline": BATCH_MAX_BASELINE,
        },
        "static_grid": [asdict(cell) for cell in statics],
        "controller": reproducibility["first"],
        "reproducibility": reproducibility,
    }
    doc["acceptance"] = acceptance(doc)
    return doc


def acceptance(doc: dict) -> Dict[str, object]:
    """The checks committed alongside the data."""
    recovery = p99_recovery(doc)
    savings = replica_seconds_savings(doc)
    best, controller = best_static(doc), doc["controller"]
    reproducible = doc["reproducibility"]["bit_identical"]
    checks = {
        "worst_static_p99_us": round(worst_static(doc)["p99_us"], 1),
        "best_static_p99_us": round(best["p99_us"], 1),
        "best_static_label": best["label"],
        "controller_p99_us": round(controller["p99_us"], 1),
        "p99_recovery": round(recovery, 4),
        "recovery_gate": RECOVERY_GATE,
        "best_static_replica_seconds": round(best["replica_seconds"], 4),
        "controller_replica_seconds": round(controller["replica_seconds"], 4),
        "replica_seconds_savings": round(savings, 4),
        "savings_gate": SAVINGS_GATE,
        "scale_ups": controller["controller"]["scale_ups"],
        "scale_downs": controller["controller"]["scale_downs"],
        "bit_reproducible": reproducible,
    }
    checks["pass"] = bool(
        recovery >= RECOVERY_GATE
        and savings >= SAVINGS_GATE
        and reproducible
    )
    return checks


def format_autoscale(doc: dict) -> str:
    """The sweep as a cost/latency table plus the controller's timeline."""
    rows = []
    for cell in doc["static_grid"] + [doc["controller"]]:
        rows.append((
            cell["label"],
            cell["completed"],
            round(cell["p50_us"]),
            round(cell["p99_us"]),
            f"{cell['replica_seconds']:.3f}",
        ))
    out = [
        f"diurnal ({doc['traffic']['base_qps']:g} QPS base, amplitude "
        f"{doc['traffic']['amplitude']:g}) + mid-tier antagonist:",
        render_table(
            ("cell", "done", "p50 us", "p99 us", "replica-s"), rows
        ),
    ]
    ctrl = doc["controller"]["controller"] or {}
    events = ctrl.get("scale_events", [])
    if events:
        out.append("")
        out.append("controller scale events (t_us, direction, admitting):")
        out.append(
            "  " + "; ".join(
                f"{t / 1e3:.0f}ms {kind}->{n}" for t, kind, n in events
            )
        )
    out.append("")
    out.append(
        f"p99 recovery {p99_recovery(doc):.1%} "
        f"(gate {RECOVERY_GATE:.0%}), replica-seconds savings "
        f"{replica_seconds_savings(doc):.1%} (gate {SAVINGS_GATE:.0%}), "
        + runner.reproduced(doc)
    )
    return "\n".join(out)


def pinned(doc: dict, telemetry=None):
    """Drift probe: the controller cell from its recorded parameters."""
    cell = controller_cell(
        max(static["replicas"] for static in doc["static_grid"]),
        service=doc["service"], scale=doc["scale"], seed=doc["seed"],
        base_qps=doc["traffic"]["base_qps"],
        amplitude=doc["traffic"]["amplitude"],
        duration_us=doc["duration_us"], tick_us=doc["tick_us"],
        window_us=doc["window_us"], telemetry=telemetry,
    )
    return (
        cell, doc["reproducibility"]["first"],
        "controller cell (diurnal + antagonist)",
    )


#: Registry entry: ``usuite autoscale``.
EXPERIMENT = runner.Experiment(
    name="autoscale",
    help="closed-loop controller vs static replicas (diurnal + antagonist)",
    title="Autoscale sweep — closed-loop controller vs static grid",
    run=run_autoscale_sweep,
    format=format_autoscale,
    acceptance=acceptance,
    schema="bench_autoscale.schema.json",
    bench_path="BENCH_autoscale.json",
    pinned=pinned,
    flags=(
        runner.SCALE, runner.SEED, runner.service_flag(),
        runner.duration_flag(help="measured window = one diurnal period "
                             "(default: 1.6 s)"),
        runner.TELEMETRY,
        runner.Flag("--base-qps", type=runner.positive_float, default=None,
                    help="diurnal curve mean rate (default: 5200)"),
        runner.Flag("--amplitude", type=float, default=None,
                    help="diurnal swing in [0, 1] (default: 0.65)"),
        runner.Flag("--replicas", param="static_replicas", nargs="+",
                    type=runner.positive_int, default=None,
                    help="static grid replica counts; the controller's warm "
                    "pool is the max (default: 1 2 3)"),
        runner.Flag("--tick-us", type=runner.positive_float, default=None,
                    help="controller tick (default: 20 ms)"),
        runner.Flag("--window-us", type=runner.positive_float, default=None,
                    help="telemetry window width (default: 20 ms)"),
    ),
)
