"""Batching × caching sweep: batch size × cache capacity × load across
all four services (``usuite cache``).

The paper's dominant mid-tier costs — futex wakeups, NET_RX softirq
work, sendmsg syscalls — are *per-message* (Figs. 11-18).  This
experiment measures what the :mod:`repro.rpc.batching` leaf-request
coalescer and the :mod:`repro.midcache` query-result cache buy back:

* per service, an off-vs-on comparison (saturation under 2× overload,
  plus p50/p99/futex-per-query at fixed loads);
* a batch-size axis on HDSearch (occupancy vs added coalescing wait);
* a cache-capacity axis on Router (Zipf hit rate vs footprint).

``usuite cache --output BENCH_cache.json`` records the artifact, validated
against the checked-in ``schemas/bench_cache.schema.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments import runner
from repro.experiments.tables import render_table
from repro.midcache import CACHE_POLICIES
from repro.suite import BatchConfig, CacheConfig, ServiceScale
from repro.suite.registry import SERVICE_NAMES

#: The off-vs-on comparison's coalescer / cache sizing.
DEFAULT_BATCH_MAX = 8
DEFAULT_BATCH_WAIT_US = 50.0
#: Large enough for HDSearch's cycling 2000-query set to hit exactly.
DEFAULT_CAPACITY = 4096
DEFAULT_POLICY = "lru"

#: Axes (tentpole: batch size × cache capacity × load).
BATCH_SIZES: Tuple[int, ...] = (4, 8, 16)
CAPACITIES: Tuple[int, ...] = (256, 1024, 4096)
BATCH_AXIS_SERVICE = "hdsearch"
CAPACITY_AXIS_SERVICE = "router"

#: Fixed offered loads; the paper's standard 10 K QPS cell is the
#: acceptance cell.
LOADS: Tuple[float, ...] = (1_000.0, 10_000.0)
ACCEPTANCE_QPS = 10_000.0

#: Open-loop overload that establishes saturation (the Fig. 9 method).
SATURATION_OFFERED_QPS: Dict[str, float] = {
    "hdsearch": 25_000.0,
    "router": 25_000.0,
    "setalgebra": 35_000.0,
    "recommend": 28_000.0,
}

WARMUP_US = 200_000.0
SATURATION_DURATION_US = 300_000.0
DEFAULT_DURATION_US = 400_000.0

#: Acceptance: batching+caching must buy at least one of these on one
#: service's 10 K QPS cell.
TARGET_SATURATION_GAIN = 1.3
TARGET_P99_REDUCTION = 0.25


def sweep_scale(
    batch_max: int,
    cache_capacity: int,
    scale: ServiceScale | str = "small",
    batch_wait_us: float = DEFAULT_BATCH_WAIT_US,
    cache_policy: str = DEFAULT_POLICY,
    cache_ttl_us: Optional[float] = None,
) -> ServiceScale:
    """The sweep's scale: ``batch_max`` / ``cache_capacity`` of 0 = off."""
    scale = runner.resolve_scale(scale)
    overrides: Dict[str, object] = {}
    if batch_max > 0:
        overrides["batch"] = BatchConfig(
            enabled=True, max_batch=batch_max, max_wait_us=batch_wait_us
        )
    if cache_capacity > 0:
        overrides["cache"] = CacheConfig(
            enabled=True,
            capacity=cache_capacity,
            policy=cache_policy,
            ttl_us=cache_ttl_us,
        )
    return scale.with_overrides(**overrides) if overrides else scale


@dataclass
class CachePoint:
    """One (service, config, offered load) measurement."""

    qps: float
    sent: int
    completed: int
    p50_us: float
    p99_us: float
    mean_us: float
    futex_per_query: float
    epoll_per_query: float
    sendmsg_per_query: float
    # Cache / coalescer roll-ups; empty dicts when the feature is off.
    cache: Dict[str, float] = field(default_factory=dict)
    batch: Dict[str, float] = field(default_factory=dict)


@dataclass
class CacheCell:
    """One (service, batch size, cache capacity) column of the sweep."""

    service: str
    batch_max: int  # 0 = batching off
    cache_capacity: int  # 0 = caching off
    saturation_qps: float  # 0.0 = not measured for this cell
    loads: List[CachePoint] = field(default_factory=list)


def measure_cache_point(
    service_name: str,
    scale: ServiceScale,
    qps: float,
    seed: int = 0,
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = WARMUP_US,
    telemetry=None,
) -> CachePoint:
    """One open-loop cell with cache/batch telemetry roll-ups.

    ``telemetry`` (a :class:`~repro.telemetry.TelemetryConfig`) selects
    the aggregation mode; None keeps the scale's default (buffered).
    """
    result, _service = runner.open_loop_cell(
        service_name, qps, duration_us, scale=scale, seed=seed,
        warmup_us=warmup_us, telemetry=telemetry,
    )
    per_query = result.syscalls_per_query()
    names = result.midtier_names
    point = CachePoint(
        qps=qps,
        sent=result.sent,
        completed=result.completed,
        p50_us=result.e2e.percentile(50),
        p99_us=result.e2e.percentile(99),
        mean_us=result.e2e.mean,
        futex_per_query=per_query.get("futex", 0.0),
        epoll_per_query=per_query.get("epoll_pwait", 0.0),
        sendmsg_per_query=per_query.get("sendmsg", 0.0),
    )
    if scale.cache.enabled:
        point.cache = result.telemetry.cache_summary(names)
    if scale.batch.enabled:
        point.batch = result.telemetry.batch_summary(names)
    return point


def run_cache_sweep(
    services: Iterable[str] = SERVICE_NAMES,
    loads: Sequence[float] = LOADS,
    batch_sizes: Sequence[int] = BATCH_SIZES,
    capacities: Sequence[int] = CAPACITIES,
    scale: str = "small",
    seed: int = 0,
    duration_us: float = DEFAULT_DURATION_US,
    saturation_duration_us: float = SATURATION_DURATION_US,
    axes: bool = True,
    cache_policy: str = DEFAULT_POLICY,
    telemetry=None,
) -> dict:
    """Off-vs-on per service, plus the batch-size and capacity axes, as
    the JSON artifact (validates against bench_cache.schema.json)."""
    scale_name = runner.scale_name(scale)
    services = list(services)

    def measure_cell(
        service: str, batch_max: int, capacity: int,
        cell_loads: Sequence[float], saturate: bool,
    ) -> CacheCell:
        built = sweep_scale(
            batch_max, capacity, scale=scale, cache_policy=cache_policy
        )
        saturation = 0.0
        if saturate:
            saturation = runner.measure_saturation(
                service, built,
                SATURATION_OFFERED_QPS.get(service, 25_000.0), seed=seed,
                duration_us=saturation_duration_us, warmup_us=WARMUP_US,
            )
        return CacheCell(
            service=service,
            batch_max=batch_max,
            cache_capacity=capacity,
            saturation_qps=saturation,
            loads=[
                measure_cache_point(
                    service, built, qps, seed=seed, duration_us=duration_us,
                    telemetry=telemetry,
                )
                for qps in cell_loads
            ],
        )

    cells = [
        measure_cell(service, batch_max, capacity, loads, saturate=True)
        for service in services
        for batch_max, capacity in ((0, 0), (DEFAULT_BATCH_MAX, DEFAULT_CAPACITY))
    ]
    acceptance_qps = max(loads) if loads else ACCEPTANCE_QPS
    # Batch-size axis (cache off isolates the coalescing effect) and
    # capacity axis (batching off isolates the Zipf hit-rate curve), each
    # at the acceptance load only.
    if axes and BATCH_AXIS_SERVICE in services:
        cells += [
            measure_cell(
                BATCH_AXIS_SERVICE, batch_max, 0, [acceptance_qps], saturate=False
            )
            for batch_max in batch_sizes
        ]
    if axes and CAPACITY_AXIS_SERVICE in services:
        cells += [
            measure_cell(
                CAPACITY_AXIS_SERVICE, 0, capacity, [acceptance_qps], saturate=False
            )
            for capacity in capacities
        ]

    doc = {
        "benchmark": (
            f"leaf-request batching + mid-tier result cache, "
            f"scale={scale_name} (batch={DEFAULT_BATCH_MAX}, "
            f"capacity={DEFAULT_CAPACITY} {cache_policy}), seed={seed}"
        ),
        "scale": scale_name,
        "seed": seed,
        "duration_us": duration_us,
        "defaults": {
            "batch_max": DEFAULT_BATCH_MAX,
            "batch_max_wait_us": DEFAULT_BATCH_WAIT_US,
            "cache_capacity": DEFAULT_CAPACITY,
            # The policy the cells ran under: drift's pinned re-run reads it.
            "cache_policy": cache_policy,
        },
        "cells": [asdict(cell) for cell in cells],
        # Reproducibility: the on cell, run twice from scratch.
        "reproducibility": {"service": services[0], "qps": acceptance_qps},
    }
    doc["reproducibility"].update(runner.double_run(pinned, doc, telemetry))
    doc["acceptance"] = acceptance(doc)
    return doc


def acceptance(doc: dict) -> Dict[str, object]:
    """The checks committed alongside the data."""
    services = sorted({cell["service"] for cell in doc["cells"]})
    qps = doc["reproducibility"]["qps"]
    reproducible = doc["reproducibility"]["bit_identical"]
    per_service: Dict[str, Dict[str, object]] = {}
    headline = False
    futex_lower_everywhere = True
    hit_rate_positive = True
    for service in services:
        off = runner.find_row(
            doc["cells"], service=service, batch_max=0, cache_capacity=0
        )
        on = runner.find_row(
            doc["cells"], service=service, batch_max=DEFAULT_BATCH_MAX,
            cache_capacity=DEFAULT_CAPACITY,
        )
        if off is None or on is None:
            continue
        p_off = runner.find_row(off["loads"], qps=qps)
        p_on = runner.find_row(on["loads"], qps=qps)
        if p_off is None or p_on is None:
            continue
        sat_off, sat_on = off["saturation_qps"], on["saturation_qps"]
        saturation_gain = sat_on / sat_off if sat_off else 0.0
        p99_reduction = (
            1.0 - p_on["p99_us"] / p_off["p99_us"] if p_off["p99_us"] else 0.0
        )
        futex_lower = p_on["futex_per_query"] < p_off["futex_per_query"]
        hit_rate = float(p_on["cache"].get("hit_rate", 0.0))
        per_service[service] = {
            "saturation_off_qps": round(sat_off, 1),
            "saturation_on_qps": round(sat_on, 1),
            "saturation_gain": round(saturation_gain, 3),
            "p99_off_us": round(p_off["p99_us"], 1),
            "p99_on_us": round(p_on["p99_us"], 1),
            "p99_reduction": round(p99_reduction, 3),
            "futex_off_per_query": round(p_off["futex_per_query"], 2),
            "futex_on_per_query": round(p_on["futex_per_query"], 2),
            "futex_strictly_lower": futex_lower,
            "hit_rate": round(hit_rate, 3),
        }
        if (
            saturation_gain >= TARGET_SATURATION_GAIN
            or p99_reduction >= TARGET_P99_REDUCTION
        ):
            headline = True
        futex_lower_everywhere = futex_lower_everywhere and futex_lower
        hit_rate_positive = hit_rate_positive and hit_rate > 0.0

    checks: Dict[str, object] = {
        "acceptance_qps": qps,
        "target_saturation_gain": TARGET_SATURATION_GAIN,
        "target_p99_reduction": TARGET_P99_REDUCTION,
        "per_service": per_service,
        "headline_win": headline,
        "futex_strictly_lower_everywhere": futex_lower_everywhere,
        "hit_rate_positive_everywhere": hit_rate_positive,
        "bit_reproducible": reproducible,
    }
    checks["pass"] = bool(
        headline
        and futex_lower_everywhere
        and hit_rate_positive
        and reproducible
        and bool(per_service)
    )
    return checks


def format_cache_sweep(doc: dict) -> str:
    """The sweep as off-vs-on, batch-axis, and capacity-axis tables."""
    rows = []
    for cell in doc["cells"]:
        for point in cell["loads"]:
            cache, batch = point["cache"], point["batch"]
            rows.append((
                cell["service"],
                cell["batch_max"] or "-",
                cell["cache_capacity"] or "-",
                f"{point['qps']:g}",
                f"{cell['saturation_qps']:,.0f}" if cell["saturation_qps"] else "-",
                round(point["p50_us"]),
                round(point["p99_us"]),
                f"{point['futex_per_query']:.1f}",
                f"{cache.get('hit_rate', 0.0):.2f}" if cache else "-",
                f"{batch.get('mean_occupancy', 0.0):.1f}" if batch else "-",
            ))
    out = ["batching x caching cells:"]
    out.append(render_table(
        ("service", "batch", "capacity", "QPS", "saturation", "p50 us",
         "p99 us", "futex/q", "hit rate", "occupancy"),
        rows,
    ))
    repro = doc["reproducibility"]
    out.append("")
    out.append(
        f"reproducibility ({repro['service']}, batch={DEFAULT_BATCH_MAX}, "
        f"capacity={DEFAULT_CAPACITY} @ {repro['qps']:g} QPS): " + runner.reproduced(doc)
    )
    return "\n".join(out)


def pinned(doc: dict, telemetry=None) -> CachePoint:
    """The reproducibility cell from the parameters ``doc`` records, for
    the double run and the drift gate: the fully-featured config (batch +
    cache + timers + single-flight) on ``service`` at ``qps``."""
    repro, defaults = doc["reproducibility"], doc["defaults"]
    built = sweep_scale(
        defaults["batch_max"], defaults["cache_capacity"], scale=doc["scale"],
        batch_wait_us=defaults["batch_max_wait_us"],
        cache_policy=defaults["cache_policy"],
    )
    return measure_cache_point(
        repro["service"], built, repro["qps"], seed=doc["seed"],
        duration_us=doc["duration_us"], telemetry=telemetry,
    )


#: Registry entry: ``usuite cache``.
EXPERIMENT = runner.Experiment(
    name="cache",
    help="leaf batching x result cache sweep",
    title="Batching x caching sweep",
    run=run_cache_sweep,
    format=format_cache_sweep,
    acceptance=acceptance,
    schema="bench_cache.schema.json",
    bench_path="BENCH_cache.json",
    pinned=pinned,
    flags=(
        runner.SCALE, runner.SEED, runner.services_flag(),
        runner.loads_flag(None, help="offered loads in QPS "
                          "(default: 1000 10000)"),
        runner.duration_flag(help="measured window per cell (default: 400 ms)"),
        runner.TELEMETRY,
        runner.Flag("--batch-sizes", nargs="+", type=runner.positive_int,
                    default=None, metavar="N",
                    help="batch-size axis (default: 4 8 16)"),
        runner.Flag("--capacity", param="capacities", nargs="+",
                    type=runner.positive_int, default=None, metavar="N",
                    help="cache-capacity axis (default: 256 1024 4096)"),
        runner.Flag("--policy", param="cache_policy", choices=CACHE_POLICIES,
                    default=DEFAULT_POLICY, help="cache eviction policy"),
        runner.Flag("--no-axes", dest="axes", action="store_false",
                    help="skip the batch-size / capacity axes (off-vs-on only)"),
    ),
)


__all__ = [
    "BATCH_SIZES", "CACHE_POLICIES", "CAPACITIES", "DEFAULT_BATCH_MAX",
    "DEFAULT_CAPACITY", "DEFAULT_DURATION_US", "EXPERIMENT", "LOADS",
    "CacheCell", "CachePoint", "acceptance",
    "format_cache_sweep", "measure_cache_point", "pinned", "run_cache_sweep",
    "sweep_scale",
]
