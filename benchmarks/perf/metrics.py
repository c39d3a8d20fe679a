"""Metric definitions shared by every pass, the schema and ``compare``.

All numbers are **host time** unless the name starts with ``model.``
(simulated time).  ``exact`` marks values that are seed-deterministic
counts: they must repeat bit-for-bit across reps and across runs of the
same commit, so ``compare`` checks them for equality, not against a
bound.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, NamedTuple


class EndToEnd(NamedTuple):
    unit: str
    better: str
    # Share of the parent's median by which the metric may worsen.
    bound: float
    exact: bool
    # Absolute slack ``compare`` allows however small the median (the
    # driver knows only the relative bound).
    floor: float = 0.0


#: The five end-to-end metrics.  ``failed_share`` is always 0 on a
#: healthy tree, so the driver-facing BENCHMARK.json carries it through
#: the result's ``attempted``/``failed`` counts instead of as a metric.
END_TO_END: Dict[str, EndToEnd] = {
    "wall_s_per_kquery": EndToEnd("s/kquery", "lower", 0.25, False),
    "events_per_query": EndToEnd("count", "lower", 0.08, True),
    # A 2 ms or 50 ms set-up cannot be resolved to a quarter of itself.
    "setup_s": EndToEnd("s", "lower", 0.25, False, floor=0.05),
    "peak_rss_mb": EndToEnd("MiB", "lower", 0.20, False),
    "failed_share": EndToEnd("share", "lower", 0.0, True),
}

#: Pass-1 by-products read from public counters after each untraced rep:
#: name -> (unit, exact).
BYPRODUCTS: Dict[str, tuple] = {
    "sim.events_per_wall_s": ("1/s", False),
    "sim.sim_us_per_wall_s": ("us/s", False),
    "host.cpu_s_per_kquery": ("s/kquery", False),
    "phase.warmup_s": ("s", False),
    "phase.window_s": ("s", False),
    "phase.drain_fold_s": ("s", False),
    "kernel.futex_per_query": ("count", True),
    "kernel.syscalls_per_query": ("count", True),
    "kernel.ctxsw_per_query": ("count", True),
    "kernel.hitm_per_query": ("count", True),
    "net.retransmissions": ("count", True),
    "rpc.hedges_per_query": ("count", True),
    "rpc.batch_mean_size": ("count", True),
    "rpc.lb_backlogged": ("count", True),
    "rpc.parked_at_stop": ("count", True),
    "control.actuations": ("count", True),
    "telemetry.retained_samples": ("count", True),
    "telemetry.spill_bytes_per_query": ("B", True),
    "model.e2e_p50_us": ("us", True),
    "model.e2e_p99_us": ("us", True),
    "model.completed": ("count", True),
}

#: Pass-3 buckets: packages under ``src/repro``; ``kernel``, ``rpc`` and
#: ``telemetry`` are split by module because half the time lives there.
SPLIT_MODULES = {
    "kernel": ("scheduler", "futex", "machine", "sockets", "threads", "ops"),
    "rpc": ("server", "loadbalance", "batching", "queue"),
    "telemetry": ("probes", "histogram", "stream", "windows", "tracing", "aggregate"),
}
PACKAGES = (
    "sim", "kernel", "net", "rpc", "loadgen", "telemetry", "services",
    "midcache", "graph", "control", "energy", "faults", "suite", "data",
)
HOST_BUCKET = "host.other"


def buckets() -> tuple:
    out = []
    for package in PACKAGES:
        split = SPLIT_MODULES.get(package)
        if split is None:
            out.append(package)
        else:
            out.extend(f"{package}.{module}" for module in split)
            out.append(f"{package}.other")
    out.append(HOST_BUCKET)
    return tuple(out)


BUCKETS = buckets()


def trace_metric_units() -> Dict[str, tuple]:
    """name -> (unit, exact) for every pass-3 metric."""
    out: Dict[str, tuple] = {}
    for bucket in BUCKETS:
        out[f"trace.{bucket}.self_share"] = ("share", False)
    for package in PACKAGES:
        out[f"trace.{package}.calls_per_query"] = ("count", True)
    out["trace.dispatch_us_p50"] = ("us", False)
    out["trace.dispatch_us_p99"] = ("us", False)
    out["trace.overhead_ratio"] = ("ratio", False)
    return out


def summarize(samples: Iterable[float], unit: str, exact: bool = False) -> dict:
    """One reported metric: the median with quartiles and ``n``."""
    samples = [float(s) for s in samples]
    record = {
        "value": statistics.median(samples),
        "unit": unit,
        "n": len(samples),
        "exact": exact,
    }
    if len(samples) >= 2:
        # Inclusive: with five reps the quartiles are the second and the
        # fourth, so the first rep of a process (cold, always the slowest
        # set-up) does not widen them on its own.
        q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        record["q1"], record["q3"] = q1, q3
    return record
