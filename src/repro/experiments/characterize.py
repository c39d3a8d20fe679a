"""Run one service at one load and extract every probe the paper reports.

This is the paper's §V methodology as a function: build a fresh cluster,
drive it open-loop at the offered load, trim warm-up, and collect the
measurement window's end-to-end latency, syscall profile, OS-overhead
latency breakdown, contention counters, and retransmission count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.experiments import runner
from repro.suite import ServiceScale
from repro.telemetry import LatencyHistogram

#: The loads the paper characterizes (QPS).
PAPER_LOADS = (100.0, 1_000.0, 10_000.0)

#: The OS-overhead categories of Figs. 15-18, in the paper's order.
#: Active-Exe is runqlat; Net is per-request RPC network time.
OVERHEAD_KINDS = ("hardirq", "net_tx", "net_rx", "block", "sched", "rcu",
                  "active_exe", "net")


@dataclass
class CharacterizationResult:
    """Everything measured for one (service, load) cell."""

    service: str
    qps: float
    duration_us: float
    sent: int
    completed: int
    e2e: LatencyHistogram
    syscalls_per_query: Dict[str, float]
    overheads: Dict[str, LatencyHistogram]
    context_switches: int
    hitm: int
    retransmissions: int
    midtier_latency: LatencyHistogram
    throughput_qps: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    def overhead_summary(self, pct: float = 99.0) -> Dict[str, float]:
        """One percentile across every overhead category."""
        return {kind: hist.percentile(pct) for kind, hist in self.overheads.items()}

    def tail_share_of(self, kind: str) -> float:
        """Fraction of the mid-tier p99 latency attributable to ``kind``
        (the paper's "Active-Exe contributes up to X% of the tail")."""
        tail = self.midtier_latency.percentile(99)
        if tail <= 0:
            return 0.0
        return min(1.0, self.overheads[kind].percentile(99) / tail)


def default_duration_us(qps: float, min_queries: int = 600) -> float:
    """A window long enough for ``min_queries`` completions at ``qps``."""
    return max(500_000.0, min_queries / qps * 1e6)


def characterize(
    service_name: str,
    qps: float,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    duration_us: Optional[float] = None,
    warmup_us: float = 200_000.0,
    midtier_policy=None,
    scale_overrides: Optional[dict] = None,
    faults=None,
    tail_policy=None,
    telemetry=None,
) -> CharacterizationResult:
    """Characterize ``service_name`` at ``qps`` on a fresh cluster.

    ``faults`` (a :class:`repro.faults.FaultPlan`) perturbs the cell;
    ``tail_policy`` (a :class:`repro.rpc.policy.TailPolicy`) arms the
    mid-tier's deadline/hedging/retry layer.  Both default to off and the
    defaults are bit-identical to the stock engine.  ``telemetry`` (a
    :class:`~repro.telemetry.TelemetryConfig`) selects the aggregation
    mode; None keeps the scale's default (buffered).
    """
    if duration_us is None:
        duration_us = default_duration_us(qps)
    result, service = runner.open_loop_cell(
        service_name, qps, duration_us, scale=scale, seed=seed,
        overrides=scale_overrides, warmup_us=warmup_us,
        midtier_policy=midtier_policy, tail_policy=tail_policy,
        faults=faults, telemetry=telemetry,
    )
    hub = result.telemetry
    mid = service.midtier_name

    overheads: Dict[str, LatencyHistogram] = {}
    for kind in ("hardirq", "net_tx", "net_rx", "block", "sched", "rcu"):
        overheads[kind] = hub.irq_hist(mid, kind)
    overheads["active_exe"] = hub.runqlat.get(mid, LatencyHistogram(1))
    overheads["net"] = hub.hist(f"net_rpc:{mid}")

    return CharacterizationResult(
        service=service_name,
        qps=qps,
        duration_us=duration_us,
        sent=result.sent,
        completed=result.completed,
        e2e=result.e2e,
        syscalls_per_query=result.syscalls_per_query(),
        overheads=overheads,
        context_switches=hub.context_switches[mid],
        hitm=hub.hitm[mid],
        retransmissions=hub.retransmissions,
        midtier_latency=hub.hist(f"midtier_latency:{mid}"),
        throughput_qps=result.throughput_qps,
        extras={
            "request_path": hub.hist(f"midtier_reqpath:{mid}"),
            "response_path": hub.hist(f"midtier_resppath:{mid}"),
            "tail": service.midtier.tail_stats(),
            "counters": dict(hub.counters),
        },
    )


def characterize_grid(
    variants: Mapping[str, Tuple[str, ServiceScale | str]],
    loads: Iterable[float],
    seed: int = 0,
    min_queries: int = 600,
) -> Dict[str, Dict[float, CharacterizationResult]]:
    """``{variant: {qps: cell}}`` over ``variants × loads``.

    Each variant is a ``(service, scale)`` pair: the paper figures vary
    the service at one scale, the §VII ablations vary the scale (one
    runtime knob) for one service.  Every cell's window is long enough
    for ``min_queries`` completions.
    """
    loads = list(loads)
    return {
        variant: {
            qps: characterize(
                service, qps, scale=scale, seed=seed,
                duration_us=default_duration_us(qps, min_queries),
            )
            for qps in loads
        }
        for variant, (service, scale) in variants.items()
    }
