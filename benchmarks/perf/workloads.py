"""The four benchmark workloads: what is built, and what load drives it.

Host-side each workload is a batch job (a fixed simulated drive, timed);
the *simulated* load is open-loop — Poisson, or a diurnal curve through
Lewis–Shedler thinning — generated inside the simulation by the repo's
own load generators.  Only names re-exported by :mod:`repro` plus the
five config/loadgen classes imported below are used; nothing from
``repro.experiments``.

Sizes were chosen so five reps (set-up + drive) of every workload fit
the contract's time cap on a 2-core box.  The rates are the issue's; only
the simulated windows were shortened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro import (
    SCALES,
    BatchConfig,
    DiurnalRate,
    EnergyConfig,
    SimCluster,
    VariableRateLoadGen,
    build_graph,
    build_service,
    exemplar_graph,
)
from repro.control import ControlConfig
from repro.faults import FaultPlan, MidTierPressure
from repro.loadgen import OpenLoopLoadGen
from repro.rpc.policy import TailPolicy
from repro.telemetry import TelemetryConfig

#: Every rep names its generator explicitly: the default name comes from
#: a process-wide instance counter, and the name seeds the arrival stream.
CLIENT_NAME = "client1"

DRAIN_US = 50_000.0
#: Length of the cycling query set every workload's source yields.
QUERY_SET = SCALES["small"].n_queries


def spill_path(workdir: Path) -> Path:
    """Where the streaming workload's telemetry spills, inside the checkout
    (the default is the system temp directory)."""
    return workdir / "telemetry-spill.jsonl"


@dataclass(frozen=True)
class Workload:
    """One benchmark cell.

    ``setup(cluster_seed, workdir)`` builds a fresh seeded cluster and returns
    ``(cluster, handle, source)``; ``make_gen(cluster, handle, source,
    warmup_us, window_us, name)`` constructs the load generator for a
    drive of that shape.
    """

    name: str
    why: str
    load: str
    warmup_us: float
    window_us: float
    setup: Callable
    make_gen: Callable
    drain_us: float = DRAIN_US

    def sized(self, factor: float) -> "Workload":
        """The same cell with warm-up and window scaled by ``factor``
        (rates, topology and the drain are never scaled)."""
        return replace(
            self,
            warmup_us=self.warmup_us * factor,
            window_us=self.window_us * factor,
        )

    def sizes(self) -> dict:
        return {
            "load": self.load,
            "warmup_us": self.warmup_us,
            "window_us": self.window_us,
            "drain_us": self.drain_us,
        }


def _open_loop(qps: float) -> Callable:
    def make_gen(cluster, handle, source, warmup_us, window_us, name=CLIENT_NAME):
        return OpenLoopLoadGen(
            cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
            target=handle.target_address, source=source, qps=qps, name=name,
        )

    return make_gen


def _service_setup(service: str) -> Callable:
    def setup(cluster_seed: int, workdir: Path):
        cluster = SimCluster(seed=cluster_seed)
        handle = build_service(service, cluster, SCALES["small"])
        return cluster, handle, handle.make_source()

    return setup


def _socialnet_setup(cluster_seed: int, workdir: Path):
    cluster = SimCluster(seed=cluster_seed)
    handle = build_graph(cluster, exemplar_graph(n_queries=QUERY_SET))
    return cluster, handle, handle.make_source()


# -- hdsearch-features-on: every optional subsystem enabled -----------------

FEATURES_BASE_QPS = 5_200.0
FEATURES_AMPLITUDE = 0.65


def _features_scale():
    small = SCALES["small"]
    return small.with_overrides(
        # One mid-tier core makes replica count the knob that matters, so
        # the controller has something to do inside a short window.  Its
        # thresholds sit well below the p99 the antagonist produces: every
        # scale-out is then paced by the cooldown.  With thresholds near
        # the operating point, which side of one a noisy 20 ms window
        # lands on moved events/query by 10 % between input seeds.
        topology=replace(small.topology, midtier_cores=1),
        batch=BatchConfig(enabled=True, max_batch=4, max_wait_us=40.0),
        control=ControlConfig(
            enabled=True,
            policy="threshold",
            tick_us=20_000.0,
            window_us=20_000.0,
            min_replicas=1,
            max_replicas=4,
            initial_replicas=1,
            p99_high_us=1_200.0,
            p99_low_us=200.0,
            cooldown_us=40_000.0,
            hedge_percentile_overload=99.0,
            hedge_percentile_baseline=95.0,
            batch_max_overload=8,
            batch_max_baseline=4,
        ),
    )


def _features_setup(cluster_seed: int, workdir: Path):
    # The spill stream is kept after the fold so its size can be read;
    # the harness deletes it.
    cluster = SimCluster(
        seed=cluster_seed,
        faults=FaultPlan(midtier_pressure=MidTierPressure(2, 150.0, 300.0)),
        telemetry=TelemetryConfig(mode="streaming", spill_path=str(spill_path(workdir))),
        energy=EnergyConfig(enabled=True),
    )
    handle = build_service(
        "hdsearch", cluster, _features_scale(),
        tail_policy=TailPolicy(deadline_us=50_000.0, hedge_percentile=95.0),
    )
    return cluster, handle, handle.make_source()


def _features_gen(cluster, handle, source, warmup_us, window_us, name=CLIENT_NAME):
    # One full day over the measured window, trough where it opens: the
    # controller must scale out and back in.
    curve = DiurnalRate(
        base_qps=FEATURES_BASE_QPS,
        amplitude=FEATURES_AMPLITUDE,
        period_us=window_us,
        phase_rad=-math.pi / 2.0 - 2.0 * math.pi * warmup_us / window_us,
    )
    return VariableRateLoadGen(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=source, curve=curve, name=name,
    )


WORKLOADS = (
    Workload(
        name="hdsearch-10k",
        why=(
            "historical perf cell at high load: runqueue, futex, softirq, RPC "
            "fan-out and the real application kernels are busy; every feature "
            "hook is off"
        ),
        load="open-loop Poisson 10000 QPS",
        warmup_us=25_000.0,
        window_us=50_000.0,
        setup=_service_setup("hdsearch"),
        make_gen=_open_loop(10_000.0),
    ),
    Workload(
        name="router-100",
        why=(
            "low load: ten times the events per query, nearly all idle entry/exit, "
            "C-state timers, ticks and polling wake-ups; bypasses application "
            "compute and fan-out"
        ),
        load="open-loop Poisson 100 QPS, YCSB-A 50/50 get/set",
        warmup_us=400_000.0,
        window_us=2_400_000.0,
        setup=_service_setup("router"),
        make_gen=_open_loop(100.0),
    ),
    Workload(
        name="socialnet-2k",
        why=(
            "deep 5-tier DAG with synthetic compute: a query costs hops, so RPC "
            "server, fabric and NIC/softirq dominate; bypasses application "
            "kernels and the idle path"
        ),
        load="open-loop Poisson 2000 QPS",
        warmup_us=30_000.0,
        window_us=300_000.0,
        setup=_socialnet_setup,
        make_gen=_open_loop(2_000.0),
    ),
    Workload(
        name="hdsearch-features-on",
        why=(
            "hdsearch with controller, balancer, batching, hedging, antagonist, "
            "streaming telemetry and energy all on: cost pushed from the off "
            "path onto the hooks shows here"
        ),
        load="diurnal 5200 QPS base, amplitude 0.65, thinned open loop",
        warmup_us=50_000.0,
        window_us=100_000.0,
        setup=_features_setup,
        make_gen=_features_gen,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
