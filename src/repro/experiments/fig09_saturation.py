"""Fig. 9: saturation throughput per service.

The paper (§V, §VI-A) establishes peak sustainable throughput with its
closed-loop load generator.  In the simulator the default measurement is
instead the completion rate under a 2× open-loop *overload* — a
substitution documented in DESIGN.md: the simulated closed-loop's
perfectly completion-synchronized arrivals are unrealistically smooth
(no client-side jitter), letting services ride ~15-25 % above the
capacity they can sustain under Poisson arrivals, which is the capacity
every other figure depends on.  Both modes are available.

The paper measures HDSearch ≈ 11.5 K, Router ≈ 12 K, Set Algebra ≈
16.5 K, and Recommend ≈ 13 K QPS; the scaled simulation targets the same
values and, critically, the same *ordering*.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.experiments import runner
from repro.experiments.tables import render_table
from repro.suite import ServiceScale
from repro.suite.cluster import run_closed_loop
from repro.suite.registry import SERVICE_NAMES

#: The paper's measured saturation throughputs (Fig. 9), for comparison.
PAPER_SATURATION_QPS = {
    "hdsearch": 11_500.0,
    "router": 12_000.0,
    "setalgebra": 16_500.0,
    "recommend": 13_000.0,
}


def saturation_throughput(
    service_name: str,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    duration_us: float = 400_000.0,
    warmup_us: float = 200_000.0,
    mode: str = "overload",
    n_clients: int = 192,
    overload_factor: float = 2.0,
) -> float:
    """Peak sustainable QPS for one service.

    ``mode="overload"`` (default) offers ``overload_factor ×`` the paper's
    saturation value open-loop and reports the completion rate;
    ``mode="closed"`` uses the paper's closed-loop methodology directly.
    """
    if mode == "overload":
        offered = overload_factor * PAPER_SATURATION_QPS.get(service_name, 15_000.0)
        return runner.measure_saturation(
            service_name, scale, offered, seed=seed,
            duration_us=duration_us, warmup_us=warmup_us,
        )
    if mode != "closed":
        raise ValueError(f"unknown mode {mode!r}")
    with runner.build_cluster(service_name, scale, seed=seed) as (cluster, service):
        return run_closed_loop(
            cluster, service, n_clients=n_clients, duration_us=duration_us,
            warmup_us=warmup_us,
        ).throughput_qps


def run_fig09(
    services: Optional[Iterable[str]] = None,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    duration_us: float = 400_000.0,
) -> Dict[str, float]:
    """Measure every service's saturation throughput."""
    results = {}
    for name in services or SERVICE_NAMES:
        results[name] = saturation_throughput(
            name, scale=scale, seed=seed, duration_us=duration_us
        )
    return results


def format_fig09(results: Dict[str, float]) -> str:
    """Fig. 9 as a table with paper-vs-measured columns."""
    rows = []
    for name, qps in results.items():
        paper = PAPER_SATURATION_QPS.get(name, float("nan"))
        rows.append((name, round(paper), round(qps), f"{qps / paper:.2f}x"))
    return render_table(
        ("service", "paper QPS", "measured QPS", "ratio"), rows
    )


#: Registry entry: ``usuite fig9``.
EXPERIMENT = runner.Experiment(
    name="fig9",
    help="saturation throughput per service",
    title="Fig. 9 — saturation throughput",
    run=run_fig09,
    format=format_fig09,
    flags=(
        runner.SCALE, runner.SEED, runner.services_flag(),
        runner.duration_flag(400_000.0, help="measured window per cell"),
    ),
)
