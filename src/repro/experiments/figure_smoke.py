"""CI figure smoke (``usuite figure-smoke``): tiny cells, paper-shape checks.

Full figure regeneration is minutes of wall time — too slow for a CI
gate.  This module runs miniature versions of the Fig. 9 / Fig. 10 /
Figs. 15-18 cells (short windows, the golden-determinism cells' scale)
and asserts the *shape* the paper reports rather than exact values:

* **Fig. 10** — median latency at 100 QPS exceeds the median at
  1 000 QPS (the paper's low-load inflation from C-states/downclocking);
* **Figs. 15-18** — Active-Exe (runqueue wait) dominates every other
  pure-OS category at the mid-tier p99;
* **Fig. 9** — the service sustains well above the 1 000 QPS
  characterization load when driven into overload.

``usuite figure-smoke --output smoke.json`` writes the measured metrics
and per-check verdicts as JSON (the CI artifact) and exits non-zero if
any check fails.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

from repro.experiments import runner
from repro.experiments.characterize import characterize
from repro.experiments.figures import (
    active_exe_dominates,
    low_load_median_inflation,
    saturation_throughput,
)
from repro.experiments.tables import render_table

#: Two services keep the job under a minute; the invariants are
#: per-service, so any subset is a valid (weaker) gate.
SMOKE_SERVICES = ("hdsearch", "router")

#: The golden-determinism cells' window: long enough for stable medians,
#: short enough for CI.
SMOKE_DURATION_US = 120_000.0
SMOKE_WARMUP_US = 60_000.0

#: The 100 QPS cell needs a longer window for a stable median
#: (~40 completions instead of ~12).
LOW_LOAD_DURATION_US = 400_000.0

#: Fig. 9 floor: the mini overload run must sustain well above the
#: 1 000 QPS characterization load.
SATURATION_FLOOR_QPS = 2_000.0


@dataclass
class SmokeCheck:
    """One paper-shape assertion and its verdict."""

    name: str
    passed: bool
    detail: str


def run_figure_smoke(
    services: Optional[Iterable[str]] = None,
    scale: str = "small",
    seed: int = 0,
) -> dict:
    """Run the miniature cells and evaluate every shape check."""
    checks: List[SmokeCheck] = []
    metrics: Dict[str, dict] = {}
    for service in services or SMOKE_SERVICES:
        low = characterize(
            service, 100.0, scale=scale, seed=seed,
            duration_us=LOW_LOAD_DURATION_US, warmup_us=SMOKE_WARMUP_US,
        )
        mid = characterize(
            service, 1_000.0, scale=scale, seed=seed,
            duration_us=SMOKE_DURATION_US, warmup_us=SMOKE_WARMUP_US,
        )
        saturation = saturation_throughput(
            service, scale=scale, seed=seed,
            duration_us=SMOKE_DURATION_US, warmup_us=SMOKE_WARMUP_US,
        )
        inflation = low_load_median_inflation({100.0: low, 1_000.0: mid})
        metrics[service] = {
            "median_100qps_us": low.e2e.median,
            "median_1000qps_us": mid.e2e.median,
            "p99_1000qps_us": mid.e2e.percentile(99),
            "low_load_median_inflation": inflation,
            "active_exe_p99_us": mid.overheads["active_exe"].percentile(99),
            "overheads_p99_us": mid.overhead_summary(99),
            "saturation_qps": saturation,
            "completed_100qps": low.completed,
            "completed_1000qps": mid.completed,
        }
        checks.append(
            SmokeCheck(
                name=f"{service}.fig10.low_load_median_inflation",
                passed=inflation > 1.0,
                detail=(
                    f"median@100QPS {low.e2e.median:.1f}us vs "
                    f"median@1000QPS {mid.e2e.median:.1f}us "
                    f"(ratio {inflation:.2f}x, expected > 1)"
                ),
            )
        )
        checks.append(
            SmokeCheck(
                name=f"{service}.fig15_18.active_exe_dominates",
                passed=active_exe_dominates(mid),
                detail=(
                    "Active-Exe p99 "
                    f"{mid.overheads['active_exe'].percentile(99):.2f}us vs other "
                    "OS categories "
                    + ", ".join(
                        f"{kind}={mid.overheads[kind].percentile(99):.2f}"
                        for kind in ("hardirq", "net_tx", "net_rx", "block",
                                     "sched", "rcu")
                    )
                ),
            )
        )
        checks.append(
            SmokeCheck(
                name=f"{service}.fig09.saturation_floor",
                passed=saturation >= SATURATION_FLOOR_QPS,
                detail=(
                    f"overload completion rate {saturation:.0f} QPS "
                    f"(floor {SATURATION_FLOOR_QPS:g})"
                ),
            )
        )
    return {
        "scale": scale,
        "seed": seed,
        "services": metrics,
        "checks": [asdict(check) for check in checks],
        "passed": all(check.passed for check in checks),
    }


def format_figure_smoke(report: dict) -> str:
    """The check table plus a one-line verdict."""
    rows = [
        (check["name"], "PASS" if check["passed"] else "FAIL", check["detail"])
        for check in report["checks"]
    ]
    table = render_table(("check", "verdict", "detail"), rows)
    verdict = "all checks passed" if report["passed"] else "CHECKS FAILED"
    return f"{table}\n{verdict}"


#: Registry entry: ``usuite figure-smoke``.
EXPERIMENT = runner.Experiment(
    name="figure-smoke",
    help="tiny fig9/fig10/fig15-18 cells + paper-shape checks",
    title="Figure smoke — paper-shape checks on miniature cells",
    run=run_figure_smoke,
    format=format_figure_smoke,
    acceptance=lambda doc: {"pass": doc["passed"]},
    schema="figure_smoke.schema.json",
    flags=(
        runner.SCALE, runner.SEED,
        runner.services_flag(None, help="default: hdsearch router"),
    ),
)
