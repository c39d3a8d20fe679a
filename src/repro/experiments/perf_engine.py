"""Engine performance harness: how fast does the simulator itself run?

The paper's experiments are bounded by simulator throughput, not by the
simulated cluster, so the engine's speed is a first-class artifact.  This
module runs the standard perf cell — HDSearch driven open-loop at 10K QPS
(the paper's highest characterized load) — and reports two engine
metrics:

* **events/sec** — calendar-queue callbacks dispatched per wall second;
* **simulated-µs per wall-second** — how much simulated time one wall
  second buys at this load.

``usuite perf`` runs the cell and records the numbers in
``BENCH_engine.json`` so regressions are visible across commits: the file
keeps a ``before`` slot (the last accepted baseline) and an ``after``
slot (the most recent run), plus their speedup ratio.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from repro.experiments import runner
from repro.suite.cluster import run_open_loop

#: The standard perf cell (the paper's highest characterized load).
PERF_SERVICE = "hdsearch"
PERF_QPS = 10_000.0
PERF_SEED = 0
PERF_DURATION_US = 500_000.0
PERF_WARMUP_US = 200_000.0

#: Default artifact path, relative to the repository root / CWD.
BENCH_PATH = "BENCH_engine.json"


@dataclass
class PerfReport:
    """One measured run of the perf cell."""

    service: str
    qps: float
    seed: int
    scale: str
    wall_s: float
    simulated_us: float
    events: int
    events_per_sec: float
    sim_us_per_wall_s: float
    completed: int

    def format(self) -> str:
        return "\n".join(
            [
                f"perf cell        {self.service} @ {self.qps:g} QPS "
                f"(scale={self.scale}, seed={self.seed})",
                f"wall time        {self.wall_s:10.2f} s",
                f"simulated time   {self.simulated_us:10.0f} us",
                f"events           {self.events:10d}",
                f"events/sec       {self.events_per_sec:10.0f}",
                f"sim-us / wall-s  {self.sim_us_per_wall_s:10.0f}",
                f"completed        {self.completed:10d}",
            ]
        )


def run_perf(
    service: str = PERF_SERVICE,
    qps: float = PERF_QPS,
    seed: int = PERF_SEED,
    scale: str = "small",
    duration_us: float = PERF_DURATION_US,
    warmup_us: float = PERF_WARMUP_US,
    telemetry=None,
) -> PerfReport:
    """Build the perf cell on a fresh cluster and time it end to end.

    The wall clock covers the measured simulation only (cluster and
    service construction — LSH tuning, corpus generation — are excluded:
    they are numpy setup work, not engine throughput).  ``telemetry``
    (a :class:`~repro.telemetry.TelemetryConfig`) selects the
    aggregation mode; None keeps the historical buffered hub.
    """
    with runner.build_cluster(
        service, scale, seed=seed, telemetry=telemetry
    ) as (cluster, handle):
        sim = cluster.sim
        events_before = sim.executed
        sim_before = sim.now
        wall_before = time.perf_counter()
        result = run_open_loop(
            cluster, handle, qps=qps, duration_us=duration_us, warmup_us=warmup_us
        )
        wall = time.perf_counter() - wall_before
        events = sim.executed - events_before
        simulated = sim.now - sim_before
    return PerfReport(
        service=service,
        qps=qps,
        seed=seed,
        scale=scale,
        wall_s=wall,
        simulated_us=simulated,
        events=events,
        events_per_sec=events / wall if wall > 0 else 0.0,
        sim_us_per_wall_s=simulated / wall if wall > 0 else 0.0,
        completed=result.completed,
    )


def record_bench(
    report: PerfReport,
    path: str = BENCH_PATH,
    slot: str = "after",
) -> dict:
    """Write ``report`` into the ``slot`` of ``path`` (merging what exists).

    ``slot="before"`` establishes a new baseline; ``slot="after"`` records
    the current state.  When both slots are present the speedup ratio
    (before.wall_s / after.wall_s) is recomputed.
    """
    if slot not in ("before", "after"):
        raise ValueError(f"slot must be 'before' or 'after': {slot!r}")
    bench_path = Path(path)
    data: dict = {}
    if bench_path.exists():
        data = json.loads(bench_path.read_text())
    data["benchmark"] = (
        f"{report.service} @ {report.qps:g} QPS, scale={report.scale}, "
        f"seed={report.seed}, duration_us={PERF_DURATION_US:g}"
    )
    data[slot] = asdict(report)
    before, after = data.get("before"), data.get("after")
    if before and after and after.get("wall_s"):
        data["speedup"] = round(before["wall_s"] / after["wall_s"], 3)
    bench_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def run_perf_command(
    record_path: Optional[str] = None, slot: str = "after", **cell
) -> str:
    """``usuite perf``: time the cell and, with ``record_path``, fill that
    slot of the artifact.  Returns the text to print — the artifact is a
    slot *merge* into an existing file with wall-clock numbers, so it
    bypasses the runner's validate-and-write step."""
    report = run_perf(**cell)
    lines = [report.format()]
    if record_path:
        speedup = record_bench(report, path=record_path, slot=slot).get("speedup")
        tail = f" (speedup {speedup:g}x)" if speedup else ""
        lines.append(f"recorded '{slot}' in {record_path}{tail}")
    return "\n".join(lines)


#: Registry entry: ``usuite perf``.
EXPERIMENT = runner.Experiment(
    name="perf",
    help="engine throughput on the standard 10K QPS cell",
    title="Engine performance",
    run=run_perf_command,
    format=str,
    flags=(
        runner.SCALE, runner.SEED, runner.service_flag(),
        runner.qps_flag(10_000.0),
        runner.duration_flag(help="measured window (default: the standard "
                             "cell's 500 ms)"),
        runner.Flag("--output", param="record_path", dest="record_path",
                    default=None, metavar="PATH",
                    help="record the run into this JSON file "
                    "(e.g. BENCH_engine.json)"),
        runner.Flag("--record", param="slot", choices=["before", "after"],
                    default="after",
                    help="which slot of the JSON artifact to fill"),
        runner.TELEMETRY,
    ),
)
