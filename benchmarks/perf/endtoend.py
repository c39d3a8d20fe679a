"""Pass 1: untraced reps of one workload, end-to-end metrics and counts.

Every rep builds a fresh cluster from the same seeds, so its simulated
outcome is identical by construction; what varies is host time.  The reps
therefore double as the correctness check: their ``model.digest`` and
``events_per_query`` must agree exactly, and no query may be lost or
answered with an error.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from benchmarks.perf.drive import Drive, drive
from benchmarks.perf.metrics import BYPRODUCTS, END_TO_END, summarize
from benchmarks.perf.workloads import QUERY_SET, Workload, spill_path

MIN_REPS = 5
#: A rep whose wall clock exceeds this multiple of its CPU time was
#: descheduled; it is re-run once and the workload is flagged noisy.
DESCHEDULED_RATIO = 1.3
#: Stride (coprime with every query-set size used) that spreads input
#: seeds over the query set.
SEED_STRIDE = 97


@dataclass
class Rep:
    setup_s: float
    drive: Drive
    counts: Dict[str, float]
    digest: str
    # Queries lost for good: still unanswered after follow-up traffic.
    lost: int

    @property
    def failed(self) -> int:
        return self.lost + self.drive.errors

    @property
    def events_per_query(self) -> float:
        return self.drive.events / max(self.drive.completed, 1)

    @property
    def wall_s_per_kquery(self) -> float:
        return 1000.0 * self.drive.wall_s / max(self.drive.completed, 1)


def rotate_source(source, seed: int) -> None:
    """Make the inputs from ``seed``: start the cycling query set at a
    seed-chosen offset.  Seed 0 starts at the beginning — exactly the
    sequence ``run_open_loop`` users get — and the arrival process,
    dataset and kernel noise stay those of the cluster seed, so the
    metrics are steady across input seeds while the model outcome
    (``model.digest``) still changes with every seed."""
    for _ in range(seed * SEED_STRIDE % QUERY_SET):
        source.next_query()


def run_rep(
    workload: Workload,
    seed: int,
    cluster_seed: int,
    workdir: Path,
    around_drive: Optional[Callable] = None,
) -> Rep:
    """Set up, drive and read out one rep on a fresh cluster.

    ``around_drive(fn)`` lets the traced pass wrap the drive call in its
    profile hook; the untraced passes leave it None.
    """
    gc.collect()
    t_0 = time.perf_counter()
    cluster, handle, source = workload.setup(cluster_seed, workdir)
    setup_s = time.perf_counter() - t_0
    try:
        rotate_source(source, seed)
        gen = workload.make_gen(
            cluster, handle, source, workload.warmup_us, workload.window_us
        )

        def go() -> Drive:
            return drive(
                cluster, gen, workload.warmup_us, workload.window_us,
                workload.drain_us,
            )

        # Set-up leaves young garbage behind; collecting it here (the
        # collector stays enabled, as users run) keeps full collections
        # from landing at different points of otherwise identical drives,
        # which tripled the rep-to-rep spread.
        gc.collect()
        result = go() if around_drive is None else around_drive(go)
        counts = _read_counts(cluster, handle, result, workdir)
        digest = _digest(cluster, result)
        lost = _settle(workload, cluster, handle, source, gen)
    finally:
        cluster.shutdown()
        spill_path(workdir).unlink(missing_ok=True)
    # The hub references the simulation and, through its calendar, the
    # whole cluster: a kept rep must not keep that alive.
    result.telemetry = None
    return Rep(setup_s=setup_s, drive=result, counts=counts, digest=digest, lost=lost)


def _settle(workload: Workload, cluster, handle, source, gen) -> int:
    """Queries of ``gen`` still unanswered once follow-up traffic has run.

    A worker that dequeues a request and then finds the task queue's
    eventfd already drained by a sibling parks on the eventfd *holding the
    request* until the next enqueue kicks it (``TaskQueue.get``).  Under
    load that costs the request a little latency; once ``gen.stop()`` has
    ended the traffic the request stays parked for good and the query
    goes unanswered however long the drain.  Such queries are reported as
    ``rpc.parked_at_stop``; only those that a burst of follow-up queries
    still does not bring back count as failed.
    """
    if gen.completed + gen.errors < gen.sent:
        burst_us = workload.window_us / 10.0
        flush = workload.make_gen(
            cluster, handle, source, 0.0, burst_us, name="flush"
        )
        flush.start()
        cluster.run(until=cluster.sim.now + burst_us)
        flush.stop()
        cluster.run(until=cluster.sim.now + workload.drain_us)
        cluster.fabric.unregister(flush.name)
    cluster.fabric.unregister(gen.name)
    return gen.sent - gen.completed - gen.errors


def _read_counts(cluster, handle, d: Drive, workdir: Path) -> Dict[str, float]:
    """The deterministic by-products, from public counters only."""
    tel = d.telemetry
    machines = [machine.name for machine in cluster.machines]
    mids = handle.midtier_names
    window_q = max(d.window_completed, 1)
    syscalls = tel.merged_syscalls(machines)
    spill = spill_path(workdir)
    actuations = 0
    for controller in cluster.controllers:
        stats = controller.stats()
        actuations += (
            stats["scale_ups"] + stats["scale_downs"]
            + stats["hedge_retunes"] + stats["batch_retunes"]
        )
    return {
        "kernel.futex_per_query": syscalls.get("futex", 0) / window_q,
        "kernel.syscalls_per_query": sum(syscalls.values()) / window_q,
        "kernel.ctxsw_per_query": sum(tel.context_switches.values()) / window_q,
        "kernel.hitm_per_query": sum(tel.hitm.values()) / window_q,
        "net.retransmissions": tel.retransmissions,
        "rpc.hedges_per_query": sum(
            tel.counters.get(f"hedges_sent:{name}", 0) for name in mids
        ) / window_q,
        "rpc.batch_mean_size": tel.batch_summary(mids)["mean_occupancy"],
        "rpc.lb_backlogged": (
            handle.frontend.stats()["backlogged"] if handle.frontend else 0
        ),
        "rpc.parked_at_stop": d.sent - d.completed - d.errors,
        "control.actuations": actuations,
        "telemetry.retained_samples": d.retained_samples,
        "telemetry.spill_bytes_per_query": (
            spill.stat().st_size / max(d.completed, 1) if spill.exists() else 0.0
        ),
        "model.e2e_p50_us": d.e2e.percentile(50),
        "model.e2e_p99_us": d.e2e.percentile(99),
        "model.completed": d.window_completed,
    }


def _digest(cluster, d: Drive) -> str:
    """sha256 over the model-side outcome of one drive."""
    tel = d.telemetry
    machines = [machine.name for machine in cluster.machines]
    outcome = {
        "sent": d.sent,
        "completed": d.completed,
        "errors": d.errors,
        "window_sent": d.window_sent,
        "window_completed": d.window_completed,
        "e2e": d.e2e.summary(),
        "syscalls": dict(sorted(tel.merged_syscalls(machines).items())),
        "context_switches": dict(sorted(tel.context_switches.items())),
        "executed": d.events,
    }
    canonical = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _timed_byproducts(rep: Rep) -> Dict[str, float]:
    d = rep.drive
    return {
        "sim.events_per_wall_s": d.events / d.wall_s,
        "sim.sim_us_per_wall_s": d.sim_us / d.wall_s,
        "host.cpu_s_per_kquery": 1000.0 * d.cpu_s / max(d.completed, 1),
        "phase.warmup_s": d.warmup_s,
        "phase.window_s": d.window_s,
        "phase.drain_fold_s": d.drain_fold_s,
    }


def run_workload(
    workload: Workload,
    seed: int,
    cluster_seed: int,
    workdir: Path,
    min_reps: int = MIN_REPS,
    seconds: float = 0.0,
) -> dict:
    """Run the reps of one workload and fold them into its record.

    At least ``min_reps`` reps run; further reps are added while another
    one still fits inside ``seconds`` of measuring.
    """
    reps: List[Rep] = []
    noisy = 0
    started = time.perf_counter()
    while True:
        rep = run_rep(workload, seed, cluster_seed, workdir)
        if rep.drive.wall_s > DESCHEDULED_RATIO * rep.drive.cpu_s:
            noisy += 1
            rep = run_rep(workload, seed, cluster_seed, workdir)
        reps.append(rep)
        if len(reps) == min_reps:
            # Read here, not at the end: the heap creeps up a little with
            # every rep, and how many more follow depends on host speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) > seconds:
            break

    problems: List[str] = []
    digests = sorted({rep.digest for rep in reps})
    if len(digests) > 1:
        problems.append(f"reps disagree on model.digest: {digests}")
    if len({rep.events_per_query for rep in reps}) > 1:
        problems.append("reps disagree on events_per_query")
    attempted = sum(rep.drive.sent for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if failed:
        problems.append(f"{failed} of {attempted} queries lost or in error")
    failed_share = 1.0 if len(digests) > 1 else failed / max(attempted, 1)

    def e2e(name: str, samples) -> dict:
        spec = END_TO_END[name]
        return summarize(samples, spec.unit, spec.exact)

    readings = [{**rep.counts, **_timed_byproducts(rep)} for rep in reps]
    per_layer = {
        name: summarize([reading[name] for reading in readings], unit, exact)
        for name, (unit, exact) in BYPRODUCTS.items()
    }
    return {
        "sizes": workload.sizes(),
        "reps": len(reps),
        "noisy_reps": noisy,
        "end_to_end": {
            "wall_s_per_kquery": e2e(
                "wall_s_per_kquery", [rep.wall_s_per_kquery for rep in reps]
            ),
            "events_per_query": e2e(
                "events_per_query", [rep.events_per_query for rep in reps]
            ),
            "setup_s": e2e("setup_s", [rep.setup_s for rep in reps]),
            "peak_rss_mb": e2e("peak_rss_mb", [peak_rss_mb]),
            "failed_share": e2e("failed_share", [failed_share]),
        },
        "per_layer": per_layer,
        "model": {"digest": digests[0] if len(digests) == 1 else None},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
