"""The benchmark's own windowed drive over the public load generators.

``repro.run_open_loop`` constructs its generator internally, so
``sent - completed`` after the drain and the host time of each phase
cannot be read from outside.  :func:`drive` repeats its sequence —
warm-up, ``open_window``, measured window, ``stop``, drain,
``finalized()`` — step for step on a generator the caller built, so the
benchmark times what users run (``test_perf_harness.py`` asserts the two
agree exactly on the same seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import E2E_HIST


@dataclass
class Drive:
    """Host-time and model-side readings of one drive."""

    # Host side (seconds): the whole drive, and its three phases.
    wall_s: float
    cpu_s: float
    warmup_s: float
    window_s: float
    drain_fold_s: float
    # Engine work over the whole drive.
    events: int
    sim_us: float
    # Generator counters over the whole drive, read after the drain.
    sent: int
    completed: int
    errors: int
    # The measured window alone (what run_open_loop reports).
    window_sent: int
    window_completed: int
    # Raw samples resident when the drain ended, before the fold.
    retained_samples: int
    # The finalized hub; every post-run reader works on it.
    telemetry: object

    @property
    def e2e(self):
        return self.telemetry.hist(E2E_HIST)


def drive(cluster, gen, warmup_us: float, window_us: float, drain_us: float) -> Drive:
    """Run ``gen`` against ``cluster`` exactly as ``run_open_loop`` would.

    ``gen`` stays registered on the fabric (``run_open_loop`` detaches
    its own here), so the caller can still see late replies arrive."""
    sim = cluster.sim
    events_before = sim.executed
    start = sim.now
    cpu_0 = time.process_time()
    t_0 = time.perf_counter()
    gen.start()
    cluster.run(until=start + warmup_us)
    cluster.telemetry.open_window(sim.now)
    if cluster.energy is not None:
        cluster.energy.snapshot(sim.now)
    sent_before, completed_before = gen.sent, gen.completed
    t_1 = time.perf_counter()
    cluster.run(until=start + warmup_us + window_us)
    window_sent = gen.sent - sent_before
    window_completed = gen.completed - completed_before
    if cluster.energy is not None:
        cluster.energy.snapshot(sim.now)
    gen.stop()
    t_2 = time.perf_counter()
    cluster.run(until=start + warmup_us + window_us + drain_us)
    retained = cluster.telemetry.retained_samples()
    telemetry = cluster.telemetry.finalized()
    t_3 = time.perf_counter()
    cpu_s = time.process_time() - cpu_0
    return Drive(
        wall_s=t_3 - t_0,
        cpu_s=cpu_s,
        warmup_s=t_1 - t_0,
        window_s=t_2 - t_1,
        drain_fold_s=t_3 - t_2,
        events=sim.executed - events_before,
        sim_us=sim.now - start,
        sent=gen.sent,
        completed=gen.completed,
        errors=gen.errors,
        window_sent=window_sent,
        window_completed=window_completed,
        retained_samples=retained,
        telemetry=telemetry,
    )
