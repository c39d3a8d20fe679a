"""Property-based invariants for the simulated kernel.

Seeded randomized schedules (plain ``random.Random`` — no external
dependency, so these run in every environment) exercise the scheduler,
futex, and condvar machinery and assert three invariants that no
interleaving may violate:

* **no lost futex wakeups** — producer/consumer over a condvar with
  *untimed* waits: if a wake is ever lost, a consumer sleeps forever and
  items go unconsumed;
* **thread-state conservation** — at any instant, every live thread is
  in exactly one place: one run-queue entry, or one core's ``current``,
  or blocked on a wait list; DONE threads are nowhere;
* **vruntime monotonicity** — a thread's virtual runtime only
  accumulates (the CFS enqueue normalization may only raise it), sampled
  per core over the whole run.
"""

from __future__ import annotations

import random

import pytest

from repro.kernel import Compute, CondVar, Mutex, Nanosleep, YieldCpu
from repro.kernel.threads import ThreadState

from tests.helpers import Rig

SEEDS = (0, 1, 2, 3, 17, 91)


def _random_program(rng: random.Random, mutex: Mutex):
    """A random straight-line thread body mixing compute/sleep/yield/lock."""
    ops = []
    for _ in range(rng.randrange(1, 9)):
        ops.append(rng.choice(("compute", "sleep", "yield", "lock")))

    def body():
        for op in ops:
            if op == "compute":
                yield Compute(rng.uniform(0.5, 40.0))
            elif op == "sleep":
                yield Nanosleep(rng.uniform(1.0, 150.0))
            elif op == "yield":
                yield YieldCpu()
            else:
                yield from mutex.acquire()
                yield Compute(rng.uniform(0.5, 15.0))
                yield from mutex.release()

    return body()


# -- lost futex wakeups ------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_no_lost_futex_wakeups(seed):
    """Every produced item is consumed even though consumers wait untimed.

    The condvar waits carry **no timeout**: there is no periodic re-wake
    to paper over a lost ``futex(WAKE)``.  If the kernel ever drops one,
    a consumer sleeps forever, the queue keeps its items, and the
    conservation asserts below fail.
    """
    rng = random.Random(seed)
    rig = Rig(seed=seed)
    machine = rig.machine("m", cores=rng.randrange(1, 5))
    mutex = Mutex("q")
    condvar = CondVar("q-nonempty")
    queue = []
    n_producers = rng.randrange(1, 4)
    n_consumers = rng.randrange(1, 4)
    items_per_producer = rng.randrange(5, 20)
    total = n_producers * items_per_producer
    consumed = []

    def producer(tag):
        for i in range(items_per_producer):
            yield Compute(rng.uniform(0.5, 20.0))
            yield from mutex.acquire()
            queue.append((tag, i))
            yield from condvar.signal()
            yield from mutex.release()

    def consumer():
        while len(consumed) < total:
            yield from mutex.acquire()
            while not queue and len(consumed) < total:
                yield from condvar.wait(mutex)  # untimed: lost wake = hang
            if queue:
                consumed.append(queue.pop(0))
                if len(consumed) >= total:
                    # Everyone still parked must be released to exit.
                    yield from condvar.broadcast()
            yield from mutex.release()

    threads = [machine.spawn(f"p{i}", producer(i)) for i in range(n_producers)]
    threads += [machine.spawn(f"c{i}", consumer()) for i in range(n_consumers)]
    machine.shutdown()
    rig.run(until=30_000_000)

    assert len(consumed) == total
    assert not queue
    assert all(t.state is ThreadState.DONE for t in threads)


# -- state conservation and vruntime monotonicity ---------------------------
def _conservation_violations(machine, threads):
    """Check each thread occupies exactly one scheduler location."""
    violations = []
    scheduler = machine.scheduler
    queued = {}
    for core in scheduler.cores:
        for _vruntime, _seq, thread in core.runqueue:
            queued[thread] = queued.get(thread, 0) + 1
    running = {core.current for core in scheduler.cores if core.current is not None}
    for thread in threads:
        in_queue = queued.get(thread, 0)
        is_running = thread in running
        state = thread.state
        if state is ThreadState.DONE:
            if in_queue or is_running:
                violations.append(f"{thread} done but still scheduled")
        elif state is ThreadState.RUNNING:
            if not is_running or in_queue:
                violations.append(f"{thread} RUNNING but not exactly on a core")
        elif state is ThreadState.RUNNABLE:
            # A dispatched thread is core.current through the context
            # switch's cost window while still RUNNABLE (it turns RUNNING
            # in _begin_run) — one location either way, never both.
            if in_queue + (1 if is_running else 0) != 1:
                violations.append(
                    f"{thread} RUNNABLE with {in_queue} queue entries "
                    f"(running={is_running})"
                )
        elif state is ThreadState.BLOCKED:
            if in_queue or is_running:
                violations.append(f"{thread} BLOCKED but scheduled")
    return violations


@pytest.mark.parametrize("seed", SEEDS)
def test_thread_state_conservation_under_random_schedules(seed):
    """At random instants, every thread is in exactly one scheduler place."""
    rng = random.Random(seed)
    rig = Rig(seed=seed)
    cores = rng.randrange(1, 5)
    machine = rig.machine("m", cores=cores)
    mutex = Mutex("chaos")
    threads = [
        machine.spawn(f"t{i}", _random_program(rng, mutex))
        for i in range(rng.randrange(2, 8))
    ]
    machine.shutdown()

    violations = []

    def snapshot():
        violations.extend(_conservation_violations(machine, threads))

    for _ in range(40):
        rig.sim.call_at(rng.uniform(0.0, 3_000.0), snapshot)
    rig.run(until=5_000_000)

    assert not violations, violations
    snapshot()  # once more after the run drains
    assert not violations, violations
    assert all(t.state is ThreadState.DONE for t in threads)


@pytest.mark.parametrize("seed", SEEDS)
def test_vruntime_monotone_per_core(seed):
    """Sampled on every core, no thread's vruntime ever decreases."""
    rng = random.Random(seed)
    rig = Rig(seed=seed)
    machine = rig.machine("m", cores=rng.randrange(1, 5))
    mutex = Mutex("chaos")
    threads = [
        machine.spawn(f"t{i}", _random_program(rng, mutex))
        for i in range(rng.randrange(2, 8))
    ]
    machine.shutdown()

    last_seen = {}
    regressions = []

    def sample():
        for core in machine.scheduler.cores:
            sampled = [t for _v, _s, t in core.runqueue]
            if core.current is not None:
                sampled.append(core.current)
            for thread in sampled:
                previous = last_seen.get(thread)
                if previous is not None and thread.vruntime < previous:
                    regressions.append(
                        f"{thread} vruntime {thread.vruntime} < {previous}"
                    )
                last_seen[thread] = thread.vruntime

    for _ in range(80):
        rig.sim.call_at(rng.uniform(0.0, 3_000.0), sample)
    rig.run(until=5_000_000)

    assert not regressions, regressions
    assert all(t.vruntime >= 0.0 for t in threads)
    assert all(t.state is ThreadState.DONE for t in threads)
