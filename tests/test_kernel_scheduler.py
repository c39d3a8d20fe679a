"""Unit tests for the simulated scheduler: dispatch, preemption, accounting."""

import pytest

from repro.kernel import (
    Compute,
    Futex,
    FutexWait,
    Mutex,
    Nanosleep,
    OsCosts,
    ThreadState,
    YieldCpu,
)
from repro.kernel.scheduler import (
    RandomPlacement,
    WakeAffinityPlacement,
    WorstFitPlacement,
)

from repro.net.fabric import Packet

from tests.helpers import Rig


def test_single_thread_compute_advances_time():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    done = []

    def body():
        yield Compute(100.0)
        done.append(rig.sim.now)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=10_000)
    assert len(done) == 1
    # Includes dispatch/wakeup costs, so strictly more than the pure compute.
    assert done[0] >= 100.0
    assert done[0] < 150.0


def test_thread_creation_counts_clone_and_mmap():
    rig = Rig()
    machine = rig.machine("m")

    def body():
        yield Compute(1.0)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=1_000)
    counts = rig.telemetry.syscall_counts("m")
    assert counts["clone"] == 1
    assert counts["mmap"] >= 2
    assert counts["mprotect"] == 1


def test_two_threads_one_core_timeshare():
    costs = OsCosts(timeslice_us=50.0)
    rig = Rig()
    machine = rig.machine("m", cores=1, costs=costs)
    finish = {}

    def body(tag):
        yield Compute(200.0)
        finish[tag] = rig.sim.now

    machine.spawn("a", body("a"))
    machine.spawn("b", body("b"))
    machine.shutdown()
    rig.run(until=100_000)
    assert set(finish) == {"a", "b"}
    # With a 50us slice the two 200us computes must interleave: neither can
    # finish before the other has started, so both finish after 200us and
    # the earliest finisher lands past 350us (its slices plus the other's).
    assert min(finish.values()) > 350.0
    # And preemption context switches were recorded.
    assert rig.telemetry.context_switches["m"] >= 4


def test_two_threads_two_cores_run_in_parallel():
    rig = Rig()
    machine = rig.machine("m", cores=2)
    finish = {}

    def body(tag):
        yield Compute(200.0)
        finish[tag] = rig.sim.now

    machine.spawn("a", body("a"))
    machine.spawn("b", body("b"))
    machine.shutdown()
    rig.run(until=100_000)
    # Parallel: both finish close to 200us, far sooner than serialized 400us.
    assert max(finish.values()) < 300.0


def test_runqlat_recorded_for_every_dispatch():
    rig = Rig()
    machine = rig.machine("m", cores=1)

    def body():
        yield Compute(10.0)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=1_000)
    hist = rig.telemetry.runqlat["m"]
    assert hist.count >= 1
    assert hist.min >= 0.0


def test_nanosleep_blocks_then_resumes():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    wake = []

    def body():
        yield Nanosleep(500.0)
        wake.append(rig.sim.now)
        yield Compute(1.0)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=10_000)
    assert len(wake) == 1
    assert wake[0] >= 500.0
    assert rig.telemetry.syscall_counts("m")["nanosleep"] == 1


def test_cstate_exit_penalty_grows_with_idle_time():
    """A wakeup after a long idle pays more than a wakeup after a short one."""
    costs = OsCosts()
    short_exit, short_name = costs.cstate_exit_latency(10.0)
    deep_exit, deep_name = costs.cstate_exit_latency(100_000.0)
    assert short_name == "C1" and deep_name == "C6"
    assert deep_exit > short_exit

    def wake_gap(idle_us):
        rig = Rig()
        machine = rig.machine("m", cores=1)
        stamps = []

        def body():
            yield Compute(1.0)
            yield Nanosleep(idle_us)
            stamps.append(rig.sim.now)
            yield Compute(1.0)
            stamps.append(rig.sim.now)

        machine.spawn("t", body())
        machine.shutdown()
        rig.run(until=1_000_000)
        return stamps[1] - idle_us  # completion time net of the sleep

    assert wake_gap(100_000.0) > wake_gap(30.0)


def test_yield_with_empty_queue_keeps_running():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    done = []

    def body():
        yield YieldCpu()
        yield Compute(5.0)
        done.append(True)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=1_000)
    assert done == [True]
    assert rig.telemetry.syscall_counts("m")["sched_yield"] == 1


def test_yield_rotates_between_threads():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    order = []

    def body(tag):
        for _ in range(3):
            order.append(tag)
            yield Compute(1.0)
            yield YieldCpu()

    machine.spawn("a", body("a"))
    machine.spawn("b", body("b"))
    machine.shutdown()
    rig.run(until=10_000)
    # Both threads must make progress interleaved, not strictly serial.
    assert order.count("a") == 3 and order.count("b") == 3
    assert order != ["a", "a", "a", "b", "b", "b"]


def test_wake_affinity_prefers_idle_last_core():
    policy = WakeAffinityPlacement()
    rig = Rig()
    machine = rig.machine("m", cores=4, policy=policy)
    cores_seen = []

    def body():
        for _ in range(3):
            yield Compute(5.0)
            yield Nanosleep(100.0)
            cores_seen.append(machine.scheduler.threads[0].last_core)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=100_000)
    # An otherwise idle machine should keep the thread on one core.
    assert len(set(cores_seen)) == 1


def test_random_placement_spreads_across_cores():
    policy = RandomPlacement()
    rig = Rig(seed=3)
    machine = rig.machine("m", cores=8, policy=policy)
    cores_seen = set()

    def body():
        for _ in range(30):
            yield Compute(2.0)
            yield Nanosleep(50.0)
            cores_seen.add(machine.scheduler.threads[0].last_core)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=1_000_000)
    assert len(cores_seen) >= 3


def test_worst_fit_queues_behind_busy_core():
    """Worst-fit placement must produce larger runqueue waits than affinity."""

    def tail_runqlat(policy):
        rig = Rig(seed=5)
        machine = rig.machine("m", cores=4, policy=policy)

        def spinner():
            for _ in range(200):
                yield Compute(100.0)

        def sleeper(i):
            for _ in range(50):
                yield Nanosleep(97.0 + i)
                yield Compute(5.0)

        machine.spawn("spin", spinner())
        for i in range(3):
            machine.spawn(f"s{i}", sleeper(i))
        machine.shutdown()
        rig.run(until=100_000)
        return rig.telemetry.runqlat["m"].percentile(99)

    assert tail_runqlat(WorstFitPlacement()) > tail_runqlat(WakeAffinityPlacement())


def test_context_switches_counted_per_machine():
    rig = Rig()
    m1 = rig.machine("m1", cores=1)
    m2 = rig.machine("m2", cores=1)

    def body():
        yield Compute(5.0)

    m1.spawn("t", body())
    m1.shutdown()
    m2.shutdown()
    rig.run(until=1_000)
    assert rig.telemetry.context_switches["m1"] >= 1
    assert rig.telemetry.context_switches["m2"] == 0


def test_thread_exit_frees_core_for_next_thread():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    finished = []

    def body(tag):
        yield Compute(10.0)
        finished.append(tag)

    machine.spawn("a", body("a"))
    machine.spawn("b", body("b"))
    machine.shutdown()
    rig.run(until=10_000)
    assert sorted(finished) == ["a", "b"]


def _lock_pairs(n):
    """One thread alone on one core doing ``n`` uncontended lock/unlock pairs."""
    rig = Rig()
    machine = rig.machine("m", cores=1)
    mutex = Mutex()
    finished = []

    def body():
        for _ in range(n):
            yield from mutex.acquire()
            yield from mutex.release()
        finished.append(rig.sim.now)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run()
    return rig.sim.executed, finished


def test_back_to_back_ops_run_in_place_without_recursion():
    """Nothing else is due, so every op completion runs in the dispatch's
    callback: a loop, not recursion, and the calendar count is flat."""
    few_events, few_finish = _lock_pairs(10)
    many_events, many_finish = _lock_pairs(10_000)
    assert len(many_finish) == 1
    assert many_finish[0] > few_finish[0]
    assert many_events == few_events


def _compute_finish(deliver_at):
    """When a 100 µs compute ends, with a NIC packet arriving at ``deliver_at``."""
    rig = Rig()
    machine = rig.machine("m", cores=1)
    finished = []

    def body():
        yield Compute(100.0)
        finished.append(rig.sim.now)

    machine.spawn("t", body())
    machine.shutdown()
    if deliver_at is not None:
        packet = Packet(src=("elsewhere", 1), dst=("m", 9), payload=None,
                        size_bytes=64, send_time=0.0)
        rig.sim.call_at(deliver_at, machine.deliver, packet)
    rig.run()
    irq_us = sum(
        rig.telemetry.irq_hist("m", kind).mean for kind in ("hardirq", "net_rx")
    )
    return finished[0], irq_us


def test_irq_steal_extends_a_filed_occupancy():
    """The compute is still running when the packet lands, so its completion
    was filed; the hardirq and NET_RX softirq push it back by their cost."""
    alone, _ = _compute_finish(None)
    interrupted, irq_us = _compute_finish(50.0)
    assert 50.0 < alone
    assert irq_us > 0.0
    assert interrupted == pytest.approx(alone + irq_us)


def test_waking_a_running_thread_is_refused():
    """A second wake of a running thread would queue the same generator on
    another core; ``make_runnable`` accepts only new and blocked threads."""
    rig = Rig()
    machine = rig.machine("m", cores=2)

    def body():
        yield Compute(100.0)

    thread = machine.spawn("t", body())
    machine.shutdown()
    rig.sim.call_at(50.0, machine.scheduler.make_runnable, thread)
    with pytest.raises(RuntimeError, match="cannot wake"):
        rig.run()
    assert thread.state is ThreadState.RUNNING


def _idle_expiries(wait_op, n):
    """Calendar entries of one thread alone on an idle machine (no RCU
    tick) that blocks ``n`` times in ``wait_op()``, each ended by expiry."""
    rig = Rig()
    machine = rig.machine("m", cores=1)

    def body():
        for _ in range(n):
            yield wait_op()

    machine.spawn("t", body())
    machine.shutdown()
    rig.run()
    return rig.sim.executed


@pytest.mark.parametrize(
    "wait_op",
    [lambda: FutexWait(Futex(0), expected=0, timeout_us=200.0), lambda: Nanosleep(200.0)],
    ids=["futex", "nanosleep"],
)
def test_idle_timer_wake_costs_one_calendar_entry(wait_op):
    """The expiry dispatches in place: its dispatch, switch-in and the
    thread's ops up to the next block cost no further entry."""
    assert _idle_expiries(wait_op, 12) - _idle_expiries(wait_op, 2) == 10


def _timed_waiter(rig, log):
    """A thread on an idle one-core machine, parked in a 200 µs futex wait."""
    machine = rig.machine("m", cores=1)

    def body():
        yield FutexWait(Futex(0), expected=0, timeout_us=200.0)
        log.append("thread")

    thread = machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=100.0)
    assert thread.state is ThreadState.BLOCKED
    return thread


def test_timer_wake_files_its_dispatch_behind_a_due_entry():
    """An entry due inside the IPI delay runs before the woken thread."""
    rig = Rig()
    log = []
    thread = _timed_waiter(rig, log)
    rig.sim.defer_at(thread.wait_timer.time + 0.5, log.append, "unrelated")
    before = rig.sim.executed
    rig.run()
    assert log == ["unrelated", "thread"]
    # The timer, the unrelated entry, and the dispatch that was filed.
    assert rig.sim.executed - before == 3


def test_timer_wake_popped_by_step_files_its_dispatch():
    """Outside ``run()`` nothing runs in place: ``step()`` pops the timer
    alone, and the dispatch waits on the calendar."""
    rig = Rig()
    log = []
    thread = _timed_waiter(rig, log)
    assert rig.sim.pending() == 1
    assert rig.sim.step()
    assert thread.state is ThreadState.RUNNABLE
    assert rig.sim.pending() == 1
    rig.run()
    assert log == ["thread"]
