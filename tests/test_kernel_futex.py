"""Tests for futexes, mutexes, and condition variables."""

import pytest

from repro.kernel import CondVar, Compute, Futex, FutexWait, FutexWake, Mutex, Nanosleep

from tests.helpers import Rig


def test_futex_wait_blocks_until_wake():
    rig = Rig()
    machine = rig.machine("m", cores=2)
    futex = Futex(0)
    log = []

    def waiter():
        slept = yield FutexWait(futex, expected=0)
        log.append(("woke", rig.sim.now, slept))

    def waker():
        yield Nanosleep(300.0)
        woken = yield FutexWake(futex, 1)
        log.append(("woke_n", woken))

    machine.spawn("waiter", waiter())
    machine.spawn("waker", waker())
    machine.shutdown()
    rig.run(until=10_000)
    woke = [entry for entry in log if entry[0] == "woke"]
    assert len(woke) == 1
    assert woke[0][1] >= 300.0
    assert woke[0][2] is True
    assert ("woke_n", 1) in log


def test_futex_wait_returns_immediately_on_stale_value():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    futex = Futex(7)
    results = []

    def body():
        slept = yield FutexWait(futex, expected=0)  # value is 7, not 0
        results.append(slept)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=1_000)
    assert results == [False]


def test_futex_wake_with_no_waiters_returns_zero():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    futex = Futex(0)
    results = []

    def body():
        woken = yield FutexWake(futex, 1)
        results.append(woken)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=1_000)
    assert results == [0]


def test_futex_wait_timeout_fires():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    futex = Futex(0)
    stamps = []

    def body():
        yield FutexWait(futex, expected=0, timeout_us=200.0)
        stamps.append(rig.sim.now)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=10_000)
    assert len(stamps) == 1
    assert 200.0 <= stamps[0] < 300.0
    assert not futex.waiters  # timeout removed the waiter from the queue


def test_wait_timer_of_a_thread_off_its_wait_list_is_a_named_fault():
    """A blocked thread whose wait timer fires while it is off its own wait
    list is a bookkeeping fault, not a wake to shrug off."""
    rig = Rig()
    machine = rig.machine("m", cores=1)
    futex = Futex(0)

    def body():
        yield FutexWait(futex, expected=0, timeout_us=200.0)

    thread = machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=100.0)
    assert futex.waiters == [thread]
    futex.waiters.clear()
    with pytest.raises(RuntimeError, match=r"wait timer of SimThread\(m/t, blocked\) "
                                           r"fired off its futex wait list"):
        rig.run(until=10_000)


def test_futex_syscalls_counted():
    rig = Rig()
    machine = rig.machine("m", cores=2)
    futex = Futex(0)

    def waiter():
        yield FutexWait(futex, expected=0)

    def waker():
        yield Nanosleep(50.0)
        yield FutexWake(futex, 1)

    machine.spawn("a", waiter())
    machine.spawn("b", waker())
    machine.shutdown()
    rig.run(until=10_000)
    assert rig.telemetry.syscall_counts("m")["futex"] == 2


def test_mutex_provides_mutual_exclusion():
    rig = Rig()
    machine = rig.machine("m", cores=4)
    mutex = Mutex("test")
    inside = []
    max_inside = []

    def body(tag):
        for _ in range(10):
            yield from mutex.acquire()
            inside.append(tag)
            max_inside.append(len(inside))
            yield Compute(5.0)
            inside.remove(tag)
            yield from mutex.release()
            yield Compute(1.0)

    for i in range(4):
        machine.spawn(f"t{i}", body(i))
    machine.shutdown()
    rig.run(until=1_000_000)
    assert len(max_inside) == 40  # every critical section entered
    assert max(max_inside) == 1  # never two threads inside


def test_uncontended_mutex_needs_no_futex_syscall():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    mutex = Mutex("fast")

    def body():
        for _ in range(5):
            yield from mutex.acquire()
            yield from mutex.release()

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=10_000)
    assert rig.telemetry.syscall_counts("m")["futex"] == 0


def test_contended_mutex_issues_futex_syscalls():
    rig = Rig()
    machine = rig.machine("m", cores=2)
    mutex = Mutex("hot")

    def body(tag):
        for _ in range(5):
            yield from mutex.acquire()
            yield Compute(20.0)
            yield from mutex.release()

    machine.spawn("a", body("a"))
    machine.spawn("b", body("b"))
    machine.shutdown()
    rig.run(until=1_000_000)
    assert rig.telemetry.syscall_counts("m")["futex"] > 0


def test_cross_core_lock_traffic_counts_hitm():
    rig = Rig()
    machine = rig.machine("m", cores=2)
    mutex = Mutex("line")

    def body(tag):
        for _ in range(10):
            yield from mutex.acquire()
            yield Compute(2.0)
            yield from mutex.release()
            yield Nanosleep(10.0)

    machine.spawn("a", body("a"))
    machine.spawn("b", body("b"))
    machine.shutdown()
    rig.run(until=1_000_000)
    assert rig.telemetry.hitm["m"] > 0


def test_condvar_no_lost_wakeup_signal_before_wait():
    """Producer signals between the consumer's check and its sleep: the
    sequence-number futex must prevent the consumer sleeping forever."""
    rig = Rig()
    machine = rig.machine("m", cores=2)
    mutex = Mutex()
    cond = CondVar()
    queue = []
    consumed = []

    def consumer():
        yield from mutex.acquire()
        while not queue:
            yield from cond.wait(mutex)
        consumed.append(queue.pop(0))
        yield from mutex.release()

    def producer():
        yield Nanosleep(100.0)
        yield from mutex.acquire()
        queue.append("item")
        yield from cond.signal()
        yield from mutex.release()

    machine.spawn("consumer", consumer())
    machine.spawn("producer", producer())
    machine.shutdown()
    rig.run(until=100_000)
    assert consumed == ["item"]


def test_condvar_producer_consumer_pipeline():
    rig = Rig()
    machine = rig.machine("m", cores=4)
    mutex = Mutex()
    cond = CondVar()
    queue = []
    consumed = []
    total = 20

    def consumer(tag):
        while len(consumed) < total:
            yield from mutex.acquire()
            while not queue and len(consumed) < total:
                yield from cond.wait(mutex)
            if queue:
                consumed.append(queue.pop(0))
            yield from mutex.release()

    def producer():
        for i in range(total):
            yield Nanosleep(20.0)
            yield from mutex.acquire()
            queue.append(i)
            yield from cond.signal()
            yield from mutex.release()
        # Flush any consumer parked after the last signal.
        yield from mutex.acquire()
        yield from cond.broadcast()
        yield from mutex.release()

    machine.spawn("c0", consumer("c0"))
    machine.spawn("c1", consumer("c1"))
    machine.spawn("p", producer())
    machine.shutdown()
    rig.run(until=1_000_000)
    assert sorted(consumed) == list(range(total))


def test_condvar_broadcast_wakes_all_waiters():
    rig = Rig()
    machine = rig.machine("m", cores=4)
    mutex = Mutex()
    cond = CondVar()
    go = []
    released = []

    def waiter(tag):
        yield from mutex.acquire()
        while not go:
            yield from cond.wait(mutex)
        released.append(tag)
        yield from mutex.release()

    def broadcaster():
        yield Nanosleep(200.0)
        yield from mutex.acquire()
        go.append(True)
        yield from cond.broadcast()
        yield from mutex.release()

    for i in range(3):
        machine.spawn(f"w{i}", waiter(i))
    machine.spawn("b", broadcaster())
    machine.shutdown()
    rig.run(until=1_000_000)
    assert sorted(released) == [0, 1, 2]


def test_mutex_woken_waiter_does_not_strand_other_sleepers():
    """Regression: a waiter woken from the futex must re-lock with the
    "maybe waiters" state, or the release after it would skip the wake
    and leave remaining sleepers stranded forever (glibc lowlevellock
    semantics).  Three threads force the holder -> waiter -> waiter chain;
    none may hang."""
    rig = Rig()
    machine = rig.machine("m", cores=4)
    mutex = Mutex("chain")
    order = []

    def body(tag, hold_us):
        yield from mutex.acquire()
        yield Compute(hold_us)
        yield from mutex.release()
        order.append(tag)

    # Stagger arrivals so both b and c sleep while a holds the lock.
    def late(tag, delay, hold):
        yield Nanosleep(delay)
        yield from body(tag, hold)

    machine.spawn("a", body("a", 200.0))
    machine.spawn("b", late("b", 20.0, 50.0))
    machine.spawn("c", late("c", 40.0, 50.0))
    machine.shutdown()
    rig.run(until=1_000_000)
    assert sorted(order) == ["a", "b", "c"], f"stranded sleeper: {order}"
