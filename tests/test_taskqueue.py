"""Unit tests for the producer-consumer task queue."""

from repro.kernel import Compute, Nanosleep
from repro.rpc import TaskQueue

from tests.helpers import Rig


def _machine(rig, cores=4):
    return rig.machine("m", cores=cores)


def test_put_get_fifo_order():
    rig = Rig()
    machine = _machine(rig)
    queue = TaskQueue(machine)
    got = []

    def producer():
        for i in range(5):
            yield from queue.put(i)
            yield Compute(1.0)

    def consumer():
        while len(got) < 5:
            item = yield from queue.get()
            got.append(item)

    machine.spawn("c", consumer())
    machine.spawn("p", producer())
    machine.shutdown()
    rig.run(until=100_000)
    assert got == [0, 1, 2, 3, 4]


def test_get_blocks_until_put():
    rig = Rig()
    machine = _machine(rig)
    queue = TaskQueue(machine)
    stamps = []

    def consumer():
        item = yield from queue.get()
        stamps.append((item, rig.sim.now))

    def producer():
        yield Nanosleep(500.0)
        yield from queue.put("late")

    machine.spawn("c", consumer())
    machine.spawn("p", producer())
    machine.shutdown()
    rig.run(until=100_000)
    assert stamps[0][0] == "late"
    assert stamps[0][1] >= 500.0


def test_many_consumers_each_item_delivered_once():
    rig = Rig()
    machine = _machine(rig, cores=4)
    queue = TaskQueue(machine)
    got = []
    total = 30

    def consumer(tag):
        while True:
            item = yield from queue.get(wait_timeout_us=1_000.0)
            got.append((tag, item))

    def producer():
        for i in range(total):
            yield from queue.put(i)
            yield Nanosleep(17.0)

    for i in range(4):
        machine.spawn(f"c{i}", consumer(i))
    machine.spawn("p", producer())
    rig.run(until=100_000)
    items = sorted(item for _tag, item in got)
    assert items == list(range(total))  # no loss, no duplication
    consumers_used = {tag for tag, _item in got}
    assert len(consumers_used) >= 2  # work spread across the pool


def test_timed_wait_rewakes_idle_consumer():
    """With a wait timeout, an idle consumer re-wakes periodically and
    issues futex syscalls — the paper's low-load futex churn."""
    rig = Rig()
    machine = _machine(rig, cores=2)
    queue = TaskQueue(machine)

    def consumer():
        while True:
            yield from queue.get(wait_timeout_us=1_000.0)

    machine.spawn("c", consumer())
    machine.shutdown()
    rig.run(until=50_000)
    # ~50ms of idling with ~1ms (jittered) timeouts: tens of futex calls.
    assert rig.telemetry.syscall_counts("m")["futex"] > 20


def test_untimed_wait_sleeps_quietly():
    rig = Rig()
    machine = _machine(rig, cores=2)
    queue = TaskQueue(machine)

    def consumer():
        yield from queue.get()  # no timeout: parks once

    machine.spawn("c", consumer())
    machine.shutdown()
    rig.run(until=50_000)
    assert rig.telemetry.syscall_counts("m")["futex"] <= 2


def test_sibling_draining_the_kick_never_strands_an_item():
    """Two back-to-back puts, then two workers on two cores pop one item
    each and both see the kick counter set; the first read drains it while
    the second is still inside its syscall entry.  That second read must
    return, not park holding its item until some later enqueue (there is
    none here).  The 0.45 µs lead puts the second worker's counter check
    inside the first one's read entry (1.2 µs) under the rig's seed."""
    rig = Rig()
    machine = _machine(rig, cores=3)  # the third core runs the producer
    queue = TaskQueue(machine)
    got = []

    def worker(tag, lead_us):
        yield Nanosleep(100.0)  # the producer has put both items by now
        yield Compute(lead_us)
        item = yield from queue.get()
        got.append((tag, item))

    def producer():
        yield from queue.put("a")
        yield from queue.put("b")

    machine.spawn("p", producer())
    machine.spawn("w0", worker("w0", 10.0))
    machine.spawn("w1", worker("w1", 10.45))
    machine.shutdown()
    rig.run(until=100_000)
    assert sorted(item for _tag, item in got) == ["a", "b"]
    assert {tag for tag, _item in got} == {"w0", "w1"}
    counts = rig.telemetry.syscall_counts("m")
    assert counts["write"] == 2 and counts["read"] == 2  # both saw the kick
    assert queue.kick_efd.counter == 0


def test_eventfd_kick_traffic_counted():
    rig = Rig()
    machine = _machine(rig)
    queue = TaskQueue(machine)

    def producer():
        for i in range(4):
            yield from queue.put(i)

    def consumer():
        for _ in range(4):
            yield from queue.get()

    machine.spawn("p", producer())
    machine.spawn("c", consumer())
    machine.shutdown()
    rig.run(until=100_000)
    counts = rig.telemetry.syscall_counts("m")
    assert counts["write"] == 4  # one kick per enqueue
    assert counts["read"] >= 1  # kicks drained by the consumer
