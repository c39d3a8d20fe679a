"""Tests for the NUMA model: socket mapping, remote HITM, wake locality."""

import pytest

from repro.kernel import Compute, MachineSpec, Mutex, Nanosleep
from repro.kernel.scheduler import WakeAffinityPlacement

from tests.helpers import Rig


def test_socket_of_contiguous_split():
    spec = MachineSpec(cores=8, sockets=2)
    assert [spec.socket_of(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
    single = MachineSpec(cores=4, sockets=1)
    assert [single.socket_of(i) for i in range(4)] == [0, 0, 0, 0]


def test_socket_of_validates_range():
    spec = MachineSpec(cores=4, sockets=2)
    with pytest.raises(ValueError):
        spec.socket_of(4)
    with pytest.raises(ValueError):
        spec.socket_of(-1)


def test_cores_carry_socket_ids():
    rig = Rig()
    machine = rig.machine("m", cores=4)
    sockets = [core.socket for core in machine.scheduler.cores]
    assert sockets == [0, 0, 1, 1]


def _pinned_contender(rig, machine, mutex, core_index, rounds=10):
    """A thread that always wakes onto one specific core (pin policy)."""

    def body():
        for _ in range(rounds):
            yield from mutex.acquire()
            yield Compute(2.0)
            yield from mutex.release()
            yield Nanosleep(10.0)

    return body


class _PinPolicy:
    """Test-only placement: each thread pinned to a fixed core by name."""

    def __init__(self, pins):
        self.pins = pins

    def choose_core(self, thread, cores, rng):
        return cores[self.pins[thread.name.split("/")[-1]]]

    def wake_delay_us(self, rng):
        return 0.0


def _run_contention(pins, cores=4):
    rig = Rig()
    machine = rig.machine("m", cores=cores, policy=_PinPolicy(pins))
    mutex = Mutex("numa")
    for name, _core in pins.items():
        machine.spawn(name, _pinned_contender(rig, machine, mutex, _core)())
    machine.shutdown()
    rig.run(until=1_000_000)
    return rig.telemetry


def test_same_socket_contention_counts_local_hitm_only():
    telemetry = _run_contention({"a": 0, "b": 1})  # both on socket 0
    assert telemetry.hitm["m"] > 0
    assert telemetry.hitm_remote["m"] == 0


def test_cross_socket_contention_counts_remote_hitm():
    telemetry = _run_contention({"a": 0, "b": 3})  # sockets 0 and 1
    assert telemetry.hitm["m"] > 0
    assert telemetry.hitm_remote["m"] > 0
    # Remote events are a subset of the total.
    assert telemetry.hitm_remote["m"] <= telemetry.hitm["m"]


def test_wake_affinity_prefers_home_socket():
    """With the home core busy, the wakeup lands on the same socket."""
    rig = Rig()
    machine = rig.machine("m", cores=4, policy=WakeAffinityPlacement())
    woken_cores = []

    def hog():  # occupies core of its placement indefinitely
        for _ in range(4000):
            yield Compute(100.0)

    def sleeper():
        for _ in range(20):
            yield Nanosleep(200.0)
            yield Compute(30.0)
            woken_cores.append(machine.scheduler.threads[-1].last_core)

    # Sleeper establishes affinity on some core first.
    machine.spawn("hog", hog())
    machine.spawn("sleeper", sleeper())
    machine.shutdown()
    rig.run(until=1_000_000)
    assert woken_cores, "sleeper never ran"
    home_socket = machine.scheduler.cores[woken_cores[0]].socket
    same_socket = sum(
        1 for c in woken_cores if machine.scheduler.cores[c].socket == home_socket
    )
    assert same_socket / len(woken_cores) > 0.8
