"""Tests for load generators and query sources."""

import pytest

from repro.loadgen import (
    CyclingSource,
    OpenLoopLoadGen,
    SessionClass,
    SessionLoadGen,
)
from repro.loadgen.client import E2E_HIST
from repro.net.fabric import Packet
from repro.rpc.message import RpcRequest, RpcResponse
from repro.sim import RngStreams, Simulation
from repro.net import Fabric
from repro.telemetry import Telemetry


class EchoTarget:
    """A fabric endpoint that replies after a fixed service time."""

    def __init__(self, sim, fabric, delay_us=50.0, name="target"):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.served = 0
        fabric.register(name, self.on_packet)

    def on_packet(self, packet: Packet) -> None:
        request = packet.payload
        if not isinstance(request, RpcRequest):
            return
        self.served += 1
        response = RpcResponse(
            request_id=request.request_id,
            payload="ok",
            size_bytes=64,
            client_start=request.client_start,
        )
        self.sim.call_in(
            50.0, self.fabric.send, (self.name, 0), request.reply_to, response, 64
        )


def _rig():
    sim = Simulation()
    telemetry = Telemetry()
    telemetry.attach_clock(lambda: sim.now, sim=sim)
    rng = RngStreams(0)
    fabric = Fabric(sim, telemetry, rng)
    return sim, telemetry, rng, fabric


def test_cycling_source_wraps_around():
    source = CyclingSource([("a", 1), ("b", 2)])
    assert [source.next_query() for _ in range(5)] == [
        ("a", 1), ("b", 2), ("a", 1), ("b", 2), ("a", 1)
    ]


def test_cycling_source_rejects_empty():
    with pytest.raises(ValueError):
        CyclingSource([])


def test_open_loop_rate_roughly_matches():
    sim, telemetry, rng, fabric = _rig()
    EchoTarget(sim, fabric)  # registers itself on the fabric
    gen = OpenLoopLoadGen(sim, fabric, telemetry, rng, ("target", 0),
                          CyclingSource([("q", 32)]), qps=1000.0)
    gen.start()
    sim.run(until=1_000_000)
    # 1000 QPS over 1 s: Poisson, expect close to 1000 sends.
    assert 850 <= gen.sent <= 1150
    assert gen.completed >= gen.sent - 5


def test_open_loop_latency_recorded_from_scheduled_start():
    sim, telemetry, rng, fabric = _rig()
    EchoTarget(sim, fabric)
    gen = OpenLoopLoadGen(sim, fabric, telemetry, rng, ("target", 0),
                          CyclingSource([("q", 32)]), qps=500.0)
    gen.start()
    sim.run(until=200_000)
    hist = telemetry.hist(E2E_HIST)
    assert hist.count == gen.completed > 0
    # Round trip = 2 fabric hops (>=15us each) + 50us service.
    assert hist.min > 80.0


def test_open_loop_stop_halts_arrivals():
    sim, telemetry, rng, fabric = _rig()
    EchoTarget(sim, fabric)
    gen = OpenLoopLoadGen(sim, fabric, telemetry, rng, ("target", 0),
                          CyclingSource([("q", 32)]), qps=1000.0)
    gen.start()
    sim.run(until=100_000)
    gen.stop()
    sent = gen.sent
    sim.run(until=300_000)
    assert gen.sent == sent


def test_open_loop_rejects_bad_qps():
    sim, telemetry, rng, fabric = _rig()
    with pytest.raises(ValueError):
        OpenLoopLoadGen(sim, fabric, telemetry, rng, ("t", 0),
                        CyclingSource([("q", 1)]), qps=0.0)


def _closed_loop(sim, telemetry, rng, fabric, n_clients):
    """Closed-loop load as ``run_closed_loop`` builds it: one session class,
    no think time."""
    return SessionLoadGen(sim, fabric, telemetry, rng, ("target", 0),
                          CyclingSource([("q", 32)]),
                          classes=[SessionClass("closed", n_clients)])


def test_closed_loop_keeps_n_outstanding():
    sim, telemetry, rng, fabric = _rig()
    target = EchoTarget(sim, fabric)
    gen = _closed_loop(sim, telemetry, rng, fabric, n_clients=4)
    gen.start()
    sim.run(until=100_000)
    # Outstanding = sent - completed must never exceed n_clients.
    assert 0 <= gen.sent - gen.completed <= 4
    assert target.served > 100


def test_closed_loop_throughput_measurement():
    sim, telemetry, rng, fabric = _rig()
    EchoTarget(sim, fabric)
    gen = _closed_loop(sim, telemetry, rng, fabric, n_clients=8)
    gen.start()
    sim.run(until=100_000)
    before = gen.completed
    sim.run(until=1_100_000)
    qps = gen.completed - before  # over one simulated second
    # Round trip ~ 100us, 8 clients -> ~80K QPS; allow broad tolerance.
    assert 20_000 < qps < 120_000


def test_closed_loop_rejects_bad_clients():
    sim, telemetry, rng, fabric = _rig()
    with pytest.raises(ValueError):
        _closed_loop(sim, telemetry, rng, fabric, n_clients=0)
