"""Unit tests for the front-end load balancer and its policies."""

import pytest

from repro.net import Fabric
from repro.rpc.loadbalance import (
    LeastOutstandingPolicy,
    LoadBalancer,
    POLICY_NAMES,
    PowerOfTwoPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    canonical_policy,
    make_policy,
    replica_imbalance,
)
from repro.rpc.message import RpcRequest, RpcResponse
from repro.sim import RngStreams, Simulation
from repro.telemetry import Telemetry


# -- policies ---------------------------------------------------------------
def test_canonical_policy_accepts_names_and_aliases():
    for name in POLICY_NAMES:
        assert canonical_policy(name) == name
    assert canonical_policy("rr") == "round-robin"
    assert canonical_policy("p2c") == "power-of-two"
    assert canonical_policy("pow2") == "power-of-two"
    assert canonical_policy("least") == "least-outstanding"


def test_canonical_policy_rejects_unknown():
    with pytest.raises(ValueError, match="unknown load-balancing policy"):
        canonical_policy("zigzag")


def test_make_policy_builds_each_kind():
    rng = RngStreams(0).py("test")
    kinds = {
        "round-robin": RoundRobinPolicy,
        "random": RandomPolicy,
        "least-outstanding": LeastOutstandingPolicy,
        "power-of-two": PowerOfTwoPolicy,
    }
    for name, kind in kinds.items():
        assert isinstance(make_policy(name, 3, rng), kind)


def test_round_robin_cycles_and_skips_exhausted():
    policy = RoundRobinPolicy(3)
    outstanding = [0, 0, 0]
    picks = [policy.choose([0, 1, 2], outstanding) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    # Replica 1's pool is exhausted: the cycle skips it but keeps order.
    picks = [policy.choose([0, 2], outstanding) for _ in range(4)]
    assert picks == [0, 2, 0, 2]


def test_least_outstanding_picks_minimum():
    policy = LeastOutstandingPolicy()
    assert policy.choose([0, 1, 2], [5, 1, 3]) == 1
    # Ties break toward the earlier candidate (stable, deterministic).
    assert policy.choose([0, 1, 2], [2, 2, 9]) == 0


def test_power_of_two_prefers_less_loaded_sample():
    rng = RngStreams(0).py("p2c")
    policy = PowerOfTwoPolicy(rng)
    # With one replica overloaded, p2c should route away from it whenever
    # its two samples differ.
    outstanding = [100, 0, 0]
    picks = [policy.choose([0, 1, 2], outstanding) for _ in range(200)]
    # Replica 0 is only chosen when both samples land on it: ~1/9.
    assert picks.count(0) < 50


def test_replica_imbalance():
    assert replica_imbalance([10, 10, 10]) == 1.0
    assert replica_imbalance([30, 0, 0]) == 3.0
    assert replica_imbalance([0, 0]) == 0.0


# -- the balancer proxy -----------------------------------------------------
class _Env:
    """A fabric with two scripted replicas and one client endpoint."""

    def __init__(self, policy="round-robin", pool_size=128):
        self.sim = Simulation()
        self.telemetry = Telemetry()
        self.telemetry.attach_clock(lambda: self.sim.now, sim=self.sim)
        rng = RngStreams(0)
        self.fabric = Fabric(self.sim, self.telemetry, rng)
        self.received = {"m0": [], "m1": []}
        self.responses = []
        for name in ("m0", "m1"):
            self.fabric.register(name, self._replica_handler(name))
        self.fabric.register("cli", lambda pkt: self.responses.append(pkt.payload))
        self.lb = LoadBalancer(
            self.sim, self.fabric, rng,
            name="lb", replicas=[("m0", 40), ("m1", 40)],
            policy=policy, pool_size=pool_size,
        )
        self.auto_reply = True

    def _replica_handler(self, name):
        def deliver(pkt):
            self.received[name].append(pkt.payload)
            if self.auto_reply:
                request = pkt.payload
                reply = RpcResponse(request.request_id, payload="ok", size_bytes=32)
                self.fabric.send((name, 40), request.reply_to, reply, 32)
        return deliver

    def send(self, n=1):
        requests = []
        for _ in range(n):
            request = RpcRequest(
                "q", payload=None, size_bytes=64, reply_to=("cli", 0),
                request_id=next(self.sim.request_ids),
            )
            self.fabric.send(("cli", 0), self.lb.address, request, 64)
            requests.append(request)
        return requests

    def run(self, until=10_000.0):
        self.sim.run(until=until)


def test_balancer_forwards_and_proxies_responses():
    env = _Env()
    env.send(4)
    env.run()
    # Round-robin: two requests per replica, all four replies proxied back.
    assert len(env.received["m0"]) == 2
    assert len(env.received["m1"]) == 2
    assert len(env.responses) == 4
    assert env.lb.stats()["forwarded"] == 4
    assert env.lb.stats()["completed"] == 4
    assert env.lb.outstanding == [0, 0]


def test_balancer_rewrites_reply_to():
    env = _Env()
    env.send(1)
    env.run()
    forwarded = env.received["m0"][0]
    assert forwarded.reply_to == env.lb.address
    # The client still got the reply — through the proxy.
    assert len(env.responses) == 1


def test_balancer_backlogs_when_pools_exhausted():
    env = _Env(pool_size=1)
    env.auto_reply = False
    env.send(5)
    env.run()
    # One slot per replica: 2 in flight, 3 parked in the FIFO backlog.
    assert env.lb.stats()["forwarded"] == 2
    assert env.lb.stats()["backlogged"] == 3
    # Replicas now reply: completions drain the backlog one per response.
    env.auto_reply = True
    for name in ("m0", "m1"):
        for request in env.received[name]:
            reply = RpcResponse(request.request_id, payload="ok", size_bytes=32)
            env.fabric.send((name, 40), request.reply_to, reply, 32)
    env.run(until=100_000.0)
    assert env.lb.stats()["forwarded"] == 5
    assert len(env.responses) == 5
    assert env.lb.outstanding == [0, 0]


def test_balancer_survives_departed_client():
    env = _Env()
    env.auto_reply = False
    requests = env.send(1)
    env.run()
    env.fabric.unregister("cli")
    request = env.received["m0"][0]
    reply = RpcResponse(request.request_id, payload="ok", size_bytes=32)
    env.fabric.send(("m0", 40), request.reply_to, reply, 32)
    env.run(until=20_000.0)
    # The reply is dropped, not crashed on, and accounting stays sane.
    assert env.lb.stats()["completed"] == 1
    assert env.lb.outstanding == [0, 0]
    assert requests  # silence unused warning


def test_balancer_rejects_bad_configuration():
    env_sim = Simulation()
    telemetry = Telemetry()
    telemetry.attach_clock(lambda: env_sim.now, sim=env_sim)
    rng = RngStreams(0)
    fabric = Fabric(env_sim, telemetry, rng)
    with pytest.raises(ValueError):
        LoadBalancer(env_sim, fabric, rng, name="lb", replicas=[])
    with pytest.raises(ValueError):
        LoadBalancer(env_sim, fabric, rng, name="lb",
                     replicas=[("m0", 40)], pool_size=0)
    with pytest.raises(ValueError, match="unknown load-balancing policy"):
        LoadBalancer(env_sim, fabric, rng, name="lb",
                     replicas=[("m0", 40)], policy="zigzag")
