"""Scale-in correctness: drain-before-retire at the load balancer.

A retiring replica must first stop admitting new work, then finish what
it already holds: across a scale-down no request may be dropped or
answered twice, nothing new may reach the draining replica, and the
retire callback must fire exactly when its last outstanding request
completes.  These are the invariants the autoscaling controller's
scale-in path (``Controller._apply_replicas``) relies on.
"""

import pytest

from repro.net import Fabric
from repro.rpc.loadbalance import LoadBalancer
from repro.rpc.message import RpcRequest, RpcResponse
from repro.sim import RngStreams, Simulation
from repro.telemetry import Telemetry


class _Env:
    """A fabric with scripted replicas whose replies we release by hand."""

    def __init__(self, n_replicas=2, policy="round-robin", pool_size=128,
                 initial_active=None):
        self.sim = Simulation()
        self.telemetry = Telemetry()
        self.telemetry.attach_clock(lambda: self.sim.now, sim=self.sim)
        rng = RngStreams(0)
        self.fabric = Fabric(self.sim, self.telemetry, rng)
        self.names = [f"m{i}" for i in range(n_replicas)]
        self.received = {name: [] for name in self.names}
        self.held = {name: [] for name in self.names}
        self.responses = []
        for name in self.names:
            self.fabric.register(name, self._replica_handler(name))
        self.fabric.register("cli", lambda pkt: self.responses.append(pkt.payload))
        self.lb = LoadBalancer(
            self.sim, self.fabric, rng,
            name="lb", replicas=[(name, 40) for name in self.names],
            policy=policy, pool_size=pool_size, initial_active=initial_active,
        )
        self.auto_reply = True
        self.sent = 0

    def _replica_handler(self, name):
        def deliver(pkt):
            self.received[name].append(pkt.payload)
            if self.auto_reply:
                self._reply(name, pkt.payload)
            else:
                self.held[name].append(pkt.payload)
        return deliver

    def _reply(self, name, request):
        reply = RpcResponse(request.request_id, payload="ok", size_bytes=32)
        self.fabric.send((name, 40), request.reply_to, reply, 32)

    def release(self, name):
        """Answer every request the replica is sitting on."""
        held, self.held[name] = self.held[name], []
        for request in held:
            self._reply(name, request)

    def send(self, n=1):
        for _ in range(n):
            self.sent += 1
            request = RpcRequest(
                f"q{self.sent}", payload=None, size_bytes=64,
                reply_to=("cli", 0), request_id=next(self.sim.request_ids),
            )
            self.fabric.send(("cli", 0), self.lb.address, request, 64)

    def run(self, until=None):
        self.sim.run(until=self.sim.now + 10_000.0 if until is None else until)


def test_drain_stops_admission_immediately():
    env = _Env(2)
    env.auto_reply = False
    env.send(2)          # one per replica (round-robin)
    env.run()
    before = len(env.received["m1"])
    env.lb.drain_replica(1)
    # Everything sent after the drain began lands on the survivor.
    env.send(6)
    env.run()
    assert len(env.received["m1"]) == before
    assert len(env.received["m0"]) == 1 + 6
    assert env.lb.admitting_count == 1
    assert env.lb.draining_count == 1


def test_drain_completes_outstanding_no_loss_no_duplicates():
    env = _Env(2)
    env.auto_reply = False
    env.send(4)          # two per replica
    env.run()
    retired = []
    done = env.lb.drain_replica(1, retired.append)
    assert done is False            # still has work in flight
    env.send(4)                     # survivor picks these up
    env.release("m0")
    env.release("m1")
    env.run()
    env.release("m0")               # the post-drain batch
    env.run()
    # Every request answered exactly once, none dropped, none doubled.
    assert len(env.responses) == 8
    ids = [r.request_id for r in env.responses]
    assert len(set(ids)) == 8
    # The retire callback fired once, with the replica's index, only
    # after its last outstanding request completed.
    assert retired == [1]
    assert env.lb.outstanding[1] == 0
    assert env.lb.draining_count == 0


def test_drain_idle_replica_retires_inline():
    env = _Env(2)
    retired = []
    done = env.lb.drain_replica(1, retired.append)
    assert done is True
    assert retired == [1]
    assert env.lb.admitting_count == 1
    assert env.lb.draining_count == 0


def test_scale_down_tick_under_load_conserves_requests():
    # The controller's scale-down happens mid-traffic: requests already
    # queued behind the balancer must still all complete exactly once.
    env = _Env(3)
    env.auto_reply = False
    env.send(9)
    env.run()
    env.lb.drain_replica(2)
    env.lb.drain_replica(1)
    env.send(9)
    for name in env.names:
        env.release(name)
    env.run()
    for _ in range(4):       # drain the survivor in waves
        env.release("m0")
        env.run()
    assert len(env.responses) == 18
    assert len({r.request_id for r in env.responses}) == 18
    assert env.received["m1"] and env.received["m2"]          # pre-drain work
    assert len(env.received["m0"]) == 3 + 9                   # all new work


def test_reactivation_cancels_drain():
    env = _Env(2)
    env.auto_reply = False
    env.send(2)
    env.run()
    retired = []
    env.lb.drain_replica(1, retired.append)
    env.lb.activate_replica(1)     # controller scales back out mid-drain
    env.release("m0")
    env.release("m1")
    env.run()
    # The discarded callback never fires and the replica admits again.
    assert retired == []
    assert env.lb.active[1] is True
    env.send(2)
    env.run()
    assert len(env.received["m1"]) == 2


def test_backlog_redispatches_to_survivor_when_drainer_frees_a_slot():
    # Regression for the backlog path: with pool_size=1 per replica and a
    # draining replica completing work, the freed slot belongs to a
    # replica that no longer admits — the backlog must go to a survivor
    # (or stay queued), never crash, never reach the drained replica.
    env = _Env(2, pool_size=1)
    env.auto_reply = False
    env.send(2)          # fills both replicas' single slots
    env.run()
    env.send(3)          # backlog
    env.run()
    assert env.lb.backlog_depth == 3
    env.lb.drain_replica(1)
    env.release("m1")    # drainer finishes; its slot must NOT admit backlog
    env.run()
    assert len(env.received["m1"]) == 1
    for _ in range(5):
        env.release("m0")
        env.run()
    assert len(env.responses) == 5
    assert len({r.request_id for r in env.responses}) == 5


def test_initial_active_parks_the_warm_pool():
    env = _Env(3, initial_active=1)
    env.send(6)
    env.run()
    assert len(env.received["m0"]) == 6
    assert env.received["m1"] == [] and env.received["m2"] == []
    assert env.lb.admitting_count == 1
    env.lb.activate_replica(1)
    env.send(2)
    env.run()
    assert len(env.received["m1"]) > 0


def test_initial_active_validation():
    with pytest.raises(ValueError):
        _Env(2, initial_active=0)
    with pytest.raises(ValueError):
        _Env(2, initial_active=3)
