"""One way through a server, every way it can be configured.

The leaf, mid-tier and adaptive runtimes share one thread-pool skeleton
(``repro.rpc.server._RuntimeBase``) and every simulated thread enters
the kernel through one table in ``Scheduler._advance``.  These tests pin
that path from the outside:

* a conservation matrix over the runtime's design-space knobs — every
  query issued is answered exactly once and nothing stays pending;
* the per-machine thread roster (spawn order is what keeps every golden
  byte-identical: it fixes tids, runqueue order and scheduler RNG draws);
* the kernel entry: each syscall op is counted under its name and costs
  what ``OsCosts.syscall_cost`` says, an unknown op is a named error;
* a shed sub-request gets no ``leaf_compute`` segment.
"""

from dataclasses import replace
from itertools import product

import pytest

from repro.kernel import (
    Compute, EpollWait, EventfdRead, EventfdWrite, FutexWait, FutexWake,
    Nanosleep, OsCosts, SockRecv, SockSend, YieldCpu,
)
from repro.graph import GraphConfig, GraphEdge, GraphNode, build_graph, exemplar_graph
from repro.kernel.futex import Futex
from repro.loadgen import OpenLoopLoadGen
from repro.rpc import (
    LeafApp, LeafResult, LeafRuntime, MidTierRuntime, RpcRequest, RuntimeConfig,
)
from repro.rpc.batching import BatchEnvelope, BatchReply
from repro.rpc.policy import TailPolicy
from repro.suite import SCALES, SimCluster, build_service
from repro.suite.cluster import drive
from repro.suite.config import BatchConfig
from repro.telemetry.tracing import Trace

from tests.helpers import Rig

UNIT = SCALES["unit"]
#: Hedges fire (the slot-dedup prelude runs) but the deadline rarely does.
TAIL = TailPolicy(deadline_us=50_000.0, hedge_after_us=150.0, hedge_max_fraction=0.5)


# -- the runtime matrix --------------------------------------------------------

def _scale(service, processing, reception, batch):
    field = "router_midtier_runtime" if service == "router" else "midtier_runtime"
    runtime = replace(
        getattr(UNIT, field),
        processing_mode=processing,
        reception_mode="polling" if reception == "polling" else "blocking",
        adaptive=reception == "adaptive",
    )
    return UNIT.with_overrides(
        **{field: runtime}, batch=BatchConfig(enabled=batch, max_batch=4),
    )


@pytest.mark.parametrize(
    "service,processing,reception,batch,tail",
    list(product(
        ("hdsearch", "router"), ("dispatch", "inline"),
        ("blocking", "polling", "adaptive"), (False, True), (False, True),
    )),
)
def test_every_query_is_answered_exactly_once(service, processing, reception, batch, tail):
    cluster = SimCluster(seed=0)
    handle = build_service(
        service, cluster, _scale(service, processing, reception, batch),
        tail_policy=TAIL if tail else None,
    )
    gen = OpenLoopLoadGen(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(),
        qps=1500.0,
    )
    # No warm-up trim: the hub's counter then covers every reply the
    # generator saw, so a double answer cannot hide in the trimmed part.
    drive(cluster, handle, gen, warmup_us=0.0, duration_us=40_000.0)
    cluster.shutdown()
    assert gen.sent > 30
    assert gen.completed == gen.sent and gen.errors == 0
    assert cluster.telemetry.counters["completed_queries"] == gen.completed
    assert handle.midtier.completed == gen.completed
    assert not handle.midtier.pending
    assert (handle.midtier.batcher is not None) == batch
    assert (handle.midtier.hedges_sent > 0) == tail


def _replicated_child():
    """root → a mid-tier replicated behind a balancer → one leaf."""
    return GraphConfig(
        name="rep", root="a", n_queries=200,
        nodes=(GraphNode(name="a"), GraphNode(name="b", replicas=2), GraphNode(name="c")),
        edges=(GraphEdge(src="a", dst="b", fanout=2), GraphEdge(src="b", dst="c", fanout=2)),
    )


GRAPHS = {"socialnet": lambda: exemplar_graph(n_queries=200), "replicated": _replicated_child}


@pytest.mark.parametrize("graph,tail", list(product(sorted(GRAPHS), (False, True))))
def test_every_graph_query_is_answered_exactly_once(graph, tail):
    cluster = SimCluster(seed=0)
    handle = build_graph(cluster, GRAPHS[graph](), tail_policy=TAIL if tail else None)
    gen = OpenLoopLoadGen(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(),
        qps=1500.0,
    )
    drive(cluster, handle, gen, warmup_us=0.0, duration_us=40_000.0)
    cluster.shutdown()
    assert gen.sent > 30
    assert gen.completed == gen.sent and gen.errors == 0
    assert cluster.telemetry.counters["completed_queries"] == gen.completed
    midtiers = [
        runtime for tier in handle.extras["tiers"].values()
        for runtime in tier.runtimes if isinstance(runtime, MidTierRuntime)
    ]
    assert len(midtiers) == (4 if graph == "socialnet" else 3)
    for runtime in midtiers:
        # Every request a node took in (hedge copies included) it answered
        # once, and nothing is left pending after the drain.
        assert runtime.completed == runtime.received > 0
        assert not runtime.pending
    assert handle.midtier.completed == gen.completed
    assert (sum(runtime.hedges_sent for runtime in midtiers) > 0) == tail


# -- spawn order -----------------------------------------------------------------

#: Captured at the parent of the thread-pool merge (hdsearch, unit scale).
MID = ["netpoll0", "worker0", "worker1", "worker2", "worker3", "resp0", "resp1"]
ROSTERS = {
    "default": ({}, MID),
    "adaptive": ({"adaptive": True}, MID + ["adapt-monitor"]),
    "inline": ({"processing_mode": "inline"}, ["netpoll0", "resp0", "resp1"]),
}


@pytest.mark.parametrize("variant", sorted(ROSTERS))
def test_thread_roster_and_spawn_order(variant):
    fields, expected = ROSTERS[variant]
    scale = UNIT.with_overrides(midtier_runtime=replace(UNIT.midtier_runtime, **fields))
    handle = build_service("hdsearch", SimCluster(seed=0), scale)

    def roster(runtime):
        return [t.name for t in runtime.machine.scheduler.threads]

    assert roster(handle.midtier) == [f"hds-mid/{name}" for name in expected]
    assert roster(handle.leaves[0]) == [
        f"hds-leaf0/{name}" for name in ("netpoll0", "worker0", "worker1", "worker2")
    ]
    assert handle.midtier.task_queue.name == "hds-mid.midq"
    assert handle.leaves[0].task_queue.name == "hds-leaf0.leafq"


# -- the kernel entry ------------------------------------------------------------

def test_each_syscall_op_is_counted_and_costed_by_the_cost_model():
    # Distinct costs, so a row of the table pointing at the wrong name shows.
    costs = OsCosts(syscall_us=tuple(
        (name, 1.0 + i) for i, (name, _) in enumerate(OsCosts().syscall_us)
    ))
    rig = Rig()
    machine = rig.machine("m", cores=1, costs=costs)
    sock, peer = machine.socket(1), machine.socket(2)
    efd, epoll, futex = machine.eventfd(), machine.epoll(), Futex(0)
    ops = [
        (FutexWait(futex, expected=1), "futex"),  # EAGAIN: returns at once
        (FutexWake(futex, 1), "futex"),
        (EpollWait(epoll, timeout_us=0), "epoll_pwait"),
        (SockSend(sock, peer.address, "ping", 64), "sendmsg"),
        (SockRecv(sock), "recvmsg"),
        (EventfdWrite(efd, 1), "write"),
        (EventfdRead(efd), "read"),
        (Nanosleep(5.0), "nanosleep"),
        (YieldCpu(), "sched_yield"),
    ]
    seen = []

    def body():  # runs only under rig.run(), after ``thread`` is bound below
        for op, name in ops:
            before = (thread.vruntime, rig.telemetry.syscalls["m"][name])
            yield op
            seen.append((
                name, thread.vruntime - before[0],
                rig.telemetry.syscalls["m"][name] - before[1],
            ))
        yield Compute(1.0)  # a userspace op enters no syscall
        seen.append(sum(rig.telemetry.syscalls["m"].values()))

    thread = machine.spawn("t", body())
    total_before = sum(rig.telemetry.syscalls["m"].values())
    machine.shutdown()
    rig.run(until=10_000)
    assert seen[:-1] == [
        (name, pytest.approx(costs.syscall_cost(name)), 1) for _, name in ops
    ]
    assert seen[-1] == total_before + len(ops)


def test_unknown_op_names_the_thread_and_the_op():
    rig = Rig()
    machine = rig.machine("m", cores=1)

    def body():
        yield "not-an-op"

    machine.spawn("confused", body())
    with pytest.raises(TypeError, match=r"m/confused.*yielded unknown op 'not-an-op'"):
        rig.run(until=1_000)


# -- a shed sub-request has no leaf segment --------------------------------------

class _TrivialLeaf(LeafApp):
    def handle(self, request):
        return LeafResult(compute_us=10.0, payload=request, size_bytes=32)


def test_shed_subrequest_gets_no_leaf_span():
    rig = Rig()
    machine = rig.machine("leaf", cores=2)
    leaf = LeafRuntime(machine, port=50, app=_TrivialLeaf(), config=RuntimeConfig())
    replies = []
    rig.fabric.register("mid", lambda packet: replies.append(packet.payload))

    def sub(payload, deadline):
        request = RpcRequest(
            "leaf", payload, 64, reply_to=("mid", 0),
            request_id=next(rig.sim.request_ids), parent_id=7,
        )
        request.trace = Trace(
            request_id=request.request_id, started_us=0.0, sim=rig.sim
        )
        request.deadline = deadline
        return request

    expired, live = sub("late", deadline=-1.0), sub("ok", deadline=None)
    envelope = RpcRequest(
        "leaf-batch", BatchEnvelope([expired, live]), 176, reply_to=("mid", 0),
        request_id=next(rig.sim.request_ids),
    )
    rig.fabric.send(("mid", 0), leaf.address, envelope, envelope.size_bytes)
    machine.shutdown()
    rig.run(until=10_000)

    (reply,) = replies
    assert isinstance(reply.payload, BatchReply)
    assert [r.request_id for r in reply.payload.responses] == [live.request_id]
    assert rig.telemetry.counters["leaf_deadline_drops:leaf"] == 1

    def leaf_segments(request):
        return [s for s in request.trace.segments if s.category == "leaf_compute"]

    assert len(leaf_segments(live)) == 1
    assert leaf_segments(expired) == []
