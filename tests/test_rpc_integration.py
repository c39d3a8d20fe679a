"""End-to-end tests: loadgen → mid-tier → leaves → back, on the full stack."""

import pytest

from repro.loadgen import CyclingSource, OpenLoopLoadGen, SessionClass, SessionLoadGen
from repro.loadgen.client import E2E_HIST
from repro.rpc import (
    FanoutPlan,
    LeafApp,
    LeafResult,
    MergeResult,
    MidTierApp,
    LeafRuntime,
    MidTierRuntime,
    RuntimeConfig,
)

from tests.helpers import Rig


class EchoMidTier(MidTierApp):
    """Fans every query out to all leaves and concatenates replies."""

    def __init__(self, n_leaves, fanout_compute_us=10.0, merge_compute_us=5.0):
        self.n_leaves = n_leaves
        self.fanout_compute_us = fanout_compute_us
        self.merge_compute_us = merge_compute_us

    def fanout(self, query):
        subs = [(i, ("sub", query), 128) for i in range(self.n_leaves)]
        return FanoutPlan(compute_us=self.fanout_compute_us, subrequests=subs)

    def merge(self, query, responses):
        return MergeResult(
            compute_us=self.merge_compute_us,
            payload=("merged", query, sorted(responses)),
            size_bytes=256,
        )


class EchoLeaf(LeafApp):
    """Returns its shard id after a fixed compute."""

    def __init__(self, shard, compute_us=20.0):
        self.shard = shard
        self.compute_us = compute_us

    def handle(self, request):
        return LeafResult(compute_us=self.compute_us, payload=self.shard, size_bytes=64)


def build_cluster(rig, n_leaves=4, config=None, leaf_config=None):
    config = config or RuntimeConfig(network_threads=2, worker_threads=4, response_threads=2)
    leaf_config = leaf_config or RuntimeConfig(network_threads=2, worker_threads=4)
    leaves = []
    for i in range(n_leaves):
        machine = rig.machine(f"leaf{i}", cores=4)
        runtime = LeafRuntime(machine, port=50, app=EchoLeaf(i), config=leaf_config)
        leaves.append(runtime)
    mid_machine = rig.machine("midtier", cores=8)
    mid = MidTierRuntime(
        mid_machine,
        port=40,
        app=EchoMidTier(n_leaves),
        leaf_addrs=[leaf.address for leaf in leaves],
        config=config,
    )
    return mid, leaves


def test_one_query_completes_with_all_leaf_responses():
    rig = Rig()
    mid, _leaves = build_cluster(rig)
    gen = OpenLoopLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=mid.address, source=CyclingSource([("q", 128)]), qps=100.0,
    )
    gen.start()
    rig.run(until=50_000)
    gen.stop()
    assert gen.completed >= 1
    hist = rig.telemetry.hist(E2E_HIST)
    assert hist.count == gen.completed
    # Round trip covers two network hops each way plus compute.
    assert hist.min > 60.0


def test_merge_saw_every_leaf():
    rig = Rig()
    mid, _ = build_cluster(rig, n_leaves=3)
    responses = []

    class Probe(EchoMidTier):
        def merge(self, query, leaf_payloads):
            responses.append(sorted(leaf_payloads))
            return super().merge(query, leaf_payloads)

    mid.app = Probe(3)
    gen = OpenLoopLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=mid.address, source=CyclingSource([("q", 128)]), qps=200.0,
    )
    gen.start()
    rig.run(until=30_000)
    assert responses
    assert all(r == [0, 1, 2] for r in responses)


def test_sustained_open_loop_load_all_queries_complete():
    rig = Rig()
    mid, _ = build_cluster(rig)
    gen = OpenLoopLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=mid.address, source=CyclingSource([("q", 128)]), qps=2000.0,
    )
    gen.start()
    rig.run(until=100_000)
    gen.stop()
    rig.run(until=150_000)  # drain
    assert gen.sent >= 150
    assert gen.completed == gen.sent
    assert mid.completed == gen.sent
    assert not mid.pending  # no leaked fan-out state


def test_closed_loop_measures_throughput():
    rig = Rig()
    mid, _ = build_cluster(rig)
    gen = SessionLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=mid.address, source=CyclingSource([("q", 128)]),
        classes=[SessionClass("closed", 8)],
    )
    gen.start()
    rig.run(until=50_000)  # warm up
    before = gen.completed
    rig.run(until=250_000)
    qps = (gen.completed - before) / 0.2
    assert qps > 500.0  # 8 concurrent clients, ~200us round trips


def test_midtier_syscall_profile_matches_paper_shape():
    """futex must dominate, with sendmsg/recvmsg/epoll_pwait all present."""
    rig = Rig()
    mid, _ = build_cluster(rig)
    gen = OpenLoopLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=mid.address, source=CyclingSource([("q", 128)]), qps=1000.0,
    )
    gen.start()
    rig.run(until=200_000)
    counts = rig.telemetry.syscall_counts("midtier")
    for syscall in ("futex", "sendmsg", "recvmsg", "epoll_pwait", "read", "write"):
        assert counts[syscall] > 0, f"missing {syscall}"
    busiest = max(counts, key=counts.get)
    assert busiest == "futex"


def test_midtier_records_runqlat_and_net():
    rig = Rig()
    mid, _ = build_cluster(rig)
    gen = OpenLoopLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=mid.address, source=CyclingSource([("q", 128)]), qps=500.0,
    )
    gen.start()
    rig.run(until=100_000)
    assert rig.telemetry.runqlat["midtier"].count > 0
    net = rig.telemetry.hist("net_rpc:midtier")
    assert net.count > 0
    # Each request crosses >=4 one-way hops at >=15us base latency.
    assert net.median > 60.0
    assert rig.telemetry.hist("midtier_latency:midtier").count > 0


def test_inline_mode_serves_correctly():
    rig = Rig()
    config = RuntimeConfig(network_threads=2, worker_threads=0,
                           response_threads=2, processing_mode="inline")
    mid, _ = build_cluster(rig, config=config)
    gen = OpenLoopLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=mid.address, source=CyclingSource([("q", 128)]), qps=500.0,
    )
    gen.start()
    rig.run(until=100_000)
    gen.stop()
    rig.run(until=150_000)
    assert gen.completed == gen.sent > 0


def test_polling_mode_serves_and_avoids_reception_futexes():
    rig = Rig()
    blocking_cfg = RuntimeConfig(network_threads=1, worker_threads=2, response_threads=1)
    polling_cfg = RuntimeConfig(network_threads=1, worker_threads=2,
                                response_threads=1, reception_mode="polling")

    def run(cfg, tag):
        rig = Rig()
        leaves = []
        for i in range(2):
            m = rig.machine(f"leaf{i}", cores=4)
            leaves.append(LeafRuntime(m, 50, EchoLeaf(i), RuntimeConfig()))
        mid_machine = rig.machine("midtier", cores=8)
        mid = MidTierRuntime(mid_machine, 40, EchoMidTier(2),
                             [l.address for l in leaves], cfg)
        gen = OpenLoopLoadGen(
            rig.sim, rig.fabric, rig.telemetry, rig.rng,
            target=mid.address, source=CyclingSource([("q", 128)]), qps=500.0,
        )
        gen.start()
        rig.run(until=100_000)
        return gen, rig.telemetry.syscall_counts("midtier")

    gen_b, counts_b = run(blocking_cfg, "b")
    gen_p, counts_p = run(polling_cfg, "p")
    assert gen_b.completed > 0 and gen_p.completed > 0
    # Polling reception replaces parked-epoll futex herds with spinning.
    assert counts_p["epoll_pwait"] > counts_b["epoll_pwait"]


def test_bad_runtime_config_rejected():
    with pytest.raises(ValueError):
        RuntimeConfig(reception_mode="bogus")
    with pytest.raises(ValueError):
        RuntimeConfig(processing_mode="sometimes")


def test_empty_fanout_still_replies():
    class NoFanout(MidTierApp):
        def fanout(self, query):
            return FanoutPlan(compute_us=5.0, subrequests=[])

        def merge(self, query, responses):
            assert responses == []
            return MergeResult(compute_us=1.0, payload="empty", size_bytes=32)

    rig = Rig()
    mid_machine = rig.machine("midtier", cores=4)
    mid = MidTierRuntime(mid_machine, 40, NoFanout(), [], RuntimeConfig())
    gen = OpenLoopLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=mid.address, source=CyclingSource([("q", 64)]), qps=100.0,
    )
    gen.start()
    rig.run(until=60_000)
    assert gen.completed > 0
