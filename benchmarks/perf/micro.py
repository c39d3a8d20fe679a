"""Pass 2: each layer's public calls timed in isolation.

Every metric is a tight loop over one layer's public functions on a bare
``Simulation`` / ``Machine`` / ``Fabric`` (machines come from a
``SimCluster``, the public way to wire one).  A *sample* repeats a batch
until ``min_sample_s`` of measured time has accumulated and divides by
the operations done; the reported value is the median of ``samples``
samples.  Layers are the packages under ``src/repro``.

The README's prediction table says which end-to-end metric, on which
workload, each of these should move.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import (
    SCALES,
    SERVICE_NAMES,
    DiurnalRate,
    FlashCrowd,
    SimCluster,
    Tracer,
    VariableRateLoadGen,
    attribute,
    build_graph,
    build_service,
    exemplar_graph,
    onehop_graph,
)
from repro.control import ControlConfig, WindowSummary, make_control_policy
from repro.data import DocumentCorpus, FeatureCorpus, KeyValueTrace, RatingsDataset
from repro.energy import EnergyAccount, EnergyConfig
from repro.faults import FaultPlan, LeafSlowdown
from repro.kernel import (
    CondVar,
    EpollWait,
    Mutex,
    Nanosleep,
    OsCosts,
    SockRecv,
    SockSend,
)
from repro.loadgen import CyclingSource, OpenLoopLoadGen
from repro.midcache import CacheConfig, QueryCache
from repro.rpc.batching import BatchAccumulator
from repro.rpc.loadbalance import make_policy
from repro.sim import Process, Simulation, Timeout
from repro.telemetry import (
    LatencyHistogram,
    StreamingTelemetry,
    Telemetry,
    WindowedMetrics,
    fold_stream,
)

from benchmarks.perf.drive import drive
from benchmarks.perf.metrics import summarize
from benchmarks.perf.workloads import CLIENT_NAME


@dataclass(frozen=True)
class Effort:
    """How long the micro pass measures: samples per metric and the
    measured time each sample accumulates."""

    samples: int
    min_sample_s: float
    workdir: Path


def _noop(*_args) -> None:
    pass


class _Collector:
    """Collects the metrics of one layer."""

    def __init__(self, effort: Effort):
        self.effort = effort
        self.metrics: Dict[str, dict] = {}

    def timed(self, name: str, unit: str, batch: Callable[[], tuple]) -> None:
        """``batch()`` runs one batch and returns ``(seconds, operations)``
        for the part it timed."""
        scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}[unit.split("/")[0]]
        values = []
        for _ in range(self.effort.samples):
            elapsed, ops = 0.0, 0
            while elapsed < self.effort.min_sample_s:
                batch_s, batch_ops = batch()
                elapsed += batch_s
                ops += batch_ops
            values.append(scale * elapsed / ops)
        self.metrics[name] = summarize(values, unit)

    def once(self, name: str, unit: str, samples: List[float], exact: bool = False) -> None:
        self.metrics[name] = summarize(samples, unit, exact)


def _delays(n: int) -> List[float]:
    rng = random.Random(1)
    return [rng.uniform(0.0, 1000.0) for _ in range(n)]


# -- sim ---------------------------------------------------------------------


def sim_layer(c: _Collector) -> None:
    n = 20_000
    delays = _delays(n)

    def schedule_pop(schedule_name: str):
        def batch():
            sim = Simulation()
            schedule = getattr(sim, schedule_name)
            t_0 = time.perf_counter()
            for delay in delays:
                schedule(delay, _noop)
            sim.run()
            return time.perf_counter() - t_0, n

        return batch

    c.timed("sim.schedule_pop_ns", "ns", schedule_pop("call_in"))
    c.timed("sim.defer_pop_ns", "ns", schedule_pop("defer_in"))

    def cancel_compact():
        sim = Simulation()
        t_0 = time.perf_counter()
        calls = [sim.call_in(delay, _noop) for delay in delays]
        for i, call in enumerate(calls):
            if i % 10:
                call.cancel()
        sim.run()
        return time.perf_counter() - t_0, n

    c.timed("sim.cancel_compact_ns", "ns", cancel_compact)

    def process_resume():
        sim = Simulation()

        def body():
            for _ in range(n):
                yield Timeout(sim, 1.0)

        t_0 = time.perf_counter()
        Process(sim, body(), name="micro")
        sim.run()
        return time.perf_counter() - t_0, n

    c.timed("sim.process_resume_ns", "ns", process_resume)


# -- kernel ------------------------------------------------------------------


def _run_threads(cluster: SimCluster, threads: list) -> float:
    """Run ``threads`` to completion; returns host seconds."""
    # Background ticks would keep the calendar from ever draining.
    cluster.shutdown()
    t_0 = time.perf_counter()
    cluster.sim.run()
    elapsed = time.perf_counter() - t_0
    stuck = [thread.name for thread in threads if thread.alive]
    if stuck:
        raise RuntimeError(f"micro-benchmark threads never finished: {stuck}")
    return elapsed


def kernel_layer(c: _Collector) -> None:
    n = 2_000

    def wake_run():
        cluster = SimCluster(seed=0)
        machine = cluster.machine("m0", cores=2)
        mutex, turn_cv = Mutex("turn"), [CondVar("cv0"), CondVar("cv1")]
        turn = [0]

        def player(me: int):
            for _ in range(n):
                yield from mutex.acquire()
                while turn[0] != me:
                    yield from turn_cv[me].wait(mutex)
                turn[0] = 1 - me
                yield from turn_cv[1 - me].signal()
                yield from mutex.release()

        threads = [machine.spawn(f"p{me}", player(me)) for me in (0, 1)]
        return _run_threads(cluster, threads), 2 * n

    c.timed("kernel.wake_run_ns", "ns", wake_run)

    def futex_uncontended():
        cluster = SimCluster(seed=0)
        machine = cluster.machine("m0", cores=1)
        mutex = Mutex("solo")

        def body():
            for _ in range(n):
                yield from mutex.acquire()
                yield from mutex.release()

        return _run_threads(cluster, [machine.spawn("t", body())]), n

    c.timed("kernel.futex_uncontended_ns", "ns", futex_uncontended)

    def idle_wake():
        cluster = SimCluster(seed=0)
        machine = cluster.machine("m0", cores=1)
        # Longer than the deepest C-state's residency threshold.
        sleep_us = 2.0 * max(p.min_idle_us for p in OsCosts().cstates)

        def body():
            for _ in range(n):
                yield Nanosleep(sleep_us)

        return _run_threads(cluster, [machine.spawn("t", body())]), n

    c.timed("kernel.idle_wake_ns", "ns", idle_wake)

    def sock_epoll():
        cluster = SimCluster(seed=0)
        machine = cluster.machine("m0", cores=1)
        sock, epoll = machine.socket(7), machine.epoll()
        epoll.add(sock)

        def reader():
            got = 0
            while got < n:
                yield EpollWait(epoll)
                while (yield SockRecv(sock)) is not None:
                    got += 1

        thread = machine.spawn("reader", reader())
        for i in range(n):
            cluster.sim.defer_in(50.0 * (i + 1), sock.deliver, i)
        return _run_threads(cluster, [thread]), n

    c.timed("kernel.sock_epoll_ns", "ns", sock_epoll)


# -- net ---------------------------------------------------------------------


def net_layer(c: _Collector) -> None:
    n = 5_000

    def send_deliver():
        cluster = SimCluster(seed=0)
        fabric = cluster.fabric
        fabric.register("a", _noop)
        fabric.register("b", _noop)
        t_0 = time.perf_counter()
        for i in range(n):
            fabric.send(("a", 0), ("b", 0), i, 256)
        cluster.sim.run()
        return time.perf_counter() - t_0, n

    c.timed("net.send_deliver_ns", "ns", send_deliver)

    def nic_softirq():
        cluster = SimCluster(seed=0)
        sender = cluster.machine("tx", cores=1)
        receiver = cluster.machine("rx", cores=2)
        tx_sock = sender.socket(7)
        rx_sock, epoll = receiver.socket(7), receiver.epoll()
        epoll.add(rx_sock)
        batch = n // 5

        def send():
            for i in range(batch):
                yield SockSend(tx_sock, rx_sock.address, i, 256)

        def receive():
            got = 0
            while got < batch:
                yield EpollWait(epoll)
                while (yield SockRecv(rx_sock)) is not None:
                    got += 1

        threads = [receiver.spawn("receive", receive()), sender.spawn("send", send())]
        return _run_threads(cluster, threads), batch

    c.timed("net.nic_softirq_ns", "ns", nic_softirq)


# -- rpc ---------------------------------------------------------------------


def _onehop_drive(tracer=None, window_us: float = 50_000.0):
    cluster = SimCluster(seed=0)
    handle = build_graph(cluster, onehop_graph())
    gen = OpenLoopLoadGen(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(),
        qps=2_000.0, name=CLIENT_NAME, tracer=tracer,
    )
    result = drive(cluster, gen, 10_000.0, window_us, 20_000.0)
    cluster.shutdown()
    return result


def rpc_layer(c: _Collector) -> None:
    def onehop():
        result = _onehop_drive()
        return result.wall_s, result.completed

    c.timed("rpc.onehop_query_us", "us", onehop)

    n = 20_000
    candidates, outstanding = [0, 1, 2, 3], [3, 1, 4, 1]

    def lb_choose():
        rng = SimCluster(seed=0).rng.py("micro:lb")
        policies = [make_policy("p2c", 4, rng), make_policy("rr", 4, rng)]
        t_0 = time.perf_counter()
        for _ in range(n // 2):
            for policy in policies:
                policy.choose(candidates, outstanding)
        return time.perf_counter() - t_0, n

    c.timed("rpc.lb_choose_ns", "ns", lb_choose)

    def batch_add_flush():
        accumulator = BatchAccumulator(4)
        t_0 = time.perf_counter()
        for i in range(n):
            accumulator.add(i)
        return time.perf_counter() - t_0, n

    c.timed("rpc.batch_add_flush_ns", "ns", batch_add_flush)


# -- loadgen -----------------------------------------------------------------


def loadgen_layer(c: _Collector) -> None:
    sim_us = 20_000.0
    source_queries = [(("q", 0), 64)]

    def sink_cluster():
        cluster = SimCluster(seed=0)
        cluster.fabric.register("sink", _noop)
        return cluster

    def arrival():
        cluster = sink_cluster()
        gen = OpenLoopLoadGen(
            cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
            target=("sink", 0), source=CyclingSource(source_queries),
            qps=500_000.0, name=CLIENT_NAME,
        )
        t_0 = time.perf_counter()
        gen.start()
        cluster.run(until=sim_us)
        return time.perf_counter() - t_0, gen.sent

    c.timed("loadgen.arrival_ns", "ns", arrival)

    def curve():
        cluster = sink_cluster()
        shape = FlashCrowd(
            DiurnalRate(300_000.0, amplitude=0.6, period_us=sim_us),
            start_us=sim_us / 2, duration_us=sim_us / 4, multiplier=1.5,
        )
        gen = VariableRateLoadGen(
            cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
            target=("sink", 0), source=CyclingSource(source_queries),
            curve=shape, name=CLIENT_NAME,
        )
        t_0 = time.perf_counter()
        gen.start()
        cluster.run(until=sim_us)
        return time.perf_counter() - t_0, gen.sent + gen.thinned

    c.timed("loadgen.curve_ns", "ns", curve)


# -- telemetry ---------------------------------------------------------------

_PROBE_MACHINES = ("mid", "leaf0", "leaf1", "leaf2")


def _probe_mix(telemetry, clock: List[float], n: int) -> float:
    """The scheduler's probe mix; advances ``clock`` 5 µs per call."""
    t_0 = time.perf_counter()
    for i in range(n // 3):
        machine = _PROBE_MACHINES[i & 3]
        clock[0] += 5.0
        telemetry.count_syscall(machine, "futex")
        clock[0] += 5.0
        telemetry.record_runqlat(machine, 3.5)
        clock[0] += 5.0
        telemetry.record_irq(machine, "net_rx", 4.0)
    return time.perf_counter() - t_0


def telemetry_layer(c: _Collector) -> None:
    n = 30_000
    values = _delays(n)

    def hist_record():
        hist = LatencyHistogram(reservoir_size=n // 3)
        t_0 = time.perf_counter()
        for value in values:
            hist.record(value)
        return time.perf_counter() - t_0, n

    c.timed("telemetry.hist_record_ns", "ns", hist_record)

    big = LatencyHistogram()
    big.extend(_delays(100_000))

    def hist_percentile():
        big.record(1.0)  # drops the sorted cache, as a live run does
        t_0 = time.perf_counter()
        big.percentile(99)
        return time.perf_counter() - t_0, 1

    c.timed("telemetry.hist_percentile_us", "us", hist_percentile)

    def probe_record():
        clock = [0.0]
        telemetry = Telemetry()
        telemetry.attach_clock(lambda: clock[0])
        return _probe_mix(telemetry, clock, n), n

    c.timed("telemetry.probe_record_ns", "ns", probe_record)

    spill = c.effort.workdir / "micro-spill.jsonl"

    def streaming(clock: List[float]) -> StreamingTelemetry:
        telemetry = StreamingTelemetry(window_us=10_000.0, spill_path=str(spill))
        telemetry.attach_clock(lambda: clock[0])
        return telemetry

    def stream_record():
        clock = [0.0]
        telemetry = streaming(clock)
        elapsed = _probe_mix(telemetry, clock, n)
        telemetry.close()
        return elapsed, n

    c.timed("telemetry.stream_record_ns", "ns", stream_record)

    def fold():
        clock = [0.0]
        telemetry = streaming(clock)
        _probe_mix(telemetry, clock, n)
        telemetry.finalized()
        t_0 = time.perf_counter()
        fold_stream(str(spill))
        return time.perf_counter() - t_0, n / 1e6

    c.timed("telemetry.fold_s_per_mrecord", "s/Mrecord", fold)
    spill.unlink(missing_ok=True)

    tracer = Tracer(sample_every=1, max_traces=200)
    _onehop_drive(tracer=tracer, window_us=100_000.0)
    traces = tracer.finished

    def critpath():
        t_0 = time.perf_counter()
        for trace in traces:
            attribute(trace)
        return time.perf_counter() - t_0, len(traces)

    c.timed("telemetry.critpath_attribute_us", "us", critpath)

    def windows_observe():
        windows = WindowedMetrics(20_000.0, prefixes=("e2e_latency", "runqlat:"))
        names = ("e2e_latency", "runqlat:mid", "midtier_span:mid")
        t_0 = time.perf_counter()
        for i in range(n):
            windows.observe(names[i % 3], 5.0 * i, 3.5)
        return time.perf_counter() - t_0, n

    c.timed("telemetry.windows_observe_ns", "ns", windows_observe)


# -- midcache ----------------------------------------------------------------


def midcache_layer(c: _Collector) -> None:
    n, n_keys = 20_000, 2_000
    rng = random.Random(2)
    weights = [1.0 / (rank + 1) ** 0.99 for rank in range(n_keys)]
    keys = [b"key:%d" % k for k in rng.choices(range(n_keys), weights, k=n)]
    ratio: List[float] = []

    def lookup_insert():
        # A tenth of the key space: at capacity, evictions on.
        cache = QueryCache(CacheConfig(capacity=n_keys // 10))
        hits = 0
        t_0 = time.perf_counter()
        for i, key in enumerate(keys):
            hit, _value = cache.lookup(key, float(i))
            if hit:
                hits += 1
            else:
                cache.insert(key, i, float(i))
        elapsed = time.perf_counter() - t_0
        ratio[:] = [hits / n]
        return elapsed, n

    c.timed("midcache.lookup_insert_ns", "ns", lookup_insert)
    c.once("midcache.hit_ratio", "share", ratio, exact=True)


# -- services, data, graph ---------------------------------------------------


def _service_calls(handle, queries: list):
    """Host seconds spent in the mid-tier app and in the leaf apps for
    ``queries``, and the number of leaf calls made."""
    mid = handle.midtier.app
    leaves = [leaf.app for leaf in handle.leaves]
    mid_s = leaf_s = 0.0
    leaf_calls = 0
    for query in queries:
        t_0 = time.perf_counter()
        plan = mid.fanout(query)
        t_1 = time.perf_counter()
        responses = [leaves[leaf].handle(sub).payload for leaf, sub, _size in plan.subrequests]
        t_2 = time.perf_counter()
        mid.merge(query, responses)
        t_3 = time.perf_counter()
        mid_s += (t_1 - t_0) + (t_3 - t_2)
        leaf_s += t_2 - t_1
        leaf_calls += len(plan.subrequests)
    return mid_s, leaf_s, leaf_calls


SERVICE_QUERIES_PER_SAMPLE = 150


def services_layer(c: _Collector) -> None:
    scale = SCALES["small"]
    samples = c.effort.samples
    for service in SERVICE_NAMES:
        t_0 = time.perf_counter()
        cluster = SimCluster(seed=0)
        handle = build_service(service, cluster, scale)
        c.once(f"services.{service}.build_s", "s", [time.perf_counter() - t_0])
        source = handle.make_source()
        queries = [source.next_query()[0] for _ in range(scale.n_queries)]
        # HDSearch memoizes per query object, so every sample gets its own
        # unseen share of the query set: the workloads never repeat one.
        share = min(len(queries) // samples, SERVICE_QUERIES_PER_SAMPLE)
        mid_us, leaf_us = [], []
        for i in range(samples):
            mid_s, leaf_s, leaf_calls = _service_calls(
                handle, queries[i * share:(i + 1) * share]
            )
            mid_us.append(1e6 * mid_s / share)
            leaf_us.append(1e6 * leaf_s / max(leaf_calls, 1))
        c.once(f"services.{service}.midtier_us", "us", mid_us)
        c.once(f"services.{service}.leaf_us", "us", leaf_us)
        cluster.shutdown()


def data_layer(c: _Collector) -> None:
    scale = SCALES["small"]

    def generate():
        t_0 = time.perf_counter()
        FeatureCorpus(scale.hds_points, scale.hds_dims, seed=1).query_set(scale.n_queries)
        KeyValueTrace(n_keys=scale.router_keys, seed=1).ops(scale.n_queries)
        DocumentCorpus(scale.setalgebra_docs, scale.setalgebra_vocab, seed=1).make_queries(
            scale.n_queries
        )
        RatingsDataset(
            scale.recommend_users, scale.recommend_items, scale.recommend_ratings, seed=1
        ).query_pairs(scale.n_queries)
        return time.perf_counter() - t_0, 1

    c.timed("data.generate_s", "s", generate)


def graph_layer(c: _Collector) -> None:
    def build():
        cluster = SimCluster(seed=0)
        t_0 = time.perf_counter()
        build_graph(cluster, exemplar_graph())
        elapsed = time.perf_counter() - t_0
        cluster.shutdown()
        return elapsed, 1

    c.timed("graph.build_ms", "ms", build)


# -- control, energy, faults -------------------------------------------------


def control_layer(c: _Collector) -> None:
    n = 20_000
    config = ControlConfig(
        enabled=True, policy="threshold", max_replicas=4,
        p99_high_us=2_600.0, p99_low_us=900.0, cooldown_us=40_000.0,
    )
    summaries = [
        WindowSummary(
            p99_us=500.0 + 3_000.0 * (0.5 + 0.5 * math.sin(i / 7.0)),
            mean_runq_us=4.0, inflight=8.0, inflight_per_replica=4.0, samples=200,
        )
        for i in range(64)
    ]

    def decide():
        policy = make_control_policy(config)
        active = 1
        t_0 = time.perf_counter()
        for i in range(n):
            active = policy.decide(summaries[i & 63], 20_000.0 * i, active).target_active
        return time.perf_counter() - t_0, n

    c.timed("control.decide_us", "us", decide)


def energy_layer(c: _Collector) -> None:
    n = 20_000

    def account():
        energy = EnergyAccount(EnergyConfig(enabled=True), OsCosts(), telemetry=Telemetry())
        machines = [energy.add_machine(f"m{i}", 4) for i in range(8)]
        return energy, machines

    def transition():
        _energy, machines = account()
        machine = machines[0]
        t_0 = time.perf_counter()
        now = 0.0
        for i in range(n // 2):
            idle_start = now
            now += 700.0 if i & 1 else 15.0
            machine.on_wake(i & 3, idle_start, now, "C6" if i & 1 else "C1")
            now += 30.0
            machine.on_sleep(i & 3, now)
        return time.perf_counter() - t_0, n

    c.timed("energy.transition_ns", "ns", transition)

    def snapshot():
        energy, _machines = account()
        t_0 = time.perf_counter()
        for i in range(200):
            energy.snapshot(1_000.0 * i)
        return time.perf_counter() - t_0, 200

    c.timed("energy.snapshot_us", "us", snapshot)


def faults_layer(c: _Collector) -> None:
    n = 20_000

    def sample():
        plan = FaultPlan(leaf_slowdown=LeafSlowdown(multiplier=1.5, tail_probability=0.05))
        cluster = SimCluster(seed=0, faults=plan)
        injector = cluster.machine("leaf", cores=1, role="leaf", leaf_index=0).fault_injector
        t_0 = time.perf_counter()
        for i in range(n):
            injector.pre_serve(float(i))
            injector.inflate(100.0)
        return time.perf_counter() - t_0, n

    c.timed("faults.sample_ns", "ns", sample)


LAYERS: Dict[str, Callable[[_Collector], None]] = {
    "sim": sim_layer,
    "kernel": kernel_layer,
    "net": net_layer,
    "rpc": rpc_layer,
    "loadgen": loadgen_layer,
    "telemetry": telemetry_layer,
    "midcache": midcache_layer,
    "services": services_layer,
    "data": data_layer,
    "graph": graph_layer,
    "control": control_layer,
    "energy": energy_layer,
    "faults": faults_layer,
}


def run_micro(effort: Effort, layer: Optional[str] = None) -> Dict[str, dict]:
    """All micro metrics (or one layer's), name -> summary."""
    collector = _Collector(effort)
    for name, run_layer in LAYERS.items():
        if layer is None or layer == name:
            run_layer(collector)
    return collector.metrics
