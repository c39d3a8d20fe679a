"""Differential exactness of the scheduler's in-place fast-forward.

A core runs its thread's op completions in place while nothing that
could reach its machine first is due (``Simulation.advance_to``): a
machine's lane may run ahead of other machines' entries by up to the
fabric latency.  Each cell here runs as shipped and with ``advance_to``
forced to refuse, which files every completion on the calendar like a
sequential engine.  The runs must produce bit-equal model records; only
the calendar count may differ, and it must drop.  So must the count of
filed ``Scheduler._dispatch`` entries: a wait timer that wakes a thread
dispatches it in place too.  Two cells also run with the lookahead
refused (every ``advance_to`` a barrier), which leaves the strict rule
of running in place only when no entry at all is due.

``router-100`` is the low-load cell, where most wake-ups are such timers
expiring on idle threads (the paper's futex/epoll calls per query at 100
QPS).  Every cell also runs with the scheduler's one-step re-arm of an
expired task-queue wait refused (``Scheduler._rearm``): records, spill
bytes, trace segments and calendar entries must not move.  The
replicated Router cells run mid-tier replicas that share one app and its
replica-pick RNG, at a load where replicas on separate lanes would take
those draws out of order.  The other replicated cells (HDSearch,
a graph with a replicated internal node and leaf tier, and a traced,
streaming copy of the features cell) run each replica on its own lane,
and must match the strict rule as well as the filed run: model records,
spill bytes and trace segments.  Two cells also run again after an
unrelated cell: a run depends only on its inputs, so their bytes, raw
request ids included, must not move.
"""

import math
from dataclasses import asdict, astuple, replace
from types import SimpleNamespace

import pytest

from repro.control import ControlConfig
from repro.energy import EnergyConfig
from repro.experiments import graph_sweep, trace_sweep
from repro.faults import FaultPlan, MidTierPressure
from repro.graph import build_graph, exemplar_graph
from repro.kernel import Scheduler
from repro.rpc import MidTierApp
from repro.rpc.policy import TailPolicy
from repro.sim import Lane, Simulation
from repro.suite import SCALES, SimCluster, build_service
from repro.suite.cluster import build_tier, midtier_maker, run_open_loop
from repro.suite.config import BatchConfig
from repro.telemetry import TelemetryConfig
from repro.telemetry.tracing import Segment, Trace, Tracer


def _service(name):
    def build(tmp_path):
        cluster = SimCluster(seed=0)
        return cluster, build_service(name, cluster, SCALES["unit"])

    return build


def _replicated_router(control):
    """Router behind a balancer: three mid-tier replicas that share one
    app, whose replica pick draws from one RNG stream.  With ``control``
    a threshold controller scales them."""
    def build(tmp_path):
        unit = SCALES["unit"]
        scale = unit.with_overrides(
            topology=replace(unit.topology, midtier_replicas=3),
            control=ControlConfig(
                enabled=True, policy="threshold", tick_us=5_000.0, window_us=5_000.0,
                min_replicas=1, max_replicas=3, initial_replicas=1,
                p99_high_us=100.0, p99_low_us=20.0, cooldown_us=5_000.0,
            ) if control else unit.control,
        )
        cluster = SimCluster(seed=0)
        return cluster, build_service("router", cluster, scale)

    return build


def _replicated_hdsearch(tmp_path):
    """HDSearch behind a balancer: three mid-tier replicas, one lane each."""
    unit = SCALES["unit"]
    scale = unit.with_overrides(topology=replace(unit.topology, midtier_replicas=3))
    cluster = SimCluster(seed=0)
    return cluster, build_service("hdsearch", cluster, scale)


def _socialnet(tmp_path):
    cluster = SimCluster(seed=0)
    return cluster, build_graph(cluster, exemplar_graph(n_queries=200))


def _replicated_socialnet(tmp_path):
    """The exemplar graph with a replicated internal node (``social``, 3)
    and a replicated leaf tier (``store``, 2)."""
    graph = exemplar_graph(n_queries=200)
    replicas = {"social": 3, "store": 2}
    graph = replace(graph, nodes=tuple(
        replace(node, replicas=replicas.get(node.name, 1)) for node in graph.nodes
    ))
    cluster = SimCluster(seed=0)
    return cluster, build_graph(cluster, graph)


def _features(tmp_path, max_replicas=3, hogs=1):
    """Batching, hedging, the controller, energy, streaming telemetry and
    a fault plan, all on at once."""
    unit = SCALES["unit"]
    scale = unit.with_overrides(
        topology=replace(unit.topology, midtier_cores=1),
        batch=BatchConfig(enabled=True, max_batch=4, max_wait_us=40.0),
        control=ControlConfig(
            enabled=True, policy="threshold", tick_us=5_000.0, window_us=5_000.0,
            min_replicas=1, max_replicas=max_replicas, initial_replicas=1,
            p99_high_us=400.0, p99_low_us=100.0, cooldown_us=10_000.0,
        ),
    )
    cluster = SimCluster(
        seed=0,
        faults=FaultPlan(midtier_pressure=MidTierPressure(hogs, 100.0, 200.0)),
        telemetry=TelemetryConfig(
            mode="streaming", window_us=5_000.0,
            spill_path=str(tmp_path / "spill.jsonl"),
        ),
        energy=EnergyConfig(enabled=True),
    )
    handle = build_service(
        "hdsearch", cluster, scale,
        tail_policy=TailPolicy(deadline_us=50_000.0, hedge_percentile=95.0),
    )
    return cluster, handle


def _features_replicated(tmp_path):
    """The perf harness's ``hdsearch-features-on`` shape at unit scale: up
    to four controlled mid-tier replicas under two antagonist threads."""
    return _features(tmp_path, max_replicas=4, hogs=2)


#: name -> (builder, offered QPS)
CELLS = {
    "hdsearch": (_service("hdsearch"), 2_000.0),
    "hdsearch-replicated": (_replicated_hdsearch, 6_000.0),
    "router": (_service("router"), 500.0),
    "router-100": (_service("router"), 100.0),
    "router-replicated": (_replicated_router(control=False), 20_000.0),
    "router-control": (_replicated_router(control=True), 20_000.0),
    "setalgebra": (_service("setalgebra"), 2_000.0),
    "recommend": (_service("recommend"), 2_000.0),
    "socialnet": (_socialnet, 2_000.0),
    "socialnet-replicated": (_replicated_socialnet, 4_000.0),
    "features-on": (_features, 5_000.0),
    "features-traced": (_features_replicated, 5_000.0),
}
#: Cells whose every fifth query carries a trace.
TRACED = {"features-traced"}
#: Cells with a replicated tier: shipped, strict and filed must agree.
REPLICATED = [
    "features-traced", "hdsearch-replicated", "router-control",
    "router-replicated", "socialnet-replicated",
]


def _run(cell, tmp_path):
    build, qps = CELLS[cell]
    cluster, handle = build(tmp_path)
    tracer = Tracer(sample_every=5) if cell in TRACED else None
    result = run_open_loop(
        cluster, handle, qps=qps, duration_us=30_000.0,
        warmup_us=10_000.0, drain_us=20_000.0, tracer=tracer,
    )
    tel = result.telemetry
    machines = [machine.name for machine in cluster.machines]
    record = {
        "sent": result.sent,
        "completed": result.completed,
        "e2e": result.e2e.summary(),
        "syscalls": {m: dict(tel.syscall_counts(m)) for m in machines},
        "ctxsw": dict(tel.context_switches),
        "hitm": dict(tel.hitm),
        "runqlat": {m: tel.runqlat_hist(m).summary() for m in machines},
        "energy": asdict(result.energy) if result.energy is not None else None,
        "counters": dict(tel.counters),
        "control": [controller.stats() for controller in cluster.controllers],
    }
    spill = tmp_path / "spill.jsonl"
    if spill.exists():
        record["spill"] = spill.read_bytes()
    if tracer is not None:
        record["traces"] = [_trace_record(trace) for trace in tracer.finished]
    return record, cluster.sim.executed


def _trace_record(trace):
    """A trace's root id, clocks, segments and winners, with the raw
    request ids."""
    return (
        trace.request_id, trace.started_us, trace.finished_us,
        [astuple(seg) for seg in trace.segments],
        sorted(trace.winners),
    )


def _relabelled(record):
    """``record`` with each trace's request ids replaced by their order of
    first appearance.  Replicas on separate lanes may take sub-request ids
    in another order than the strict rule; an id is only ever compared for
    equality, so across modes the labelling is what must not move."""
    if "traces" not in record:
        return record
    return {**record, "traces": [_relabel(trace) for trace in record["traces"]]}


def _relabel(trace):
    request_id, started, finished, segments, winners = trace
    labels = {request_id: 0}

    def label(rid):
        return None if rid is None else labels.setdefault(rid, len(labels))

    segments = [(*seg[:-1], label(seg[-1])) for seg in segments]
    return started, finished, segments, sorted(labels.get(rid, -1) for rid in winners)


_DEFER_AT = Lane.defer_at


def _count_filed_dispatches(monkeypatch):
    """Count the ``Scheduler._dispatch`` entries filed from now on."""
    filed = []

    def counting(self, time, fn, *args):
        if getattr(fn, "__func__", None) is Scheduler._dispatch:
            filed.append(time)
        _DEFER_AT(self, time, fn, *args)

    monkeypatch.setattr(Lane, "defer_at", counting)
    return filed


_ADVANCE_TO = Simulation.advance_to


def _refuse_lookahead(monkeypatch):
    """Leave only the strict rule: every continuation is a barrier, so no
    lane runs ahead of another's entry."""
    monkeypatch.setattr(
        Simulation, "advance_to",
        lambda self, time, lane=None, barrier=False: _ADVANCE_TO(self, time, lane, True),
    )


def _file_everything(monkeypatch):
    """Refuse every fast-forward: each op completion is filed on the
    calendar, as the sequential engine does."""
    monkeypatch.setattr(
        Simulation, "advance_to", lambda self, time, lane=None, barrier=False: False
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fast_forward_is_exact(cell, tmp_path, monkeypatch):
    shipped_dispatches = _count_filed_dispatches(monkeypatch)
    shipped, shipped_events = _run(cell, tmp_path)
    _file_everything(monkeypatch)
    filed_dispatches = _count_filed_dispatches(monkeypatch)
    filed, filed_events = _run(cell, tmp_path)
    assert shipped["completed"] > 0
    if cell == "features-on":
        (control,) = shipped["control"]
        assert control["scale_ups"] > 0
        counters = shipped["counters"]
        assert counters["hedges_sent:hds-mid0"] > 0
        assert counters["batches_sent:hds-mid0"] > 0
        assert shipped["energy"]["total_uj"] > 0
    if cell == "router-control":
        (control,) = shipped["control"]
        assert control["scale_ups"] > 0
    assert _relabelled(shipped) == _relabelled(filed)
    assert shipped_events < filed_events
    assert len(shipped_dispatches) < len(filed_dispatches)


_REARM = Scheduler._rearm
_WAIT_TIMEOUT = Scheduler._wait_timeout


def _count_rearms(monkeypatch):
    """Count task-queue wait expiries (a futex wait's timer: only task
    queues time their futex waits) and the re-arms made in one step."""
    counts = {"expiries": 0, "rearms": 0}

    def expiring(self, thread, waitlist, wait_op=None):
        if thread.block_reason == "futex":
            counts["expiries"] += 1
        _WAIT_TIMEOUT(self, thread, waitlist, wait_op)

    def rearming(self, core, thread, op):
        rearmed = _REARM(self, core, thread, op)
        counts["rearms"] += rearmed
        return rearmed

    monkeypatch.setattr(Scheduler, "_wait_timeout", expiring)
    monkeypatch.setattr(Scheduler, "_rearm", rearming)
    return counts


def _refuse_rearm(monkeypatch):
    """Run every expired task-queue wait through the thread's body."""
    monkeypatch.setattr(Scheduler, "_rearm", lambda self, core, thread, op: False)


def _run_with_kernel_state(cell, tmp_path, monkeypatch):
    """:func:`_run`, plus the scheduler state no record shows: every
    thread's vruntime and every core's occupancy stamps, and how many
    entries the calendar was handed."""
    build, qps = CELLS[cell]
    clusters = []

    def keeping(tmp_path):
        cluster, handle = build(tmp_path)
        clusters.append(cluster)
        return cluster, handle

    monkeypatch.setitem(CELLS, cell, (keeping, qps))
    record, events = _run(cell, tmp_path)
    monkeypatch.setitem(CELLS, cell, (build, qps))
    (cluster,) = clusters
    tel = cluster.telemetry
    record["irq"] = {key: tel.irq_hist(*key).summary() for key in sorted(tel.irq_latency)}
    record["kernel"] = (cluster.sim._seq, [
        (
            [(t.name, t.vruntime, t.state, t.last_core) for t in m.scheduler.threads],
            [(c.busy_epoch, c.busy_until, c.idle_since) for c in m.scheduler.cores],
        )
        for m in cluster.machines
    ])
    return record, events


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_rearm_is_exact(cell, tmp_path, monkeypatch):
    """An idle worker's expired wait re-armed in one step leaves the same
    records, spill bytes, trace segments, calendar entries and scheduler
    state as the same iteration run through ``TaskQueue.get``.  At low
    load nearly every expiry takes the one step: a change that defeats
    one of its preconditions fails here rather than only losing the
    speed."""
    counts = _count_rearms(monkeypatch)
    shipped, shipped_events = _run_with_kernel_state(cell, tmp_path, monkeypatch)
    counts = dict(counts)
    _refuse_rearm(monkeypatch)
    refused, refused_events = _run_with_kernel_state(cell, tmp_path, monkeypatch)
    assert shipped == refused
    assert shipped_events == refused_events
    if cell in ("router-100", "features-on"):
        assert counts["rearms"] > 0
    if cell == "router-100":
        assert counts["rearms"] >= 0.9 * counts["expiries"], counts


@pytest.mark.parametrize("cell", ["features-on", "router-100"])
def test_lookahead_cuts_entries_the_strict_rule_files(cell, tmp_path, monkeypatch):
    """The strict rule sits between the two: the same records, more
    entries than with the lookahead and fewer than with none."""
    shipped_dispatches = _count_filed_dispatches(monkeypatch)
    shipped, shipped_events = _run(cell, tmp_path)
    _refuse_lookahead(monkeypatch)
    strict_dispatches = _count_filed_dispatches(monkeypatch)
    strict, strict_events = _run(cell, tmp_path)
    _file_everything(monkeypatch)
    _filed, filed_events = _run(cell, tmp_path)
    assert shipped == strict
    assert shipped_events < strict_events < filed_events
    assert len(shipped_dispatches) < len(strict_dispatches)


@pytest.mark.parametrize("cell", REPLICATED)
def test_replicated_tier_matches_the_strict_rule(cell, tmp_path, monkeypatch):
    """Replicas on a lane each (or on one shared lane, for Router's shared
    RNG) run ahead of each other by less than a fabric hop: the records,
    the spill bytes and every trace's segments are the strict rule's (and
    the filed run's: ``test_fast_forward_is_exact``)."""
    shipped, shipped_events = _run(cell, tmp_path)
    _refuse_lookahead(monkeypatch)
    strict, strict_events = _run(cell, tmp_path)
    if cell in TRACED:
        assert shipped["traces"] and shipped["spill"]
        (control,) = shipped["control"]
        assert control["scale_ups"] > 0
    assert _relabelled(shipped) == _relabelled(strict)
    assert shipped_events < strict_events


def _trace_cell(tmp_path, monkeypatch):
    """A unit ``usuite trace`` cell through streaming telemetry: its
    record, its spill bytes and its raw traces."""
    tracers = []

    class Kept(Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    monkeypatch.setattr(trace_sweep, "Tracer", Kept)
    spill = tmp_path / "trace-spill.jsonl"
    cell = trace_sweep.measure_trace_cell(
        "hdsearch", "unit", 1_000.0, queries=150,
        telemetry=TelemetryConfig(mode="streaming", spill_path=str(spill)),
    )
    return {
        "cell": asdict(cell),
        "spill": spill.read_bytes(),
        "traces": [_trace_record(trace) for trace in tracers[-1].finished],
    }


#: name -> one run of the cell, as a record with spill bytes and raw traces.
IDENTITY = {
    "features-traced": lambda tmp_path, monkeypatch: _run("features-traced", tmp_path)[0],
    "trace-cell": _trace_cell,
}


@pytest.mark.parametrize("cell", sorted(IDENTITY))
def test_a_run_is_a_function_of_its_inputs(cell, tmp_path, monkeypatch):
    """Cell A, an unrelated cell B, then A again, in one interpreter: A's
    record, spill bytes and traces are byte-equal, raw request ids
    included, so nothing of B's run reaches A's.  Under the strict rule
    and filed, A keeps its record and spill bytes; only the order in
    which replicas take sub-request ids may differ (:func:`_relabelled`)."""
    run = IDENTITY[cell]
    first = run(tmp_path, monkeypatch)
    assert first["traces"] and first["spill"]
    (tmp_path / "b").mkdir()
    _run("router", tmp_path / "b")
    assert run(tmp_path, monkeypatch) == first
    _refuse_lookahead(monkeypatch)
    strict = run(tmp_path, monkeypatch)
    _file_everything(monkeypatch)
    filed = run(tmp_path, monkeypatch)
    assert _relabelled(strict) == _relabelled(first) == _relabelled(filed)


def _lanes(machines):
    return len({id(machine.lane) for machine in machines})


def test_replicas_get_a_lane_each_unless_their_app_shares_state():
    unit = SCALES["unit"]
    scale = unit.with_overrides(topology=replace(unit.topology, midtier_replicas=3))
    for service, lanes in (("hdsearch", 3), ("setalgebra", 3), ("recommend", 3), ("router", 1)):
        cluster = SimCluster(seed=0)
        handle = build_service(service, cluster, scale)
        assert _lanes(handle.root.machines) == lanes, service
        # No replica shares a lane with a leaf or the global lane.
        leaves = [m for m in cluster.machines if m not in handle.root.machines]
        assert _lanes(cluster.machines) == lanes + len(leaves)
        assert all(m.lane is not cluster.sim.lane for m in cluster.machines)
    cluster, handle = _replicated_socialnet(None)
    tiers = handle.extras["tiers"]
    assert _lanes(tiers["social"].machines) == 3
    assert _lanes(tiers["store"].machines) == 2

    class Undeclared(MidTierApp):
        pass

    # An app that does not declare its state keeps its replicas on one lane.
    assert Undeclared.replicas_share_state
    cluster = SimCluster(seed=0)
    tier = build_tier(
        cluster, unit, 3, name="bare", front="bare", cores=1,
        make_runtime=midtier_maker(unit, Undeclared(), [], unit.midtier_runtime),
        signals=lambda machines: [],
    )
    assert len(tier.machines) == 3
    assert _lanes(tier.machines) == 1


def test_traced_deep_injected_cell_is_exact(monkeypatch):
    """``BENCH_graph.json``'s pinned cell (the deep graph, fault injected,
    every request traced), with a shorter warm-up and run: machines that
    run ahead append to a shared trace out of clock order, and the trace
    must keep the order the strict rule appends in, or the attributions
    drift."""
    monkeypatch.setattr(graph_sweep, "WARMUP_US", 10_000.0)
    shipped = graph_sweep.pinned_cell(queries=20)
    with monkeypatch.context() as patch:
        patch.setattr(Trace, "add_segment", _appended_segment)
        appended = graph_sweep.pinned_cell(queries=20)
    _refuse_lookahead(monkeypatch)
    strict = graph_sweep.pinned_cell(queries=20)
    assert shipped.tail_traces > 0
    assert asdict(shipped) == asdict(strict)
    assert appended.machine_tail_us != strict.machine_tail_us


def _appended_segment(self, category, machine, start_us, end_us=None, request_id=None):
    """``Trace.add_segment`` as a plain append, in whatever order the
    lanes run."""
    segment = Segment(category, machine, start_us, end_us, request_id)
    self.segments.append(segment)
    return segment


def _streamed_router(tmp_path, edge_barrier=True):
    """Router at 100 QPS with 50 µs streaming windows, so window edges
    fall inside run-aheads: (spill records, run record, calendar count).
    ``edge_barrier=False`` lets lanes run across the pending window's
    edge."""
    spill = tmp_path / "spill.jsonl"
    cluster = SimCluster(
        seed=0,
        telemetry=TelemetryConfig(mode="streaming", window_us=50.0, spill_path=str(spill)),
    )
    handle = build_service("router", cluster, SCALES["unit"])
    if not edge_barrier:
        for machine in cluster.machines:
            machine.lane.hub = SimpleNamespace(_roll_at=math.inf)
    result = run_open_loop(
        cluster, handle, qps=100.0, duration_us=30_000.0,
        warmup_us=10_000.0, drain_us=20_000.0,
    )
    tel = result.telemetry
    record = {
        "completed": result.completed,
        "e2e": result.e2e.summary(),
        "runqlat": {m.name: tel.runqlat_hist(m.name).summary() for m in cluster.machines},
        "syscalls": {m.name: dict(tel.syscall_counts(m.name)) for m in cluster.machines},
    }
    return spill.read_bytes(), record, cluster.sim.executed


def test_streaming_windows_are_exact_across_run_ahead(tmp_path, monkeypatch):
    shipped = _streamed_router(tmp_path)
    unguarded = _streamed_router(tmp_path, edge_barrier=False)
    _refuse_lookahead(monkeypatch)
    strict = _streamed_router(tmp_path)
    # Every window holds the same samples, in the same order per key.
    assert shipped[:2] == strict[:2]
    assert shipped[2] < strict[2]
    # Without the edge barrier a lane rolls the window early and other
    # machines' earlier samples land in the next one.
    assert unguarded[0] != strict[0]
