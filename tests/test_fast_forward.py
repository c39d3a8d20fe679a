"""Differential exactness of the scheduler's in-place fast-forward.

A core runs its thread's op completions in place while no other calendar
entry is due (``Simulation.advance_to``).  Each cell here runs twice: as
shipped, and with ``advance_to`` forced to refuse, which files every
completion on the calendar.  The two runs must produce bit-equal model
records; only the calendar count may differ, and it must drop.  So must
the count of filed ``Scheduler._dispatch`` entries: a wait timer that
wakes a thread dispatches it in place too.  ``router-100`` is the
low-load cell, where most wake-ups are such timers expiring on idle
threads (the paper's futex/epoll calls per query at 100 QPS).
"""

from dataclasses import asdict, replace

import pytest

from repro.control import ControlConfig
from repro.energy import EnergyConfig
from repro.faults import FaultPlan, MidTierPressure
from repro.graph import build_graph, exemplar_graph
from repro.kernel import Scheduler
from repro.rpc.policy import TailPolicy
from repro.sim import Simulation
from repro.suite import SCALES, SimCluster, build_service
from repro.suite.cluster import run_open_loop
from repro.suite.config import BatchConfig
from repro.telemetry import TelemetryConfig


def _service(name):
    def build(tmp_path):
        cluster = SimCluster(seed=0)
        return cluster, build_service(name, cluster, SCALES["unit"])

    return build


def _socialnet(tmp_path):
    cluster = SimCluster(seed=0)
    return cluster, build_graph(cluster, exemplar_graph(n_queries=200))


def _features(tmp_path):
    """Batching, hedging, the controller, energy, streaming telemetry and
    a fault plan, all on at once."""
    unit = SCALES["unit"]
    scale = unit.with_overrides(
        topology=replace(unit.topology, midtier_cores=1),
        batch=BatchConfig(enabled=True, max_batch=4, max_wait_us=40.0),
        control=ControlConfig(
            enabled=True, policy="threshold", tick_us=5_000.0, window_us=5_000.0,
            min_replicas=1, max_replicas=3, initial_replicas=1,
            p99_high_us=400.0, p99_low_us=100.0, cooldown_us=10_000.0,
        ),
    )
    cluster = SimCluster(
        seed=0,
        faults=FaultPlan(midtier_pressure=MidTierPressure(1, 100.0, 200.0)),
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


#: name -> (builder, offered QPS)
CELLS = {
    "hdsearch": (_service("hdsearch"), 2_000.0),
    "router": (_service("router"), 500.0),
    "router-100": (_service("router"), 100.0),
    "setalgebra": (_service("setalgebra"), 2_000.0),
    "recommend": (_service("recommend"), 2_000.0),
    "socialnet": (_socialnet, 2_000.0),
    "features-on": (_features, 5_000.0),
}


def _run(cell, tmp_path):
    build, qps = CELLS[cell]
    cluster, handle = build(tmp_path)
    result = run_open_loop(
        cluster, handle, qps=qps, duration_us=30_000.0,
        warmup_us=10_000.0, drain_us=20_000.0,
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
    return record, cluster.sim.executed


_DEFER_AT = Simulation.defer_at


def _count_filed_dispatches(monkeypatch):
    """Count the ``Scheduler._dispatch`` entries filed from now on."""
    filed = []

    def counting(self, time, fn, *args):
        if getattr(fn, "__func__", None) is Scheduler._dispatch:
            filed.append(time)
        _DEFER_AT(self, time, fn, *args)

    monkeypatch.setattr(Simulation, "defer_at", counting)
    return filed


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_fast_forward_is_exact(cell, tmp_path, monkeypatch):
    shipped_dispatches = _count_filed_dispatches(monkeypatch)
    shipped, shipped_events = _run(cell, tmp_path)
    # Refusing every fast-forward files each op completion on the calendar.
    monkeypatch.setattr(Simulation, "advance_to", lambda self, time: False)
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
    assert shipped == filed
    assert shipped_events < filed_events
    assert len(shipped_dispatches) < len(filed_dispatches)
