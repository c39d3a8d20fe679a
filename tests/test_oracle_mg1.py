"""Analytic oracle: one graph node with every OS and fabric cost zeroed is
an M/G/1 queue, and its mean sojourn must match Pollaczek–Khinchine.

The cell: Poisson arrivals at 5,000 QPS into one ``GraphNode`` with one
core and one thread per pool, so the single worker is a FIFO server.  A
query's work units are u ~ U(0.5, 1.5) and the node's calibrated kernel
charges 100 * (0.25 + 0.75 u) µs, so S has mean 100 µs, variance
(75 µs)^2 / 12 and the load is rho = 0.5.  Every other delay a request
meets is zero: syscalls, context switches, IPIs, dispatch, interrupts,
atomics, HITM transfers, C-state exits and DVFS, and the fabric link
(base latency 0 and jitter 0 leave only a ~1e-12 µs serialization
term).  That link also makes the calendar's lookahead L zero, so a
machine never runs ahead: the cell pins that case against the strict
rule too.
"""

from dataclasses import fields

import pytest

from repro.graph import GraphConfig, GraphNode, build_graph
from repro.kernel.config import CStatePoint, OsCosts
from repro.net.fabric import LinkSpec
from repro.rpc.server import RuntimeConfig
from repro.sim import Simulation
from repro.suite import SimCluster
from repro.suite.cluster import run_open_loop

QPS = 5_000.0
SERVICE_US = 100.0
SEEDS = (0, 1, 2, 3)
#: Allowed relative error of the pooled mean against the closed form.
TOLERANCE = 0.03


def _zero_costs() -> OsCosts:
    """Every cost field of ``OsCosts`` at zero; C0 only; no DVFS."""
    base = OsCosts()
    zeroed = {
        f.name: 0.0
        for f in fields(OsCosts)
        if f.name.endswith("_us") and f.name != "timeslice_us"
        and not f.name.startswith("dvfs_")
    }
    zeroed["syscall_us"] = tuple((name, 0.0) for name, _cost in base.syscall_us)
    return OsCosts(
        **zeroed, cstates=(CStatePoint(0.0, 0.0, "C0"),), dvfs_enabled=False,
    )


def pollaczek_khinchine_mean_us() -> float:
    """E[T] = E[S] + lambda E[S^2] / (2 (1 - rho)) for the cell's S."""
    lam = QPS / 1e6  # arrivals per µs
    mean = SERVICE_US
    spread = 0.75 * SERVICE_US  # S = 25 + 75 u, u ~ U(0.5, 1.5)
    second_moment = mean * mean + spread * spread / 12.0
    rho = lam * mean
    return mean + lam * second_moment / (2.0 * (1.0 - rho))


def _cell(seed: int, duration_us: float = 2_000_000.0):
    """(e2e histogram, calendar entries) of one seed's run."""
    costs = _zero_costs()
    cluster = SimCluster(seed=seed, costs=costs)
    cluster.fabric.link = LinkSpec(0.0, 0.0, gbps=1e12, loss_probability=0.0)
    node = GraphNode(
        name="mg1",
        service_us=SERVICE_US,
        cores=1,
        runtime=RuntimeConfig(network_threads=1, worker_threads=1, response_threads=1),
    )
    graph = GraphConfig(
        name="mg1", nodes=(node,), edges=(), root="mg1", n_queries=20_000,
    )
    handle = build_graph(cluster, graph)
    result = run_open_loop(
        cluster, handle, qps=QPS, duration_us=duration_us, warmup_us=200_000.0,
    )
    return result.e2e, cluster.sim.executed


def test_pk_closed_form():
    assert pollaczek_khinchine_mean_us() == pytest.approx(152.34375)


def test_mg1_mean_sojourn_matches_pollaczek_khinchine():
    total = 0.0
    count = 0
    for seed in SEEDS:
        e2e, _events = _cell(seed)
        assert e2e.count > 9_000
        total += e2e.total
        count += e2e.count
    pooled = total / count
    want = pollaczek_khinchine_mean_us()
    assert abs(pooled - want) <= TOLERANCE * want, (pooled, want)


def test_mg1_cell_never_runs_a_lane_ahead(monkeypatch):
    """L = 0 reduces the lookahead rule to the strict one: refusing every
    run-ahead changes no calendar count and no latency (on a shorter
    drive than the oracle's)."""
    e2e, events = _cell(0, duration_us=200_000.0)
    advance = Simulation.advance_to
    monkeypatch.setattr(  # every continuation a barrier: the strict rule
        Simulation, "advance_to",
        lambda self, time, lane=None, barrier=False: advance(self, time, lane, True),
    )
    strict_e2e, strict_events = _cell(0, duration_us=200_000.0)
    assert events == strict_events
    assert e2e.summary() == strict_e2e.summary()
