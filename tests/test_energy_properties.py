"""Property tests: energy conservation and telemetry-mode invariance.

Three invariants the account must hold by construction:

* ``idle_portions`` partitions any idle span *exactly* — the stepwise
  C-state split telescopes, so the portions sum back to the span with
  no float drift for integer-µs inputs.
* Core-time conservation: at any instant every core is either busy or
  idle, so ``active_us + Σ idle_us == n_cores × now`` for any snapshot,
  however the timeline is split into wake/sleep spans.
* Telemetry-mode invariance: a window's energy is the difference of two
  account snapshots and the account never looks at telemetry, so a
  streaming-telemetry run must produce the dict-identical energy
  aggregate to the buffered run — and with the account *disabled*,
  latency metrics must be byte-identical to a run with no account at
  all (accounting is observation, not behavior).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyConfig, MachineEnergy, idle_portions
from repro.graph import build_graph
from repro.graph.exemplar import onehop_graph
from repro.kernel.config import OsCosts
from repro.suite.cluster import SimCluster, run_open_loop
from repro.telemetry import TelemetryConfig

THRESHOLDS = tuple((p.name, p.min_idle_us) for p in OsCosts().cstates)


# -- idle_portions partitions exactly ---------------------------------------

@given(duration=st.integers(min_value=0, max_value=10_000_000))
def test_idle_portions_partition_the_span_exactly(duration):
    portions = idle_portions(THRESHOLDS, float(duration))
    assert sum(span for _state, span in portions) == float(duration)
    assert all(span > 0.0 for _state, span in portions)
    # States appear in descent order, each at most once.
    states = [state for state, _span in portions]
    assert states == [s for s, _lo in THRESHOLDS[: len(states)]]


# -- core-time conservation under arbitrary timeline splits -----------------

@st.composite
def _core_timelines(draw):
    """Per-core alternating wake/sleep event times (integer µs)."""
    n_cores = draw(st.integers(min_value=1, max_value=4))
    timelines = []
    for _ in range(n_cores):
        times = draw(
            st.lists(
                st.integers(min_value=1, max_value=1_000_000),
                min_size=0, max_size=12, unique=True,
            )
        )
        timelines.append(sorted(times))
    horizon = draw(st.integers(min_value=1_000_001, max_value=2_000_000))
    return timelines, horizon


@given(data=_core_timelines())
@settings(max_examples=60)
def test_active_plus_idle_conserves_core_time(data):
    timelines, horizon = data
    machine = MachineEnergy("m0", len(timelines), OsCosts())
    for core, times in enumerate(timelines):
        idle_since = 0.0
        for index, t in enumerate(times):
            if index % 2 == 0:  # wake after an idle span
                machine.on_wake(core, idle_since, float(t), "C1")
            else:  # back to sleep
                machine.on_sleep(core, float(t))
                idle_since = float(t)
    snap = machine.snapshot(float(horizon))
    total = snap["active_us"] + sum(snap["idle_us"].values())
    assert total == pytest.approx(len(timelines) * horizon, rel=1e-12)


@given(data=_core_timelines(), cut=st.integers(0, 1_000_000))
@settings(max_examples=60)
def test_snapshot_deltas_telescope_across_a_cut(data, cut):
    """Replaying the same events, a mid-stream snapshot splits the final
    totals into two additive windows — the account never loses or
    double-counts a span at the cut point."""
    timelines, horizon = data

    def replay(until=None):
        machine = MachineEnergy("m0", len(timelines), OsCosts())
        for core, times in enumerate(timelines):
            idle_since = 0.0
            for index, t in enumerate(times):
                if until is not None and t > until:
                    break
                if index % 2 == 0:
                    machine.on_wake(core, idle_since, float(t), "C1")
                else:
                    machine.on_sleep(core, float(t))
                    idle_since = float(t)
        return machine

    at_cut = replay(until=cut).snapshot(float(cut))
    at_end = replay().snapshot(float(horizon))
    # The cut snapshot never exceeds the final one, category by category.
    assert at_cut["active_us"] <= at_end["active_us"] + 1e-9
    for state, span in at_cut["idle_us"].items():
        assert span <= at_end["idle_us"][state] + 1e-9
    for state, count in at_cut["wakes"].items():
        assert count <= at_end["wakes"][state]


# -- whole-cluster invariance -----------------------------------------------

def _run_onehop(telemetry=None, energy=None):
    cluster = SimCluster(seed=0, telemetry=telemetry, energy=energy)
    handle = build_graph(cluster, onehop_graph(n_queries=100))
    result = run_open_loop(
        cluster, handle, qps=800.0, duration_us=150_000.0,
        warmup_us=50_000.0,
    )
    n_cores = (
        {name: m.n_cores for name, m in cluster.energy.machines.items()}
        if cluster.energy is not None else None
    )
    cluster.shutdown()
    return result, n_cores


def test_buffered_and_streaming_energy_aggregates_identical():
    enabled = EnergyConfig(enabled=True)
    buffered, _ = _run_onehop(energy=enabled)
    streaming, _ = _run_onehop(
        telemetry=TelemetryConfig(mode="streaming"), energy=enabled
    )
    assert buffered.energy is not None
    assert buffered.energy.to_dict() == streaming.energy.to_dict()


def test_energy_accounting_is_pure_observation():
    base, _ = _run_onehop()
    accounted, _ = _run_onehop(energy=EnergyConfig(enabled=True))
    assert base.energy is None
    assert accounted.energy is not None
    # Same seed, same behavior: the account must not perturb the run.
    assert base.sent == accounted.sent
    assert base.completed == accounted.completed
    assert base.e2e.samples() == accounted.e2e.samples()


def test_disabled_config_builds_no_account():
    result, _ = _run_onehop(energy=EnergyConfig(enabled=False))
    assert result.energy is None


def test_measured_window_conserves_core_time():
    result, n_cores = _run_onehop(energy=EnergyConfig(enabled=True))
    report = result.energy
    assert report.completed > 0
    # Every serving core is busy or idle for the whole measured window,
    # so the cluster-wide durations must sum to cores × window exactly.
    total_us = report.active_us + sum(report.idle_us.values())
    assert total_us == pytest.approx(
        sum(n_cores.values()) * report.duration_us, rel=1e-9
    )
