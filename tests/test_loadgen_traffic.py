"""Traffic-model tests: arrival processes, rate curves, session mixes.

* the thinned open loop is Poisson-consistent: at a fixed seed its
  inter-arrival gaps pass a Kolmogorov–Smirnov check against the
  exponential law, and realized arrivals under a non-constant curve
  match the curve's analytic integral;
* ``expected_arrivals`` really is the integral of ``rate`` — checked
  against numeric quadrature over hypothesis-chosen parameters;
* the heterogeneous closed loop conserves per-class in-flight counts:
  never above the class's client count, exactly at it for a
  zero-think class, and zero after stop + drain;
* ``drive`` with an already-built generator measures exactly what
  ``run_open_loop`` does at the same seed.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyConfig
from repro.graph import onehop_graph, build_graph
from repro.loadgen import OpenLoopLoadGen
from repro.loadgen.traffic import (
    ConstantRate,
    DiurnalRate,
    FlashCrowd,
    SessionClass,
    SessionLoadGen,
    VariableRateLoadGen,
)
from repro.suite.cluster import CLIENT_NAME, SimCluster, drive, run_open_loop
from tests.helpers import Rig


def _numeric_arrivals(curve, t0, t1, steps=20_000):
    dt = (t1 - t0) / steps
    total = 0.0
    for i in range(steps):
        total += curve.rate(t0 + (i + 0.5) * dt)
    return total * dt / 1e6


# -- rate curves: analytic integral vs quadrature ---------------------------

@given(
    base=st.floats(10.0, 2_000.0),
    amplitude=st.floats(0.0, 1.0),
    period=st.floats(1e5, 1e7),
    phase=st.floats(0.0, 2.0 * math.pi),
    t0=st.floats(0.0, 5e6),
    span=st.floats(1e4, 5e6),
)
@settings(max_examples=40, deadline=None)
def test_diurnal_integral_matches_quadrature(base, amplitude, period, phase, t0, span):
    curve = DiurnalRate(
        base_qps=base, amplitude=amplitude, period_us=period, phase_rad=phase
    )
    analytic = curve.expected_arrivals(t0, t0 + span)
    numeric = _numeric_arrivals(curve, t0, t0 + span)
    assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-6)


@given(
    base=st.floats(10.0, 2_000.0),
    start=st.floats(0.0, 2e6),
    duration=st.floats(0.0, 2e6),
    multiplier=st.floats(1.0, 10.0),
    t0=st.floats(0.0, 2e6),
    span=st.floats(1e4, 3e6),
)
@settings(max_examples=40, deadline=None)
def test_flash_crowd_integral_matches_quadrature(
    base, start, duration, multiplier, t0, span
):
    curve = FlashCrowd(
        base=ConstantRate(base), start_us=start, duration_us=duration,
        multiplier=multiplier,
    )
    analytic = curve.expected_arrivals(t0, t0 + span)
    numeric = _numeric_arrivals(curve, t0, t0 + span)
    assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-3)


def test_flash_crowd_over_diurnal_composes():
    curve = FlashCrowd(
        base=DiurnalRate(base_qps=500.0, amplitude=0.5, period_us=1e6),
        start_us=3e5, duration_us=2e5, multiplier=3.0,
    )
    analytic = curve.expected_arrivals(0.0, 1e6)
    numeric = _numeric_arrivals(curve, 0.0, 1e6)
    assert analytic == pytest.approx(numeric, rel=1e-3)
    assert curve.peak_rate() == pytest.approx(500.0 * 1.5 * 3.0)


def test_curve_validation():
    with pytest.raises(ValueError, match="amplitude"):
        DiurnalRate(base_qps=100.0, amplitude=1.5)
    with pytest.raises(ValueError, match="multiplier"):
        FlashCrowd(base=ConstantRate(1.0), start_us=0, duration_us=1, multiplier=0.5)
    with pytest.raises(ValueError, match="positive"):
        ConstantRate(0.0)


# -- the thinned open loop --------------------------------------------------

def _sink_rig():
    """A Rig with a null RPC sink: queries vanish, nothing replies."""
    rig = Rig(seed=3)
    rig.fabric.register("sink", lambda packet: None)
    return rig


class _ListSource:
    def next_query(self):
        return ("q",), 64


def test_constant_rate_arrivals_are_poisson_ks():
    rig = _sink_rig()
    qps = 2_000.0
    gen = VariableRateLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=("sink", 0), source=_ListSource(), curve=ConstantRate(qps),
    )
    send_times = []
    original = gen._send_query

    def recording(client_start):
        send_times.append(rig.sim.now)
        return original(client_start)

    gen._send_query = recording
    gen.start()
    rig.run(until=1.5e6)
    gen.stop()
    gaps = sorted(
        b - a for a, b in zip(send_times, send_times[1:])
    )
    n = len(gaps)
    assert n > 2_000
    # With a constant curve nothing is thinned, so gaps are iid
    # exponential.  Kolmogorov–Smirnov against the exponential CDF at
    # the configured mean; the seed is fixed, so the statistic is a
    # deterministic number well under the 1% critical value 1.63/sqrt(n).
    mean = 1e6 / qps
    d_stat = 0.0
    for i, gap in enumerate(gaps):
        cdf = 1.0 - math.exp(-gap / mean)
        d_stat = max(d_stat, abs(cdf - i / n), abs(cdf - (i + 1) / n))
    assert gen.thinned == 0
    assert d_stat < 1.63 / math.sqrt(n)


def test_variable_rate_tracks_analytic_integral():
    rig = _sink_rig()
    curve = FlashCrowd(
        base=DiurnalRate(base_qps=1_500.0, amplitude=0.6, period_us=8e5),
        start_us=4e5, duration_us=2e5, multiplier=2.0,
    )
    gen = VariableRateLoadGen(
        rig.sim, rig.fabric, rig.telemetry, rig.rng,
        target=("sink", 0), source=_ListSource(), curve=curve,
    )
    gen.start()
    rig.run(until=1.2e6)
    expected = gen.expected_sent()
    assert expected == pytest.approx(curve.expected_arrivals(0.0, 1.2e6))
    assert gen.thinned > 0
    assert abs(gen.sent - expected) / expected < 0.08


def test_variable_rate_bit_reproducible():
    sent = []
    for _ in range(2):
        rig = _sink_rig()
        gen = VariableRateLoadGen(
            rig.sim, rig.fabric, rig.telemetry, rig.rng,
            target=("sink", 0), source=_ListSource(),
            curve=DiurnalRate(base_qps=900.0, amplitude=0.3, period_us=5e5),
            name="vgen",
        )
        gen.start()
        rig.run(until=1e6)
        sent.append((gen.sent, gen.thinned))
    assert sent[0] == sent[1]


# -- the closed-loop session mix --------------------------------------------

MIX = (
    SessionClass(name="fast", clients=4, think_mean_us=1_000.0),
    SessionClass(name="slow", clients=2, think_mean_us=20_000.0),
    SessionClass(name="greedy", clients=3, think_mean_us=0.0),
)


def test_session_mix_conserves_in_flight():
    cluster = SimCluster(seed=0)
    handle = build_graph(cluster, onehop_graph(n_queries=20))
    gen = SessionLoadGen(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(),
        classes=MIX,
    )
    violations = []

    def probe():
        for cls in MIX:
            if gen.in_flight[cls.name] > cls.clients:
                violations.append((cluster.sim.now, cls.name))
        if cluster.sim.now < 200_000.0:
            cluster.sim.defer_in(1_000.0, probe)

    gen.start()
    cluster.sim.defer_in(1_000.0, probe)
    cluster.run(until=200_000.0)
    gen.stop()
    cluster.run(until=260_000.0)
    cluster.shutdown()
    assert not violations
    for cls in MIX:
        assert 0 < gen.max_in_flight[cls.name] <= cls.clients
        assert gen.completed_by_class[cls.name] > 0
        # Stopped and drained: every client came home.
        assert gen.in_flight[cls.name] == 0
    # A zero-think class keeps every client outstanding at all times.
    assert gen.max_in_flight["greedy"] == 3
    # Think time throttles: the thinking classes complete fewer queries
    # per client than the greedy one.
    per_client = {
        cls.name: gen.completed_by_class[cls.name] / cls.clients for cls in MIX
    }
    assert per_client["greedy"] > per_client["fast"] > per_client["slow"]


def test_session_class_validation():
    with pytest.raises(ValueError, match="clients"):
        SessionClass(name="x", clients=0)
    with pytest.raises(ValueError, match="think_mean_us"):
        SessionClass(name="x", clients=1, think_mean_us=-1.0)
    rig = Rig(seed=0)
    with pytest.raises(ValueError, match="duplicate session class"):
        SessionLoadGen(
            rig.sim, rig.fabric, rig.telemetry, rig.rng,
            target=("sink", 0), source=_ListSource(),
            classes=(
                SessionClass(name="a", clients=1),
                SessionClass(name="a", clients=2),
            ),
        )
    with pytest.raises(ValueError, match="at least one"):
        SessionLoadGen(
            rig.sim, rig.fabric, rig.telemetry, rig.rng,
            target=("sink", 0), source=_ListSource(), classes=(),
        )


# -- the one drive loop ------------------------------------------------------

def test_drive_with_a_built_generator_equals_run_open_loop():
    def build():
        cluster = SimCluster(seed=5, energy=EnergyConfig(enabled=True))
        return cluster, build_graph(cluster, onehop_graph(n_queries=20))

    cluster, handle = build()
    helper = run_open_loop(
        cluster, handle, qps=1_500.0, duration_us=100_000.0, warmup_us=30_000.0
    )
    cluster.shutdown()

    cluster, handle = build()
    gen = OpenLoopLoadGen(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(),
        qps=1_500.0, name=CLIENT_NAME,
    )
    direct = drive(cluster, handle, gen, 30_000.0, 100_000.0)
    cluster.shutdown()

    assert direct.sent == helper.sent > 100
    assert direct.completed == helper.completed > 100
    assert direct.e2e.count == helper.e2e.count
    assert direct.energy.to_dict() == helper.energy.to_dict()
    assert direct.qps_offered == helper.qps_offered == 1_500.0
