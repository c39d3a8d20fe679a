"""Streaming telemetry must be bit-identical to the buffered path.

The determinism contract of :mod:`repro.telemetry.stream`: for the same
seed, running any cell with ``TelemetryConfig(mode="streaming")`` and
folding the JSONL spill stream back must reproduce every aggregate the
buffered hub would have held — dict-for-dict, sample-for-sample,
including reservoir contents (same RNG replacement sequence) and
floating-point sums (same addition order).

Cells covered: all four µSuite services, the social-network DAG, the
hedged/retried fault cell, and the controller-on cell (live windows tee
with bounded retention).  A warm-up regression cell pins the trim
boundary, and the bounded-memory test asserts the telemetry-internal
high-water probe stays flat while the buffered hub grows linearly.
"""

from dataclasses import asdict

import pytest

from repro.experiments import runner
from repro.experiments.characterize import characterize
from repro.experiments.fault_sweep import slowdown_plan
from repro.experiments.graph_sweep import measure_graph_cell
from repro.graph import exemplar_graph
from repro.rpc.policy import DEFAULT_TAIL_POLICY
from repro.suite import SCALES
from repro.suite.cluster import run_open_loop
from repro.telemetry import StreamingTelemetry, Telemetry, TelemetryConfig
from repro.telemetry.windows import WindowedMetrics

STREAMING = TelemetryConfig(mode="streaming")


def _hist_state(hist):
    return (hist.count, hist.total, hist.min, hist.max, tuple(hist.samples()))


def telemetry_state(t: Telemetry) -> dict:
    """Every aggregate the buffered hub holds, in comparable form."""
    return {
        "syscalls": {m: dict(c) for m, c in t.syscalls.items()},
        "runqlat": {m: _hist_state(h) for m, h in t.runqlat.items()},
        "irq": {k: _hist_state(h) for k, h in t.irq_latency.items()},
        "ctx": dict(t.context_switches),
        "hitm": dict(t.hitm),
        "hitm_remote": dict(t.hitm_remote),
        "retrans": t.retransmissions,
        "futex": dict(t.futex_contended_wakes),
        "attributed": dict(t.attributed),
        "attributed_counts": dict(t.attributed_counts),
        "hists": {n: _hist_state(h) for n, h in t.histograms.items()},
        "counters": dict(t.counters),
    }


def _characterize_cell(service, telemetry=None, warmup_us=60_000.0, **kw):
    overrides = {"telemetry": telemetry} if telemetry is not None else None
    return characterize(
        service, 1000.0, scale="unit", seed=0,
        duration_us=120_000.0, warmup_us=warmup_us,
        scale_overrides=overrides, **kw,
    )


@pytest.mark.parametrize(
    "service", ["hdsearch", "router", "setalgebra", "recommend"]
)
def test_service_cells_fold_bit_identical(service):
    buffered = _characterize_cell(service)
    streaming = _characterize_cell(service, telemetry=STREAMING)
    assert buffered.completed > 0
    assert _hist_state(buffered.e2e) == _hist_state(streaming.e2e)
    assert buffered.syscalls_per_query == streaming.syscalls_per_query
    assert buffered.context_switches == streaming.context_switches
    assert buffered.hitm == streaming.hitm
    assert buffered.retransmissions == streaming.retransmissions
    for kind in buffered.overheads:
        assert _hist_state(buffered.overheads[kind]) == _hist_state(
            streaming.overheads[kind]
        ), kind
    assert _hist_state(buffered.midtier_latency) == _hist_state(
        streaming.midtier_latency
    )
    assert buffered.extras["counters"] == streaming.extras["counters"]


def _cluster_state(telemetry_config):
    """Full telemetry hub comparison on one open-loop run."""
    scale = SCALES["unit"]
    if telemetry_config is not None:
        scale = scale.with_overrides(telemetry=telemetry_config)
    cluster, service = runner.build_cluster("hdsearch", scale, seed=0)
    result = run_open_loop(
        cluster, service, qps=1500.0,
        duration_us=120_000.0, warmup_us=60_000.0,
    )
    state = telemetry_state(result.telemetry)
    cluster.shutdown()
    return state


def test_whole_hub_folds_dict_for_dict():
    assert _cluster_state(None) == _cluster_state(STREAMING)


def test_streaming_mode_constructs_streaming_hub():
    scale = SCALES["unit"].with_overrides(telemetry=STREAMING)
    cluster, _service = runner.build_cluster("hdsearch", scale, seed=0)
    assert isinstance(cluster.telemetry, StreamingTelemetry)
    cluster.shutdown()
    cluster, _service = runner.build_cluster("hdsearch", "unit", seed=0)
    assert type(cluster.telemetry) is Telemetry
    cluster.shutdown()


def test_socialnet_graph_cell_bit_identical():
    buffered = measure_graph_cell(
        exemplar_graph(n_queries=100), qps=800.0, seed=0, queries=300
    )
    streaming = measure_graph_cell(
        exemplar_graph(n_queries=100), qps=800.0, seed=0, queries=300,
        telemetry=STREAMING,
    )
    assert buffered.completed > 0
    assert asdict(buffered) == asdict(streaming)


def test_hedged_retried_cell_bit_identical():
    kw = dict(
        scale="unit", seed=0, duration_us=150_000.0,
        faults=slowdown_plan(0.05), tail_policy=DEFAULT_TAIL_POLICY,
    )
    buffered = characterize("hdsearch", 1500.0, **kw)
    streaming = characterize("hdsearch", 1500.0, telemetry=STREAMING, **kw)
    tail = buffered.extras["tail"]
    # The policy must genuinely actuate or this cell pins nothing.
    assert tail["hedges_sent"] + tail["retries_sent"] > 0
    assert tail == streaming.extras["tail"]
    assert _hist_state(buffered.e2e) == _hist_state(streaming.e2e)
    assert buffered.syscalls_per_query == streaming.syscalls_per_query
    assert buffered.extras["counters"] == streaming.extras["counters"]


def _controlled_point(telemetry_config):
    from dataclasses import replace

    from repro.control import ControlConfig

    base = SCALES["unit"]
    scale = base.with_overrides(
        topology=replace(base.topology, midtier_replicas=1),
        lb=replace(base.lb, policy="round-robin"),
        control=ControlConfig(
            enabled=True, policy="threshold", tick_us=10_000.0,
            window_us=10_000.0, min_replicas=1, max_replicas=3,
            initial_replicas=1, p99_high_us=400.0, p99_low_us=100.0,
            cooldown_us=20_000.0,
        ),
    )
    if telemetry_config is not None:
        scale = scale.with_overrides(telemetry=telemetry_config)
    cluster, service = runner.build_cluster("hdsearch", scale, seed=0)
    result = run_open_loop(
        cluster, service, qps=1500.0,
        duration_us=150_000.0, warmup_us=100_000.0,
    )
    stats = cluster.controllers[0].stats()
    state = telemetry_state(result.telemetry)
    cluster.shutdown()
    return state, stats


def test_controller_on_cell_bit_identical():
    # The controller reads the live windows tee during the run; streaming
    # keeps that tee (with bounded retention), so the control decisions
    # — and through them the whole run — must match the buffered cell.
    buffered_state, buffered_stats = _controlled_point(None)
    streaming_state, streaming_stats = _controlled_point(STREAMING)
    assert buffered_stats["scale_ups"] > 0
    assert buffered_stats == streaming_stats
    assert buffered_state == streaming_state


# -- warm-up trim regression -------------------------------------------------

def test_warmup_trim_identical_across_modes():
    # warmup > 0 with the trim boundary mid-run: the buffered hub
    # discards everything recorded before open_window; the streaming
    # fold must discard exactly the same records via the stream marker.
    for warmup in (40_000.0, 95_000.0):
        buffered = _characterize_cell("router", warmup_us=warmup)
        streaming = _characterize_cell(
            "router", telemetry=STREAMING, warmup_us=warmup
        )
        assert buffered.completed > 0
        assert _hist_state(buffered.e2e) == _hist_state(streaming.e2e)
        assert buffered.syscalls_per_query == streaming.syscalls_per_query


def test_window_edges_share_the_grid():
    # Regression for the 1-ulp window-edge bug: for widths that are not
    # exactly representable, start + width can exceed (idx + 1) * width
    # by one ulp, making a window overlap both sides of a window-aligned
    # cut and double-counting in values_between.  Both edges now come
    # from the same grid expression.
    width = 4213.453988229764  # 5*width + width > 6*width by one ulp
    wm = WindowedMetrics(width, prefixes=("m",))
    wm.observe("m", 5.5 * width, 1.0)  # window 5, just before the cut
    wm.observe("m", 6.5 * width, 2.0)  # window 6, just after it
    cut = 6 * width  # a window-aligned cut between the two samples
    low = wm.values_between(["m"], 0.0, cut)
    high = wm.values_between(["m"], cut, 8 * width)
    assert low == [1.0] and high == [2.0]  # no sample lost, none double-counted


# -- bounded memory ----------------------------------------------------------

def _drive(telemetry: Telemetry, n_samples: int) -> None:
    """Feed a mixed probe load with an advancing clock (no simulator)."""
    clock = {"now": 0.0}
    telemetry.attach_clock(lambda: clock["now"])
    for i in range(n_samples):
        clock["now"] = i * 37.0
        telemetry.record("e2e_latency", 100.0 + (i % 97))
        telemetry.record_runqlat("mid", float(i % 13))
        telemetry.record_irq("mid", "net_rx", float(i % 7))
        telemetry.record_attributed("mid", "active_exe", float(i % 11))
        telemetry.count_syscall("mid", "futex")


def test_streaming_high_water_is_flat_while_buffered_grows():
    short, long = 2_000, 20_000  # the 10x-longer run

    buffered_short = Telemetry()
    _drive(buffered_short, short)
    buffered_long = Telemetry()
    _drive(buffered_long, long)
    # The buffered hub retains every raw sample (below reservoir cap):
    # 10x the run means 10x the resident telemetry.
    assert buffered_long.retained_samples() >= 9 * buffered_short.retained_samples()

    streaming_short = StreamingTelemetry(window_us=10_000.0)
    _drive(streaming_short, short)
    streaming_long = StreamingTelemetry(window_us=10_000.0)
    _drive(streaming_long, long)
    # Streaming keeps only the pending window: the peak is O(samples per
    # window), identical no matter how long the run gets.
    assert streaming_long.high_water_samples == streaming_short.high_water_samples
    assert streaming_long.high_water_samples < buffered_short.retained_samples()
    streaming_short.close()
    streaming_long.close()


def test_streaming_retained_samples_bounded_mid_run():
    telemetry = StreamingTelemetry(window_us=1_000.0)
    clock = {"now": 0.0}
    telemetry.attach_clock(lambda: clock["now"])
    peaks = []
    for i in range(10_000):
        clock["now"] = float(i)
        telemetry.record("h", float(i))
        if i % 1_000 == 999:
            peaks.append(telemetry.retained_samples())
    # Live retention never trends upward with run length.
    assert max(peaks) <= 2 * min(peaks)
    telemetry.close()
