"""Tests for telemetry probes and the latency histogram."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import seeded_py
from repro.telemetry import (
    IRQ_KINDS,
    LatencyHistogram,
    MetricWindow,
    StreamingTelemetry,
    Telemetry,
    WindowedMetrics,
)
from repro.telemetry.histogram import rank_percentile


# -- LatencyHistogram -----------------------------------------------------------

def test_histogram_basic_stats():
    hist = LatencyHistogram()
    hist.extend([1.0, 2.0, 3.0, 4.0])
    assert hist.count == 4
    assert hist.mean == 2.5
    assert hist.min == 1.0 and hist.max == 4.0


def test_histogram_percentiles_exact_when_small():
    hist = LatencyHistogram()
    hist.extend(float(i) for i in range(101))
    assert hist.percentile(0) == 0.0
    assert hist.percentile(50) == 50.0
    assert hist.percentile(100) == 100.0
    assert hist.median == 50.0


def test_histogram_percentile_interpolates():
    hist = LatencyHistogram()
    hist.extend([0.0, 10.0])
    assert hist.percentile(50) == 5.0


def test_histogram_empty():
    hist = LatencyHistogram()
    assert hist.mean == 0.0
    assert hist.percentile(99) == 0.0
    assert len(hist) == 0


def test_histogram_percentile_range_validated():
    hist = LatencyHistogram()
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-1)


def test_histogram_reservoir_bounds_memory():
    hist = LatencyHistogram(reservoir_size=100)
    hist.extend(float(i) for i in range(10_000))
    assert hist.count == 10_000
    assert len(hist.samples()) == 100
    # Exact stats still exact.
    assert hist.min == 0.0 and hist.max == 9999.0


def test_histogram_reservoir_approximates_percentiles():
    hist = LatencyHistogram(reservoir_size=2_000, seed=1)
    hist.extend(float(i % 1000) for i in range(50_000))
    assert abs(hist.median - 500.0) < 60.0


def test_histogram_summary_keys():
    hist = LatencyHistogram()
    hist.extend([5.0] * 10)
    summary = hist.summary(percentiles=(50, 99))
    assert set(summary) == {"count", "mean", "min", "max", "p50", "p99"}


def test_histogram_rejects_bad_reservoir():
    with pytest.raises(ValueError):
        LatencyHistogram(reservoir_size=0)


@pytest.mark.parametrize("size", [0, -1])
def test_telemetry_rejects_reservoir_below_one_at_construction(size):
    with pytest.raises(ValueError, match="reservoir_size"):
        Telemetry(reservoir_size=size)
    with pytest.raises(ValueError, match="reservoir_size"):
        StreamingTelemetry(reservoir_size=size)


# -- unboxed storage against a list-backed reference ---------------------------

class _ListHistogram:
    """The reservoir histogram over a plain list of Python numbers: buffer
    until full, then seal and replace per sample with an RNG made up front."""

    def __init__(self, reservoir_size, seed=0):
        self.reservoir_size = reservoir_size
        self.rng = seeded_py(seed)
        self.samples = []
        self.sampling = False
        self.count, self.total, self.min, self.max = 0, 0.0, None, None

    def record(self, value):
        if not self.sampling:
            self.samples.append(value)
            if len(self.samples) >= self.reservoir_size:
                self.count, self.total = len(self.samples), sum(self.samples)
                self.min, self.max = min(self.samples), max(self.samples)
                self.sampling = True
            return
        self.count += 1
        self.total += value
        self.min, self.max = min(self.min, value), max(self.max, value)
        slot = self.rng.randrange(self.count)
        if slot < self.reservoir_size:
            self.samples[slot] = value

    def stats(self):
        if self.sampling:
            return self.count, self.total, self.min, self.max
        held = self.samples
        return (len(held), sum(held), min(held) if held else None,
                max(held) if held else None)


def _check_against(hist, ref):
    assert (hist.count, hist.total, hist.min, hist.max) == ref.stats()
    samples = hist.samples()
    assert type(samples) is list and samples == ref.samples
    assert all(type(value) is float for value in samples)
    ordered = sorted(ref.samples)
    for pct in (0, 25, 50, 90, 99, 100):
        assert hist.percentile(pct) == rank_percentile(ordered, pct)


STREAM = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12),
    max_size=80,
)


@given(first=STREAM, second=STREAM, reservoir=st.integers(1, 12), seed=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_unboxed_histogram_matches_list_reference(first, second, reservoir, seed):
    hist = LatencyHistogram(reservoir, seed=seed)
    ref = _ListHistogram(reservoir, seed=seed)
    for value in first:
        hist.record(value)
        ref.record(value)
    _check_against(hist, ref)

    other = LatencyHistogram(reservoir, seed=seed)
    other.extend(second)
    merged = LatencyHistogram.merged([hist, other], reservoir_size=reservoir + 3)
    ref_merged = _ListHistogram(reservoir + 3)
    other_ref = _ListHistogram(reservoir, seed=seed)
    for value in second:
        other_ref.record(value)
    for value in ref.samples + other_ref.samples:
        ref_merged.record(value)
    _check_against(merged, ref_merged)

    # A reset histogram replays a stream exactly like a fresh one.
    hist.reset()
    fresh = _ListHistogram(reservoir, seed=seed)
    hist.extend(second)
    for value in second:
        fresh.record(value)
    _check_against(hist, fresh)


@given(values=STREAM)
@settings(max_examples=100, deadline=None)
def test_unboxed_metric_window_matches_list_reference(values):
    window = MetricWindow(index=0, start_us=0.0, end_us=1.0)
    for value in values:
        window.observe(value)
    total = 0.0
    for value in values:
        total += value
    assert (window.count, window.total) == (len(values), total)
    assert (window.min, window.max) == (
        (min(values), max(values)) if values else (None, None))
    assert list(window.samples) == values
    for pct in (0, 50, 99, 100):
        assert window.percentile(pct) == rank_percentile(sorted(values), pct)
    metrics = WindowedMetrics(width_us=1.0)
    for value in values:
        metrics.observe("s", 0.5, value)
    between = metrics.values_between(["s"], 0.0, 1.0)
    assert type(between) is list and between == values
    assert all(type(value) is float for value in between)


# -- resident memory per retained sample ---------------------------------------

_ONE_MIB = 1 << 20


def _traced_growth(fill) -> int:
    """Bytes still allocated after ``fill()``, counted by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep = fill()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del keep
    return grown


def test_histogram_retains_100k_samples_in_under_one_mib():
    # 8 bytes per sample is 0.76 MiB; a list of float objects held 3.05 MiB.
    def fill():
        hist = LatencyHistogram()
        for i in range(100_000):
            hist.record(i * 1.5)
        return hist

    assert _traced_growth(fill) < _ONE_MIB


def test_percentile_sort_cache_is_unboxed_too():
    def fill():
        hist = LatencyHistogram()
        for i in range(100_000):
            hist.record(i * 1.5)
        hist.percentile(99)
        return hist

    assert _traced_growth(fill) < 2 * _ONE_MIB


def test_tee_window_retains_100k_samples_in_under_one_mib():
    def fill():
        metrics = WindowedMetrics(width_us=1e9)
        for i in range(100_000):
            metrics.observe("runqlat:m", 0.0, i * 1.5)
        return metrics

    assert _traced_growth(fill) < _ONE_MIB


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_histogram_percentiles_monotonic(values):
    hist = LatencyHistogram()
    hist.extend(values)
    pcts = [hist.percentile(p) for p in (0, 25, 50, 75, 90, 99, 100)]
    assert pcts == sorted(pcts)
    assert pcts[0] >= hist.min and pcts[-1] <= hist.max


# -- Telemetry -----------------------------------------------------------------

def _telemetry(now=(0.0,)):
    t = Telemetry()
    state = {"now": 0.0}
    t.attach_clock(lambda: state["now"])
    return t, state


def test_syscall_counting_per_machine():
    t, _ = _telemetry()
    t.count_syscall("mid", "futex")
    t.count_syscall("mid", "futex")
    t.count_syscall("leaf", "read")
    assert t.syscall_counts("mid")["futex"] == 2
    assert t.syscall_counts("leaf")["read"] == 1
    assert t.syscall_counts("other") == {}


def test_window_trims_earlier_records():
    t, state = _telemetry()
    t.count_syscall("m", "futex")
    t.record_runqlat("m", 5.0)
    state["now"] = 100.0
    t.open_window(50.0)
    assert t.syscall_counts("m")["futex"] == 0
    assert "m" not in t.runqlat
    t.count_syscall("m", "futex")
    assert t.syscall_counts("m")["futex"] == 1


def test_records_before_window_start_ignored():
    t, state = _telemetry()
    t.open_window(50.0)
    state["now"] = 10.0  # before the window opens
    t.count_syscall("m", "futex")
    t.record_runqlat("m", 5.0)
    t.count_context_switch("m")
    t.count_hitm("m")
    t.count_retransmission()
    assert t.syscall_counts("m")["futex"] == 0
    assert t.context_switches["m"] == 0
    assert t.hitm["m"] == 0
    assert t.retransmissions == 0


def test_irq_kinds_validated():
    t, _ = _telemetry()
    for kind in IRQ_KINDS:
        t.record_irq("m", kind, 1.0)
    with pytest.raises(ValueError):
        t.record_irq("m", "bogus", 1.0)


def test_irq_hist_accumulates():
    t, _ = _telemetry()
    t.record_irq("m", "net_rx", 3.0)
    t.record_irq("m", "net_rx", 5.0)
    assert t.irq_hist("m", "net_rx").count == 2
    assert t.irq_hist("m", "hardirq").count == 0


def test_named_histograms_and_counters():
    t, _ = _telemetry()
    t.record("e2e", 100.0)
    t.record("e2e", 200.0)
    t.incr("completed", 2)
    assert t.hist("e2e").count == 2
    assert t.counters["completed"] == 2


def test_hitm_counts_batches():
    t, _ = _telemetry()
    t.count_hitm("m", 5)
    t.count_hitm("m")
    assert t.hitm["m"] == 6
