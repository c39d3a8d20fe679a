"""Critical-path attribution: tiling invariants and aggregate consistency.

The engine's contract (repro.telemetry.critpath) is that every finished
trace's round trip is tiled *exactly* — the per-category durations sum to
``finished_us - started_us`` with no gaps and no overlaps, whatever
segments were stamped onto the trace.  Hypothesis generates
adversarial segment soups (overlapping, nested, out of range, losing
hedge ids) and the properties below must hold for all of them.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import critpath
from repro.telemetry.critpath import CATEGORIES, aggregate, attribute, tail_exemplars
from repro.telemetry.tracing import Trace

# -- synthetic trace generation ---------------------------------------------

TOTAL_US = 1_000.0

# Categories the kernel layers stamp (the residual covers the rest).
SEGMENT_CATEGORIES = tuple(c for c in CATEGORIES if c != "app_compute")

segments = st.lists(
    st.tuples(
        st.sampled_from(SEGMENT_CATEGORIES),
        st.sampled_from(("mid0", "leaf1", "client")),
        # Start/width may push the interval outside [0, TOTAL_US]; the
        # engine must clip rather than inflate the tiling.
        st.floats(min_value=-200.0, max_value=TOTAL_US + 100.0),
        st.floats(min_value=0.0, max_value=400.0),
        st.sampled_from((None, 7, 8)),
    ),
    max_size=12,
)

# The RPC server's segments; a None width leaves one open, as a dwell
# no worker dequeued stays, and the tiling skips it.
server_segments = st.lists(
    st.tuples(
        st.sampled_from(("leaf_compute", "queue_dwell", "app_compute")),
        st.floats(min_value=0.0, max_value=TOTAL_US),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=300.0)),
    ),
    max_size=6,
)


def make_trace(seg_specs, server_specs, winners=frozenset()):
    trace = Trace(request_id=1, started_us=0.0)
    for category, machine, start, width, request_id in seg_specs:
        trace.add_segment(category, machine, start, start + width,
                          request_id=request_id)
    for category, start, width in server_specs:
        trace.add_segment(category, "mid0", start,
                          None if width is None else start + width)
    for winner in winners:
        trace.note_winner(winner)
    trace.finished_us = TOTAL_US
    return trace


# -- tiling properties -------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seg_specs=segments, server_specs=server_segments)
def test_segments_tile_wall_clock_exactly(seg_specs, server_specs):
    attr = attribute(make_trace(seg_specs, server_specs))
    assert math.isclose(sum(attr.categories.values()), attr.total_us,
                        rel_tol=0.0, abs_tol=1e-6)
    assert attr.tiling_error_us <= 1e-6


@settings(max_examples=200, deadline=None)
@given(seg_specs=segments, server_specs=server_segments)
def test_no_negative_or_unknown_categories(seg_specs, server_specs):
    attr = attribute(make_trace(seg_specs, server_specs))
    for category, us in attr.categories.items():
        assert category in CATEGORIES
        assert us >= 0.0


@settings(max_examples=200, deadline=None)
@given(seg_specs=segments, server_specs=server_segments)
def test_by_machine_splits_the_same_microseconds(seg_specs, server_specs):
    attr = attribute(make_trace(seg_specs, server_specs))
    per_category = {}
    for (machine, category), us in attr.by_machine.items():
        assert us >= 0.0
        per_category[category] = per_category.get(category, 0.0) + us
    for category in set(attr.categories) | set(per_category):
        assert math.isclose(per_category.get(category, 0.0),
                            attr.categories.get(category, 0.0),
                            rel_tol=0.0, abs_tol=1e-6)


@settings(max_examples=200, deadline=None)
@given(seg_specs=segments, server_specs=server_segments, winners=st.sets(st.sampled_from((7, 8))))
def test_winner_filter_never_breaks_tiling(seg_specs, server_specs, winners):
    attr = attribute(make_trace(seg_specs, server_specs, winners=winners))
    assert attr.tiling_error_us <= 1e-6


# -- deterministic corner cases ---------------------------------------------

def test_empty_trace_is_all_app_compute():
    attr = attribute(make_trace([], []))
    assert attr.categories == {"app_compute": TOTAL_US}
    assert attr.by_machine == {("-", "app_compute"): TOTAL_US}
    assert attr.dominant == "app_compute"


def test_priority_ladder_resolves_overlaps():
    # hardirq over net_rx over active_exe over net on the same interval.
    trace = make_trace(
        [
            ("net", "client", 0.0, 400.0, None),
            ("active_exe", "mid0", 100.0, 200.0, None),
            ("net_rx", "mid0", 150.0, 100.0, None),
            ("hardirq", "mid0", 150.0, 50.0, None),
        ],
        [],
    )
    attr = attribute(trace)
    # [150,200] hardirq beats all; [200,250] net_rx beats active_exe/net;
    # [100,150]+[250,300] fall to active_exe; [0,100]+[300,400] to net.
    assert attr.categories["hardirq"] == pytest.approx(50.0)
    assert attr.categories["net_rx"] == pytest.approx(50.0)
    assert attr.categories["active_exe"] == pytest.approx(100.0)
    assert attr.categories["net"] == pytest.approx(200.0)
    assert attr.categories["app_compute"] == pytest.approx(TOTAL_US - 400.0)


def test_losing_hedge_intervals_are_dropped():
    losing = [("active_exe", "leaf1", 100.0, 200.0, 8)]
    winning = [("active_exe", "leaf1", 100.0, 200.0, 7)]
    with_winner = attribute(make_trace(losing + winning, [], winners={7}))
    assert with_winner.categories["active_exe"] == pytest.approx(200.0)
    only_loser = attribute(make_trace(losing, [], winners={7}))
    assert "active_exe" not in only_loser.categories
    # With no hedging recorded, every sub-request counts.
    no_winners = attribute(make_trace(losing, []))
    assert no_winners.categories["active_exe"] == pytest.approx(200.0)


def test_unfinished_trace_is_rejected():
    trace = Trace(request_id=3, started_us=0.0)
    with pytest.raises(ValueError, match="not finished"):
        attribute(trace)


# -- aggregate vs per-request consistency -----------------------------------

@settings(max_examples=50, deadline=None)
@given(specs=st.lists(st.tuples(segments, server_segments), min_size=1, max_size=5))
def test_aggregate_equals_sum_of_per_request(specs):
    attrs = [attribute(make_trace(s, p)) for s, p in specs]
    totals = aggregate(attrs)
    assert set(totals) == set(CATEGORIES)
    for category in CATEGORIES:
        expected = sum(a.categories.get(category, 0.0) for a in attrs)
        assert math.isclose(totals[category], expected,
                            rel_tol=0.0, abs_tol=1e-6)
    assert math.isclose(sum(totals.values()),
                        sum(a.total_us for a in attrs),
                        rel_tol=0.0, abs_tol=1e-6)


def test_tail_exemplars_sorted_and_deterministic():
    traces = []
    for request_id, total in ((4, 300.0), (2, 500.0), (9, 500.0), (5, 100.0)):
        trace = Trace(request_id=request_id, started_us=0.0)
        trace.finished_us = total
        traces.append(trace)
    exemplars = tail_exemplars(traces, k=3)
    # Slowest first; the 500us tie breaks by request id.
    assert [e["request_id"] for e in exemplars] == [2, 9, 4]
    assert all(set(e["categories"]) == set(CATEGORIES) for e in exemplars)
    assert exemplars == tail_exemplars(list(reversed(traces)), k=3)


# -- end to end: a measured cell obeys the same invariants -------------------

@pytest.fixture(scope="module")
def traced_cell():
    from repro.experiments.trace_sweep import measure_trace_cell

    return measure_trace_cell("hdsearch", "unit", qps=1_000.0, queries=200)


def test_measured_cell_tiles_exactly(traced_cell):
    assert traced_cell.traces > 0
    assert traced_cell.max_tiling_error_us <= 1e-6


def test_measured_cell_shares_sum_to_one(traced_cell):
    assert sum(traced_cell.category_share.values()) == pytest.approx(1.0)
    assert set(traced_cell.category_share) <= set(CATEGORIES)


def test_measured_cell_crosscheck_is_exact(traced_cell):
    # Every traced request (sample_every=1, warmup 0) means per-trace
    # kernel stamps must reproduce the telemetry histograms exactly.
    for category in ("hardirq", "net_rx", "net_tx", "active_exe"):
        assert traced_cell.crosscheck[category]["rel_err"] <= 0.01
    # Coverage of the full runqueue-wait histogram is reported but NOT a
    # tolerance: idle-timeout re-wakes are runqueue waits no request drove.
    assert "active_exe_runqlat" in traced_cell.crosscheck
