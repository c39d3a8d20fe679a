"""Tests for distributed tracing: segment mechanics and end-to-end traces."""

import pytest

from repro.sim import Simulation
from repro.suite import SCALES, SimCluster, build_service
from repro.suite.cluster import run_open_loop
from repro.telemetry.tracing import Trace, Tracer


# -- segment mechanics -----------------------------------------------------------

def test_trace_records_and_breaks_down():
    trace = Trace(request_id=1, started_us=100.0)
    trace.add_segment("app_compute", "m", 100.0, 150.0)
    trace.add_segment("net", "m", 150.0, 160.0)
    trace.add_segment("app_compute", "m", 160.0, 170.0)
    assert [(s.category, s.start_us, s.end_us) for s in trace.segments] == [
        ("app_compute", 100.0, 150.0), ("net", 150.0, 160.0), ("app_compute", 160.0, 170.0),
    ]


def test_trace_begin_end_last():
    """An open segment (``end_us=None``) is closed by ``end_last``,
    newest first, and only within its own category."""
    trace = Trace(request_id=2, started_us=0.0)
    first = trace.add_segment("queue_dwell", "m", 10.0)
    trace.add_segment("queue_dwell", "m", 20.0)
    trace.add_segment("app_compute", "m", 22.0)
    assert first.end_us is None
    closed = trace.end_last("queue_dwell", 25.0)
    assert closed is not None and closed.start_us == 20.0
    closed = trace.end_last("queue_dwell", 30.0)
    assert closed is first and first.end_us == 30.0
    assert trace.end_last("queue_dwell", 40.0) is None


def test_tracer_sampling_rate():
    tracer = Tracer(sample_every=10)
    traces = [tracer.maybe_trace(i, 0.0, Simulation()) for i in range(100)]
    assert sum(1 for t in traces if t is not None) == 10


def test_tracer_bounds_storage():
    tracer = Tracer(sample_every=1, max_traces=5)
    for i in range(20):
        trace = tracer.maybe_trace(i, 0.0, Simulation())
        tracer.finish(trace, 10.0)
    assert len(tracer.finished) == 5


def test_tracer_validates_rate():
    with pytest.raises(ValueError):
        Tracer(sample_every=0)


# -- end-to-end traces through a real service ---------------------------------------

@pytest.fixture(scope="module")
def traced_run():
    cluster = SimCluster(seed=13)
    service = build_service("hdsearch", cluster, SCALES["unit"])
    tracer = Tracer(sample_every=5)
    run_open_loop(cluster, service, qps=400.0, duration_us=400_000,
                  warmup_us=100_000, tracer=tracer)
    return service, tracer


def test_traces_collected_at_sampling_rate(traced_run):
    _service, tracer = traced_run
    assert len(tracer.finished) > 10


def test_trace_spans_cover_the_pipeline(traced_run):
    service, tracer = traced_run
    trace = tracer.finished[0]
    mid = [seg.category for seg in trace.segments if seg.machine == service.midtier_name]
    assert "queue_dwell" in mid
    assert mid.count("app_compute") == 2  # the request path and the response path
    # Every leaf segment belongs to one of the service's leaf machines.
    leaf_machines = {leaf.machine.name for leaf in service.leaves}
    leaf = {seg.machine for seg in trace.segments if seg.category == "leaf_compute"}
    assert leaf and leaf <= leaf_machines


def test_trace_spans_timed_sanely(traced_run):
    service, tracer = traced_run
    mid = service.midtier_name
    for trace in tracer.finished:
        assert trace.finished_us > trace.started_us
        for seg in trace.segments:
            assert seg.end_us is not None
            assert seg.end_us >= seg.start_us
            assert seg.start_us >= trace.started_us - 1e-6
            assert seg.end_us <= trace.finished_us + 1e-6
        # The mid-tier's request and response paths are shorter than the
        # round trip: fabric hops precede and follow them.
        path = sum(
            seg.duration_us for seg in trace.segments
            if seg.category == "app_compute" and seg.machine == mid
        )
        assert path < trace.finished_us - trace.started_us
