"""Tests for distributed tracing: span mechanics and end-to-end traces."""

import pytest

from repro.sim import Simulation
from repro.suite import SCALES, SimCluster, build_service
from repro.suite.cluster import run_open_loop
from repro.telemetry.tracing import Trace, Tracer


# -- span mechanics --------------------------------------------------------------

def test_trace_records_and_breaks_down():
    trace = Trace(request_id=1, started_us=100.0)
    trace.record("a", "m", 100.0, 150.0)
    trace.record("b", "m", 150.0, 160.0)
    trace.record("a", "m", 160.0, 170.0)
    assert [(s.name, s.start_us, s.end_us) for s in trace.spans] == [
        ("a", 100.0, 150.0), ("b", 150.0, 160.0), ("a", 160.0, 170.0),
    ]


def test_trace_begin_end_last():
    trace = Trace(request_id=2, started_us=0.0)
    trace.begin("queue_wait", "m", 10.0)
    trace.begin("queue_wait", "m", 20.0)
    closed = trace.end_last("queue_wait", 25.0)
    assert closed is not None and closed.start_us == 20.0
    closed = trace.end_last("queue_wait", 30.0)
    assert closed is not None and closed.start_us == 10.0
    assert trace.end_last("queue_wait", 40.0) is None


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
    names = {span.name for span in trace.spans}
    assert "queue_wait" in names
    assert "request_path" in names
    assert "response_path" in names
    assert any(name.startswith("leaf:") for name in names)
    # Every leaf span belongs to one of the service's leaf machines.
    leaf_machines = {leaf.machine.name for leaf in service.leaves}
    for span in trace.spans:
        if span.name.startswith("leaf:"):
            assert span.machine in leaf_machines


def test_trace_spans_timed_sanely(traced_run):
    _service, tracer = traced_run
    for trace in tracer.finished:
        assert trace.finished_us > trace.started_us
        for span in trace.spans:
            assert span.end_us is not None
            assert span.end_us >= span.start_us
            assert span.start_us >= trace.started_us - 1e-6
            assert span.end_us <= trace.finished_us + 1e-6
        # The mid-tier's request path is shorter than the round trip:
        # fabric hops precede and follow it.
        path = sum(
            span.end_us - span.start_us
            for span in trace.spans if span.name == "request_path"
        )
        assert path < trace.finished_us - trace.started_us
