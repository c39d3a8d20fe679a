"""Property proofs for the streaming-telemetry fold.

Three algebraic facts make the streaming pipeline trustworthy:

* **Window-fold associativity** — where the flush boundaries fall must
  not matter.  Folding the same sample sequence spilled at *any* window
  width reproduces the buffered hub, so any two widths agree with each
  other.
* **Histogram merge commutativity** — merging per-window sample lists
  into one histogram gives the same count/total/min/max regardless of
  which machine's windows are folded first (values are kept integral so
  float addition is exact and order-free).
* **No loss, no double count** — across arbitrary flush boundaries,
  including samples landing exactly on window edges, every recorded
  sample appears in the folded aggregates exactly once, and the stream
  footer's integrity counts match what is actually in the stream.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    LatencyHistogram,
    StreamingTelemetry,
    Telemetry,
    fold_stream,
)

# Values are integral floats: sums stay exact in IEEE doubles, so totals
# are bit-equal no matter the addition order and the properties below
# are genuine equalities, not tolerance checks.
VALUES = st.integers(min_value=0, max_value=10_000).map(float)

#: (time-delta, value) steps; deltas keep the clock monotone.
STEPS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=5_000.0,
                        allow_nan=False, allow_infinity=False), VALUES),
    min_size=1, max_size=120,
)

MACHINES = ("mid", "leaf0", "leaf1")


def _drive(telemetry: Telemetry, steps) -> None:
    """Replay one step sequence through every probe family."""
    clock = {"now": 0.0}
    telemetry.attach_clock(lambda: clock["now"])
    for i, (delta, value) in enumerate(steps):
        clock["now"] += delta
        machine = MACHINES[i % len(MACHINES)]
        telemetry.record("e2e_latency", value)
        telemetry.record_runqlat(machine, value)
        telemetry.record_irq(machine, "net_rx", value)
        telemetry.record_attributed(machine, "active_exe", value)
        telemetry.count_syscall(machine, "futex")
        telemetry.count_context_switch(machine)
        telemetry.incr("queries")


def _state(t: Telemetry) -> dict:
    def hist_state(h):
        return (h.count, h.total, h.min, h.max, tuple(h.samples()))

    return {
        "syscalls": {m: dict(c) for m, c in t.syscalls.items()},
        "runqlat": {m: hist_state(h) for m, h in t.runqlat.items()},
        "irq": {k: hist_state(h) for k, h in t.irq_latency.items()},
        "ctx": dict(t.context_switches),
        "attributed": dict(t.attributed),
        "attributed_counts": dict(t.attributed_counts),
        "hists": {n: hist_state(h) for n, h in t.histograms.items()},
        "counters": dict(t.counters),
    }


@settings(max_examples=30, deadline=None)
@given(steps=STEPS, width=st.sampled_from([1.0, 97.0, 1_000.0, 12_345.6789]))
def test_fold_reproduces_buffered_at_any_window_width(steps, width):
    # Associativity of the window fold: however the sample sequence is
    # cut into windows, the fold equals the buffered hub — hence any two
    # widths equal each other.
    buffered = Telemetry()
    _drive(buffered, steps)
    streaming = StreamingTelemetry(window_us=width)
    try:
        _drive(streaming, steps)
        folded = streaming.finalized()
        assert _state(folded) == _state(buffered)
    finally:
        streaming.close()


@settings(max_examples=30, deadline=None)
@given(steps=STEPS, warmup=st.floats(min_value=0.0, max_value=50_000.0,
                                     allow_nan=False, allow_infinity=False))
def test_warmup_trim_commutes_with_flushing(steps, warmup):
    # open_window at an arbitrary instant (possibly mid-window) must
    # discard exactly the same prefix in both modes.
    def drive_with_trim(telemetry):
        clock = {"now": 0.0}
        telemetry.attach_clock(lambda: clock["now"])
        opened = False
        for i, (delta, value) in enumerate(steps):
            clock["now"] += delta
            if not opened and clock["now"] >= warmup:
                telemetry.open_window(clock["now"])
                opened = True
            telemetry.record("e2e_latency", value)
            telemetry.record_runqlat(MACHINES[i % 3], value)
            telemetry.incr("queries")

    buffered = Telemetry()
    drive_with_trim(buffered)
    streaming = StreamingTelemetry(window_us=500.0)
    try:
        drive_with_trim(streaming)
        folded = streaming.finalized()
        assert _state(folded) == _state(buffered)
    finally:
        streaming.close()


@settings(max_examples=40, deadline=None)
@given(
    per_machine=st.lists(
        st.lists(VALUES, min_size=0, max_size=40), min_size=2, max_size=4
    ),
    order=st.randoms(use_true_random=False),
)
def test_histogram_merge_commutative(per_machine, order):
    # Merging per-window sample lists is commutative in the exact
    # aggregates: count, total (integral values — exact addition),
    # min and max do not depend on merge order.
    def merge(lists):
        hist = LatencyHistogram(reservoir_size=1_000_000)
        for values in lists:
            hist.extend(values)
        return hist

    forward = merge(per_machine)
    shuffled = list(per_machine)
    order.shuffle(shuffled)
    merged = merge(shuffled)
    assert merged.count == forward.count
    assert merged.total == forward.total
    assert merged.min == forward.min
    assert merged.max == forward.max


@settings(max_examples=30, deadline=None)
@given(steps=STEPS, width=st.sampled_from([1.0, 250.0, 4_096.0]))
def test_no_sample_loss_no_double_count(steps, width):
    # Conservation across arbitrary flush boundaries: every recorded
    # sample lands in the folded aggregates exactly once.
    streaming = StreamingTelemetry(window_us=width)
    try:
        _drive(streaming, steps)
        folded = streaming.finalized()
        n = len(steps)
        assert folded.hist("e2e_latency").count == n
        assert sum(h.count for h in folded.runqlat.values()) == n
        assert sum(h.count for h in folded.irq_latency.values()) == n
        assert sum(folded.attributed_counts.values()) == n
        assert sum(sum(c.values()) for c in folded.syscalls.values()) == n
        assert sum(folded.context_switches.values()) == n
        assert folded.counters["queries"] == n
    finally:
        streaming.close()


def test_samples_on_exact_window_edges_counted_once(tmp_path):
    # The adversarial boundary case: every sample lands exactly on a
    # window edge (now == k * width), where an off-by-one in the roll
    # logic would drop or double a window.
    width = 100.0
    spill = tmp_path / "edges.jsonl"
    streaming = StreamingTelemetry(window_us=width, spill_path=str(spill))
    clock = {"now": 0.0}
    streaming.attach_clock(lambda: clock["now"])
    for k in range(25):
        clock["now"] = k * width
        streaming.record("h", float(k))
    folded = streaming.finalized()
    hist = folded.hist("h")
    assert hist.count == 25
    assert sorted(hist.samples()) == [float(k) for k in range(25)]


def test_footer_integrity_counts_match_stream(tmp_path):
    spill = tmp_path / "stream.jsonl"
    streaming = StreamingTelemetry(window_us=50.0, spill_path=str(spill))
    _drive(streaming, [(30.0, float(v)) for v in range(40)])
    streaming.finalized()

    records = [json.loads(line) for line in spill.read_text().splitlines()]
    assert records[0]["t"] == "header"
    footer = records[-1]
    assert footer["t"] == "end"
    windows = [r for r in records if r["t"] == "w"]
    assert footer["windows"] == len(windows)
    sample_keys = ("runqlat", "irq", "attributed", "hist")
    streamed = 0
    for record in windows:
        for key in sample_keys:
            for group in record.get(key, {}).values():
                if isinstance(group, dict):  # irq/attributed nest one deeper
                    streamed += sum(len(v) for v in group.values())
                else:
                    streamed += len(group)
    assert footer["samples"] == streamed

    # And the stream round-trips through the standalone folder.
    folded = fold_stream(str(spill))
    assert folded.hist("e2e_latency").count == 40
