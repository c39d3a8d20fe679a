"""Property suites for the control plane's observation and policy layers.

Three invariants the autoscale gate leans on, proven under adversarial
inputs rather than the single trajectory the sweep happens to take:

* **windows concatenate losslessly** — merging the fixed-width metric
  windows back together reproduces the whole run's aggregates exactly
  (same count/sum/min/max, and ``rank_percentile`` over the concat equals
  :class:`LatencyHistogram` over the raw stream, the estimator the rest
  of the suite reports);
* **hysteresis cannot flap** — however the windowed p99 jumps around,
  two replica-count changes are never closer than the cooldown, and the
  target stays inside [min, max];
* **replica-seconds conserve** — the account's stepwise integral matches
  a brute-force reference on any event log, and splitting the horizon at
  any point loses nothing.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ControlConfig, make_control_policy
from repro.control.account import ReplicaSecondsAccount
from repro.control.policies import WindowSummary
from repro.telemetry import LatencyHistogram
from repro.telemetry.histogram import rank_percentile
from repro.telemetry.windows import WindowedMetrics

# -- windows: concat == whole run -------------------------------------------

SAMPLES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


@given(samples=SAMPLES, width_us=st.floats(min_value=1.0, max_value=2e5))
@settings(max_examples=150, deadline=None)
def test_window_concat_equals_whole_run_aggregates(samples, width_us):
    samples = sorted(samples)          # telemetry arrives in time order
    windows = WindowedMetrics(width_us=width_us)
    hist = LatencyHistogram()
    for t, value in samples:
        windows.observe("sig", t, value)
        hist.record(value)
    spans = windows.windows("sig")
    values = [v for _, v in samples]
    # Lossless binning: counts, sums, extremes all reassemble exactly.
    assert sum(w.count for w in spans) == len(values)
    assert math.isclose(
        sum(w.total for w in spans), sum(values), rel_tol=0, abs_tol=1e-6
    )
    assert min(w.min for w in spans) == min(values)
    assert max(w.max for w in spans) == max(values)
    # Concatenation reproduces the stream, and the windowed percentile
    # estimator agrees with the whole-run histogram bit-for-bit.
    concat = windows.values_between(["sig"], 0.0, 1e18)
    assert concat == values
    for pct in (50.0, 95.0, 99.0):
        assert rank_percentile(sorted(concat), pct) == hist.percentile(pct)


@given(samples=SAMPLES, width_us=st.floats(min_value=1.0, max_value=2e5))
@settings(max_examples=100, deadline=None)
def test_window_slices_partition_the_run(samples, width_us):
    samples = sorted(samples)
    windows = WindowedMetrics(width_us=width_us)
    for t, value in samples:
        windows.observe("sig", t, value)
    horizon = samples[-1][0] + width_us
    cut = horizon / 3.0
    # Slicing at a window-aligned cut partitions the run: every sample
    # lands in exactly one side.
    aligned = math.floor(cut / width_us) * width_us
    left = windows.values_between(["sig"], 0.0, aligned)
    right = windows.values_between(["sig"], aligned, horizon)
    assert left + right == [v for _, v in samples]


# -- hysteresis: no flapping faster than the cooldown -----------------------

ADVERSARIAL_P99 = st.lists(
    st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
    ),
    min_size=1,
    max_size=120,
)


@given(
    p99s=ADVERSARIAL_P99,
    gaps=st.lists(
        st.floats(min_value=1.0, max_value=40_000.0), min_size=120, max_size=120
    ),
    cooldown=st.floats(min_value=0.0, max_value=200_000.0),
    policy_name=st.sampled_from(["threshold", "additive"]),
    step=st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_hysteresis_respects_cooldown_and_bounds(
    p99s, gaps, cooldown, policy_name, step
):
    config = ControlConfig(
        enabled=True,
        policy=policy_name,
        min_replicas=1,
        max_replicas=5,
        initial_replicas=1,
        p99_high_us=5_000.0,
        p99_low_us=2_000.0,
        inflight_high=8.0,
        inflight_low=2.0,
        cooldown_us=cooldown,
        step=step,
    )
    policy = make_control_policy(config)
    active = config.initial_replicas
    now = 0.0
    change_times = []
    for i, p99 in enumerate(p99s):
        now += gaps[i]
        value = 0.0 if p99 is None else p99
        summary = WindowSummary(
            p99_us=p99,
            mean_runq_us=None,
            inflight=value,                # drives the additive policy
            inflight_per_replica=value / max(1, active),
            samples=0 if p99 is None else 1,
        )
        action = policy.decide(summary, now, active)
        assert config.min_replicas <= action.target_active <= config.max_replicas
        # One decision moves at most one step.
        assert abs(action.target_active - active) <= step
        if action.target_active != active:
            change_times.append(now)
            active = action.target_active
    # The anti-flapping contract: consecutive replica changes are never
    # closer than the cooldown, no matter how the signal thrashes.
    for earlier, later in zip(change_times, change_times[1:]):
        assert later - earlier >= cooldown


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_static_policy_never_actuates(data):
    config = ControlConfig(
        enabled=True, policy="static", min_replicas=1,
        max_replicas=4, initial_replicas=2,
    )
    policy = make_control_policy(config)
    active = 2
    now = 0.0
    for _ in range(data.draw(st.integers(1, 50))):
        now += data.draw(st.floats(min_value=1.0, max_value=1e5))
        p99 = data.draw(st.floats(min_value=0.0, max_value=1e6))
        summary = WindowSummary(
            p99_us=p99, mean_runq_us=p99, inflight=p99,
            inflight_per_replica=p99, samples=1,
        )
        action = policy.decide(summary, now, active)
        assert action.target_active == active
        assert action.mode == "hold"


# -- replica-seconds: exact, additive accounting ----------------------------

EVENT_LOGS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(0, 8),
    ),
    max_size=60,
)


def _reference_integral(events, until_us):
    """O(n) brute force: count at t is that of the latest event <= t."""
    total = 0.0
    for (t0, n0), (t1, _) in zip(events, events[1:]):
        total += n0 * (max(0.0, min(t1, until_us) - t0))
    last_t, last_n = events[-1]
    total += last_n * max(0.0, until_us - last_t)
    return total / 1e6


@given(log=EVENT_LOGS, initial=st.integers(0, 4), horizon_frac=st.floats(0.0, 1.5))
@settings(max_examples=200, deadline=None)
def test_replica_seconds_match_reference(log, initial, horizon_frac):
    log = sorted(log)                   # account requires time order
    account = ReplicaSecondsAccount(0.0, initial)
    for t, n in log:
        account.note(t, n)
    end = max([t for t, _ in log], default=0.0) + 10.0
    until = end * horizon_frac if end > 0 else 0.0
    expected = _reference_integral(account.events, until)
    assert math.isclose(account.total(until), expected, rel_tol=0, abs_tol=1e-12)


@given(log=EVENT_LOGS, initial=st.integers(0, 4), split_frac=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_replica_seconds_split_conserves(log, initial, split_frac):
    # total(T) == total(m) + (integral over [m, T]) for any split m:
    # billing a window (the sweep's accounting) never gains or loses
    # replica-seconds relative to billing the whole run.
    log = sorted(log)
    account = ReplicaSecondsAccount(0.0, initial)
    for t, n in log:
        account.note(t, n)
    end = max([t for t, _ in log], default=0.0) + 10.0
    mid = end * split_frac
    whole = account.total(end)
    left = account.total(mid)
    right = whole - left
    assert math.isclose(
        left + right, whole, rel_tol=0, abs_tol=1e-12
    )
    # And the window integral matches the reference over [mid, end].
    ref = _reference_integral(account.events, end) - _reference_integral(
        account.events, mid
    )
    assert math.isclose(right, ref, rel_tol=0, abs_tol=1e-9)


def test_account_rejects_time_travel_and_negative_counts():
    account = ReplicaSecondsAccount(100.0, 2)
    account.note(200.0, 3)
    try:
        account.note(150.0, 1)
    except ValueError:
        pass
    else:  # pragma: no cover - the guard must fire
        raise AssertionError("out-of-order note() must raise")
    try:
        account.note(300.0, -1)
    except ValueError:
        pass
    else:  # pragma: no cover - the guard must fire
        raise AssertionError("negative count must raise")
    assert account.current_count == 3
