"""Unit tests for the discrete-event simulation kernel."""

import math
from types import SimpleNamespace

import pytest

from repro.net.fabric import LinkSpec
from repro.sim import Event, Lane, Process, Simulation, Timeout
from repro.sim import core
from repro.sim.core import SimulationError


def test_clock_starts_at_zero():
    sim = Simulation()
    assert sim.now == 0.0


def test_call_in_executes_in_time_order():
    sim = Simulation()
    seen = []
    sim.call_in(5.0, seen.append, "b")
    sim.call_in(1.0, seen.append, "a")
    sim.call_in(9.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_callbacks_run_in_insertion_order():
    sim = Simulation()
    seen = []
    for tag in range(10):
        sim.call_in(3.0, seen.append, tag)
    sim.run()
    assert seen == list(range(10))


def test_run_until_stops_clock_at_bound():
    sim = Simulation()
    seen = []
    sim.call_in(2.0, seen.append, "early")
    sim.call_in(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["early", "late"]


def test_cannot_schedule_in_the_past():
    sim = Simulation()
    sim.call_in(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_cancelled_call_does_not_run():
    sim = Simulation()
    seen = []
    handle = sim.call_in(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_pending_counts_live_entries():
    sim = Simulation()
    a = sim.call_in(1.0, lambda: None)
    sim.call_in(2.0, lambda: None)
    assert sim.pending() == 2
    a.cancel()
    assert sim.pending() == 1


def test_step_executes_one_callback():
    sim = Simulation()
    seen = []
    sim.call_in(1.0, seen.append, 1)
    sim.call_in(2.0, seen.append, 2)
    assert sim.step()
    assert seen == [1]
    assert sim.step()
    assert not sim.step()


def test_run_inside_run_raises():
    sim = Simulation()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(str(exc))

    sim.defer_at(1.0, nested)
    sim.run()
    assert errors == ["simulation is already running"]
    # The failed nested call leaves the outer run's state alone.
    sim.defer_at(2.0, lambda: None)
    sim.run()
    assert sim.now == 2.0


def test_past_entry_raises_naming_it():
    """A negative ``defer_in`` from t=10 must not pull the clock back to 7."""
    sim = Simulation()
    seen = []

    def late():
        seen.append(sim.now)

    sim.defer_at(10.0, lambda: sim.defer_in(-3.0, late))
    with pytest.raises(SimulationError, match="late"):
        sim.run()
    assert seen == []
    assert sim.now == 10.0


def test_step_raises_on_past_entry():
    sim = Simulation()
    seen = []
    sim.defer_at(10.0, lambda: sim.defer_at(4.0, seen.append, "x"))
    assert sim.step()
    with pytest.raises(SimulationError, match="is due at 4.0"):
        sim.step()
    assert seen == []


def _probe(sim, at, *targets):
    """File a callback at ``at`` that tries ``advance_to`` on each target in
    turn; the returned list gets the answers, then the clock it left."""
    results = []

    def probe():
        results.extend(sim.advance_to(target) for target in targets)
        results.append(sim.now)

    sim.defer_at(at, probe)
    return results


def test_advance_to_moves_clock_when_nothing_is_due():
    sim = Simulation()
    later = []
    sim.defer_at(5.0, lambda: later.append(sim.now))
    results = _probe(sim, 1.0, 4.0)
    sim.run()
    assert results == [True, 4.0]
    assert later == [5.0]


def test_advance_to_refuses_a_tie():
    """An entry already at ``t`` was filed first, so it must run first."""
    sim = Simulation()
    sim.defer_at(5.0, lambda: None)
    results = _probe(sim, 1.0, 5.0, 4.999)
    sim.run()
    assert results == [False, True, 4.999]


def test_advance_to_refuses_beyond_run_bound():
    sim = Simulation()
    results = _probe(sim, 1.0, 10.001, 10.0)
    sim.run(until=10.0)
    assert results == [False, True, 10.0]


def test_advance_to_refuses_outside_run_and_under_step():
    sim = Simulation()
    assert not sim.advance_to(1.0)
    assert sim.now == 0.0
    results = _probe(sim, 1.0, 2.0)
    assert sim.step()
    assert results == [False, 1.0]
    # A finished run() leaves no bound behind.
    sim.run(until=3.0)
    assert not sim.advance_to(4.0)


def test_advance_to_never_moves_the_clock_back():
    sim = Simulation()
    results = _probe(sim, 5.0, 4.0)
    sim.run()
    assert results == [False, 5.0]


def _lanes(sim, latency_us=15.0, n=2, roll_at=math.inf):
    """``n`` machine lanes on one stub fabric with base latency L, under a
    stub hub whose window edge is ``roll_at``."""
    fabric = SimpleNamespace(link=LinkSpec(base_latency_us=latency_us))
    hub = SimpleNamespace(_roll_at=roll_at)
    return fabric, [Lane(sim, fabric, hub) for _ in range(n)]


def _lane_probe(sim, lane, at, *targets):
    """Like ``_probe``, filed in ``lane`` and asking as ``lane``."""
    results = []

    def probe():
        results.extend(sim.advance_to(target, lane) for target in targets)
        results.append(sim.now)

    lane.defer_at(at, probe)
    return results


def test_lane_runs_ahead_of_another_lanes_entry_within_lookahead():
    sim = Simulation()
    _fabric, (a, b) = _lanes(sim)
    seen = []
    b.defer_at(12.0, lambda: seen.append(sim.now))
    results = _lane_probe(sim, a, 10.0, 20.0)
    sim.run()
    # a ran to 20 before b's entry at 12 ran, and b still saw its own time.
    assert results == [True, 20.0]
    assert seen == [12.0]
    assert sim.now == 20.0


def test_lane_refuses_when_its_own_entry_is_due():
    sim = Simulation()
    _fabric, (a, b) = _lanes(sim)
    # b's entry tops the heap, so a's own entry is found below it.
    b.defer_at(10.5, lambda: None)
    a.defer_at(12.0, lambda: None)
    results = _lane_probe(sim, a, 10.0, 20.0, 11.0)
    sim.run()
    assert results == [False, True, 11.0]


def test_lane_refuses_when_a_global_entry_is_due():
    sim = Simulation()
    _fabric, (a, b) = _lanes(sim)
    b.defer_at(10.5, lambda: None)
    sim.defer_at(12.0, lambda: None)
    sim.call_at(30.0, lambda: None)
    results = _lane_probe(sim, a, 10.0, 20.0, 11.0)
    sim.run()
    assert results == [False, True, 11.0]


def test_lane_refuses_another_lanes_entry_at_t_itself():
    sim = Simulation()
    _fabric, (a, b) = _lanes(sim)
    b.defer_at(10.0, lambda: None)
    b.defer_at(12.0, lambda: None)
    # b's entry at 12 was filed first, so the strict rule runs it before a
    # continuation at 12; before 12 or after it, a may run ahead.
    results = _lane_probe(sim, a, 5.0, 12.0, 11.5, 13.0)
    sim.run()
    assert results == [False, True, True, 13.0]


def test_lane_refuses_another_lanes_entry_at_or_before_t_minus_l():
    sim = Simulation()
    _fabric, (a, b) = _lanes(sim)
    b.defer_at(10.0, lambda: None)
    # t - L = 10 exactly: the entry at 10 could send a packet that lands
    # at 25, so 25 and later are refused and 24.999 is not.
    results = _lane_probe(sim, a, 5.0, 25.0, 26.0, 24.999)
    sim.run()
    assert results == [False, False, True, 24.999]


def test_lane_refuses_at_a_barrier_and_at_the_hub_window_edge():
    sim = Simulation()
    _fabric, (a, b) = _lanes(sim, roll_at=20.0)
    b.defer_at(12.0, lambda: None)
    results = []

    def probe():
        results.append(sim.advance_to(19.0, a, barrier=True))
        results.append(sim.advance_to(20.0, a))
        results.append(sim.advance_to(19.0, a))

    a.defer_at(10.0, probe)
    sim.run()
    assert results == [False, False, True]


def test_lookahead_follows_a_swapped_link():
    sim = Simulation()
    fabric, (a, b) = _lanes(sim, latency_us=5.0)
    b.defer_at(12.0, lambda: None)
    results = []

    def probe():
        results.append(sim.advance_to(18.0, a))
        results.append(sim.advance_to(16.5, a))
        fabric.link = LinkSpec(base_latency_us=15.0)
        results.append(sim.advance_to(26.0, a))

    a.defer_at(10.0, probe)
    sim.run()
    assert results == [False, True, True]


def test_past_entry_is_checked_per_lane():
    sim = Simulation()
    _fabric, (a, b) = _lanes(sim)
    # b runs behind a's clock without error, then files into a's past.
    b.defer_at(12.0, lambda: a.defer_at(15.0, lambda: None))
    _lane_probe(sim, a, 10.0, 20.0)
    with pytest.raises(SimulationError, match="is due at 15.0, before the clock \\(20.0\\)"):
        sim.run()


def _ping_pong(sim, lanes, hops=50):
    """Each lane re-files itself every few µs, and each tick has a
    continuation 3 µs later, run in place when ``advance_to`` allows.
    Returns (time, lane index, step) in execution order."""
    seen = []

    def tick(index, left):
        seen.append((sim.now, index, "tick"))
        at = sim.now + 3.0
        if sim.advance_to(at, lanes[index]):
            then(index, left)
        else:
            lanes[index].defer_at(at, then, index, left)

    def then(index, left):
        seen.append((sim.now, index, "then"))
        if left:
            lanes[index].defer_in(1.0 + index * 0.5, tick, index, left - 1)

    for index, lane in enumerate(lanes):
        lane.defer_at(float(index), tick, index, hops)
    sim.run()
    return seen


def test_zero_lookahead_is_the_strict_rule(monkeypatch):
    runs = {}
    for latency in (0.0, 15.0):
        sim = Simulation()
        _fabric, lanes = _lanes(sim, latency_us=latency, n=3)
        runs[latency] = (_ping_pong(sim, lanes), sim.executed)
    advance = Simulation.advance_to
    monkeypatch.setattr(  # every continuation a barrier: the strict rule
        Simulation, "advance_to",
        lambda self, time, lane=None, barrier=False: advance(self, time, lane, True),
    )
    sim = Simulation()
    _fabric, lanes = _lanes(sim, n=3)
    strict = (_ping_pong(sim, lanes), sim.executed)
    assert runs[0.0] == strict
    # With L = 15 the lanes run ahead: the same steps at the same times,
    # in another order, from fewer calendar entries.
    assert sorted(runs[15.0][0]) == sorted(strict[0])
    assert runs[15.0][0] != strict[0]
    assert runs[15.0][1] < strict[1]


def test_livelock_is_a_named_failure(monkeypatch):
    monkeypatch.setattr(core, "_MAX_STALLED_ENTRIES", 100)
    sim = Simulation()

    def spin():
        sim.defer_in(0.0, spin)

    sim.defer_at(1.0, spin)
    with pytest.raises(SimulationError, match="spin.*100 entries in a row at 1.0"):
        sim.run(until=10.0)


def test_many_entries_at_one_time_are_not_a_livelock(monkeypatch):
    monkeypatch.setattr(core, "_MAX_STALLED_ENTRIES", 100)
    sim = Simulation()
    seen = []
    for _ in range(100):
        sim.defer_at(1.0, seen.append, 1)
    sim.defer_at(2.0, seen.append, 2)
    sim.run()
    assert len(seen) == 101


def test_event_succeed_delivers_value_to_callbacks():
    sim = Simulation()
    evt = Event(sim)
    seen = []
    evt.add_callback(lambda e: seen.append(e.value))
    evt.succeed(42)
    assert seen == [42]
    assert evt.ok


def test_event_callback_after_trigger_fires_immediately():
    sim = Simulation()
    evt = Event(sim)
    evt.succeed("v")
    seen = []
    evt.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_event_double_trigger_raises():
    sim = Simulation()
    evt = Event(sim)
    evt.succeed()
    with pytest.raises(SimulationError):
        evt.succeed()


def test_timeout_triggers_at_deadline():
    sim = Simulation()
    evt = Timeout(sim, 7.5, value="done")
    sim.run()
    assert evt.ok
    assert evt.value == "done"
    assert sim.now == 7.5


def test_process_advances_through_timeouts():
    sim = Simulation()
    trace = []

    def body():
        trace.append(sim.now)
        yield Timeout(sim, 10.0)
        trace.append(sim.now)
        yield Timeout(sim, 5.0)
        trace.append(sim.now)
        return "finished"

    proc = Process(sim, body(), name="walker")
    sim.run()
    assert trace == [0.0, 10.0, 15.0]
    assert proc.ok and proc.value == "finished"


def test_process_receives_event_value():
    sim = Simulation()
    evt = Event(sim)
    got = []

    def body():
        got.append((yield evt))

    Process(sim, body())
    sim.call_in(3.0, evt.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_process_join_returns_child_value():
    sim = Simulation()

    def child():
        yield Timeout(sim, 4.0)
        return 99

    def parent():
        value = yield Process(sim, child(), name="child")
        return value * 2

    proc = Process(sim, parent(), name="parent")
    sim.run()
    assert proc.value == 198


def test_process_exception_propagates_to_joiner():
    sim = Simulation()

    def child():
        yield Timeout(sim, 1.0)
        raise ValueError("boom")

    caught = []

    def parent():
        try:
            yield Process(sim, child())
        except ValueError as exc:
            caught.append(str(exc))

    Process(sim, parent())
    sim.run()
    assert caught == ["boom"]


def test_defer_in_runs_in_order_with_cancellable_timers():
    sim = Simulation()
    seen = []
    sim.defer_in(5.0, seen.append, "deferred")
    sim.call_in(1.0, seen.append, "early")
    sim.defer_in(9.0, seen.append, "late")
    assert sim.pending() == 3
    sim.run()
    assert seen == ["early", "deferred", "late"]
    assert sim.pending() == 0


def test_process_yielding_non_event_fails_cleanly():
    sim = Simulation()

    def body():
        yield Timeout(sim, 1.0)
        yield "not an event"

    proc = Process(sim, body(), name="confused")
    # The misuse must terminate the process, not unwind the event loop.
    sim.run()
    assert proc.triggered
    assert isinstance(proc.error, SimulationError)
    assert "non-event" in str(proc.error)


def test_process_non_event_error_propagates_to_joiner():
    sim = Simulation()
    caught = []

    def child():
        yield 42

    def parent():
        try:
            yield Process(sim, child(), name="child")
        except SimulationError as exc:
            caught.append(str(exc))

    Process(sim, parent(), name="parent")
    sim.run()
    assert len(caught) == 1
    assert "non-event" in caught[0]


def test_process_catching_non_event_error_can_finish():
    sim = Simulation()

    def body():
        try:
            yield object()
        except SimulationError:
            return "recovered"

    proc = Process(sim, body(), name="handler")
    sim.run()
    assert proc.ok
    assert proc.value == "recovered"


def test_process_yielding_again_after_non_event_error_fails():
    sim = Simulation()

    def body():
        try:
            yield object()
        except SimulationError:
            pass
        yield Timeout(sim, 1.0)  # ignores the error and keeps going

    proc = Process(sim, body(), name="stubborn")
    sim.run()
    assert proc.triggered
    assert isinstance(proc.error, SimulationError)
    assert "kept yielding" in str(proc.error)
