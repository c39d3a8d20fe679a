"""Event loop, events, and generator-based processes.

Design notes
------------
Time is a float measured in *microseconds* because every phenomenon the
paper characterizes (context switches, futex calls, interrupt handlers,
runqueue waits) lives in the single-digit-to-hundreds-of-microseconds
regime.

The loop is a classic calendar queue built on :mod:`heapq`, tuned for the
millions-of-events runs the figure experiments perform:

* Heap entries are plain tuples, ``(time, seq, call)`` for cancellable
  entries and ``(time, seq, fn, args)`` for the fire-and-forget fast path
  (:meth:`Simulation.defer_at` / :meth:`Simulation.defer_in`), so ordering
  is resolved by C-level float/int comparisons — never a Python ``__lt__``.
  ``seq`` is a monotonically increasing tie breaker, so the simulation is
  fully deterministic for a fixed seed and insertion order, and entry
  comparison never reaches the (incomparable) third element.
* Cancellation is *lazy*: a cancelled :class:`ScheduledCall` stays in the
  heap but is skipped when popped.  Workloads with heavy timed-wait churn
  (the RPC layer's jittered condvar deadlines cancel timers constantly)
  would bloat the heap, so the loop tracks the cancelled-entry count and
  compacts the heap in place once cancelled entries dominate.
* :meth:`Simulation.pending` is the heap size less the cancelled-entry
  count, so it is O(1) with no counter on the push and pop paths.
* The run loop batch-pops all entries sharing a timestamp, hoisting the
  ``until`` bound check out of the per-entry path; an entry stamped
  before its lane's clock is a :class:`SimulationError`.
* :meth:`Simulation.advance_to` lets a callback skip a round trip: when
  no entry is due by ``t``, one filed at ``t`` would be popped next, so
  the callback moves the clock and runs that continuation in place.
  Callbacks run in the same order at the same times either way; only
  ``executed`` (calendar entries, not continuations) drops.
* Each simulated machine files its own work into a :class:`Lane`.  Lanes
  share the one heap and its (time, seq) pop order, but each keeps its own
  clock, and an entry stamped before its lane's clock is the past-entry
  error.  Machines reach each other only through the fabric, no sooner
  than its base link latency L, so :meth:`Simulation.advance_to` also lets
  a lane run ahead past other lanes' entries that are later than ``t - L``
  (Chandy–Misra–Bryant lookahead inside one process).  Everything else
  files on the global lane, which no lane runs ahead of.
* ``run`` raises a :class:`SimulationError` naming the callback when
  ``_MAX_STALLED_ENTRIES`` entries in a row pop without the clock moving:
  a livelock is a named failure, not a hang.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Optional

#: Compaction triggers once at least this many cancelled entries exist...
_COMPACT_MIN_CANCELLED = 256
#: ...and they make up at least half the heap.

#: ``run`` fails once this many entries in a row pop at one time stamp.
_MAX_STALLED_ENTRIES = 1_000_000


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-firing an event)."""


class ScheduledCall:
    """A cancellable callback scheduled at an absolute simulation time."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim", "lane")

    def __init__(self, time: float, seq: int, fn: Callable[..., None], args: tuple,
                 sim: "Simulation", lane: "Lane"):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference for live-entry accounting; cleared once the entry
        # leaves the heap so post-fire cancels stay harmless no-ops.
        self._sim = sim
        self.lane = lane

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __lt__(self, other: "ScheduledCall") -> bool:
        # Heap entries are (time, seq, ...) tuples resolved before the call
        # object is ever compared; kept for explicit sorts in user code.
        return (self.time, self.seq) < (other.time, other.seq)


class Lane:
    """One machine's share of the calendar, with its own clock.

    Entries filed here are ``(time, seq, fn, args, lane)`` tuples in the
    simulation's one heap (a cancellable one carries the lane on its
    :class:`ScheduledCall`).  A machine's lane reads ``fabric`` live for
    the lookahead L (``fabric.link.base_latency_us``), and never runs
    ahead to the window edge (``_roll_at``) of the telemetry ``hub``.  The
    global lane (:attr:`Simulation.lane`) has neither and never runs ahead.
    """

    __slots__ = ("sim", "now", "fabric", "hub")

    def __init__(self, sim: "Simulation", fabric: Any = None, hub: Any = None):
        self.sim = sim
        self.now = sim._now
        self.fabric = fabric
        self.hub = hub
        sim._lanes.append(self)

    def defer_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`Simulation.defer_at`, filed in this lane."""
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (time, sim._seq, fn, args, self))

    def defer_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`Simulation.defer_in`, filed in this lane."""
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim._now + delay, sim._seq, fn, args, self))

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> ScheduledCall:
        """:meth:`Simulation.call_in`, filed in this lane."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        sim = self.sim
        return sim._file_call(sim._now + delay, fn, args, self)


class Simulation:
    """The discrete-event loop: a clock plus an ordered queue of callbacks."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        # (time, seq, call) / (time, seq, fn, args) / (time, seq, fn, args,
        # lane) tuples; seq is unique, so comparison never reaches the
        # incomparable tail.
        self._heap: list = []
        # Bound of the run() in progress; -inf when none is (so
        # advance_to refuses outside run() and under step()).
        self._until = -math.inf
        # Cancelled-but-unpopped entries (compaction heuristic, pending()).
        self._cancelled = 0
        # Every lane: run() ends at the latest lane clock.
        self._lanes: list = []
        #: The global lane: every entry not filed through a machine's lane.
        self.lane = Lane(self)
        #: Callbacks executed since construction (perf accounting).
        self.executed = 0
        #: This run's request ids and default load-generator numbers, so
        #: neither depends on what else the process simulated before it.
        self.request_ids = itertools.count(1)
        self.client_ids = itertools.count(1)

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        Returns a cancellable handle; use :meth:`defer_at` when the caller
        will never cancel (it skips the handle allocation entirely).
        """
        return self._file_call(time, fn, args, self.lane)

    def _file_call(self, time: float, fn: Callable[..., None], args: tuple,
                   lane: Lane) -> ScheduledCall:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        self._seq += 1
        entry = ScheduledCall(time, self._seq, fn, args, self, lane)
        heappush(self._heap, (time, self._seq, entry))
        return entry

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._file_call(self._now + delay, fn, args, self.lane)

    def defer_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget fast path: like :meth:`call_at` but allocation-lean.

        No :class:`ScheduledCall` is created, so the timer cannot be
        cancelled.  The hot layers (network delivery, load generation,
        scheduler dispatch) use this for the millions of timers that are
        never cancelled.
        """
        self._seq += 1
        heappush(self._heap, (time, self._seq, fn, args))

    def defer_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`call_in` (see :meth:`defer_at`)."""
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, fn, args))

    def advance_to(self, time: float, lane: Optional[Lane] = None,
                   barrier: bool = False) -> bool:
        """Move the clock to ``time`` if nothing could come first.

        True only inside :meth:`run`, with ``now <= time <= until`` and
        either of:

        * every entry strictly later than ``time`` (an entry at ``time``
          was filed earlier, so it runs first): exactly when an entry
          filed now at ``time`` would be popped next;
        * the lookahead rule, for a machine's ``lane`` not at a
          ``barrier`` (a continuation that touches state other lanes
          share, such as a send): the earliest entry is later than
          ``time - L``, ``time`` is short of the hub's window edge, and
          every entry due by ``time`` is another machine lane's and
          earlier than ``time`` (one at ``time`` was filed first).  One at
          ``w`` reaches this lane only through the fabric, at ``w + L`` or
          later: after ``time``.  With L = 0 a due entry refuses, as in
          the strict rule.

        The caller then runs the continuation as ``lane``'s.
        """
        if time > self._until or time < self._now:
            return False
        heap = self._heap
        if heap and heap[0][0] <= time and (
            barrier or lane is None or not self._others_due(time, lane)
        ):
            return False
        self._now = time
        if lane is not None:
            lane.now = time
        return True

    def _others_due(self, time: float, lane: Lane) -> bool:
        """Whether the lookahead rule of :meth:`advance_to` lets ``lane``
        run to ``time``, given an entry due by then: a walk over only the
        due entries, which form the top of the heap."""
        heap = self._heap
        if (time >= heap[0][0] + lane.fabric.link.base_latency_us
                or time >= lane.hub._roll_at):
            return False
        glob = self.lane
        size = len(heap)
        due = [0]
        for i in due:  # grows as the walk finds due children
            entry = heap[i]
            n = len(entry)
            owner = entry[4] if n == 5 else glob if n == 4 else entry[2].lane
            if owner is lane or owner is glob or entry[0] == time:
                return False
            i = 2 * i + 1
            if i < size and heap[i][0] <= time:
                due.append(i)
            i += 1
            if i < size and heap[i][0] <= time:
                due.append(i)
        return True

    # -- cancellation bookkeeping -----------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (slice assignment) because ``run`` holds a local alias to
        the heap list.  Determinism is unaffected: pop order is the total
        order on (time, seq) regardless of heap-internal layout.
        """
        heap = self._heap
        heap[:] = [e for e in heap if len(e) != 3 or not e[2].cancelled]
        heapify(heap)
        self._cancelled = 0

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop.

        With ``until`` set, stops once the clock would pass that time (the
        clock is left *at* ``until``).  Without it, runs until the queue
        drains, leaving the clock at the latest time any lane reached.
        """
        if self._until != -math.inf:
            raise SimulationError("simulation is already running")
        self._until = bound = math.inf if until is None else until
        heap = self._heap
        pop = heappop
        glob = self.lane
        executed = 0
        try:
            while heap:
                when = heap[0][0]
                if when > bound:
                    break
                # Batch: drain every entry stamped ``when`` with the
                # ``until`` bound already checked.  Lanes run ahead, so
                # the clock is written per entry.
                stalled = executed + _MAX_STALLED_ENTRIES
                while heap and heap[0][0] == when:
                    entry = pop(heap)
                    n = len(entry)
                    if n == 5:
                        _, _, fn, args, lane = entry
                    elif n == 4:
                        _, _, fn, args = entry
                        lane = glob
                    else:
                        call = entry[2]
                        call._sim = None
                        lane = call.lane
                        if call.cancelled:
                            self._cancelled -= 1
                            continue
                        fn, args = call.fn, call.args
                    if when < lane.now:
                        self._raise_past(fn, when, lane.now)
                    if executed >= stalled:
                        raise SimulationError(
                            f"{getattr(fn, '__qualname__', fn)}: "
                            f"{_MAX_STALLED_ENTRIES} entries in a row at {when}"
                            " without the clock moving"
                        )
                    self._now = lane.now = when
                    executed += 1
                    fn(*args)
            if until is None:
                for lane in self._lanes:
                    if lane.now > self._now:
                        self._now = lane.now
            elif self._now < until:
                self._now = until
            # Whatever is filed between runs is checked against this clock.
            glob.now = self._now
        finally:
            self.executed += executed
            self._until = -math.inf

    def step(self) -> bool:
        """Execute the single next pending callback.  Returns False if none."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            n = len(entry)
            if n == 3:
                call = entry[2]
                call._sim = None
                lane = call.lane
                if call.cancelled:
                    self._cancelled -= 1
                    continue
                fn, args = call.fn, call.args
            else:
                lane = entry[4] if n == 5 else self.lane
                fn, args = entry[2], entry[3]
            when = entry[0]
            if when < lane.now:
                self._raise_past(fn, when, lane.now)
            self._now = lane.now = when
            self.executed += 1
            fn(*args)
            return True
        return False

    @staticmethod
    def _raise_past(fn: Callable[..., None], when: float, clock: float) -> None:
        raise SimulationError(
            f"{getattr(fn, '__qualname__', fn)} is due at {when},"
            f" before the clock ({clock})"
        )

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled callbacks.  O(1)."""
        return len(self._heap) - self._cancelled


class Event:
    """A one-shot occurrence.

    Processes wait on an event by yielding it; plain callbacks subscribe via
    :meth:`add_callback`.  An event either *succeeds* with a value or *fails*
    with an exception; waiting processes receive the value or have the
    exception thrown into them.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value", "error")

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._callbacks: list[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: Any = None
        self.error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """True once the event has succeeded."""
        return self.triggered and self.error is None

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if it has)."""
        if self.triggered:
            fn(self)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        self._dispatch()
        return self

    def fail(self, error: BaseException) -> "Event":
        """Trigger the event with an exception thrown into waiting processes."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.error = error
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class Timeout(Event):
    """An event that succeeds automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulation, delay: float, value: Any = None):
        super().__init__(sim)
        self.delay = delay
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # Fire-and-forget: _fire checks `triggered`, so no cancel handle is
        # needed — avoids a ScheduledCall per timed wait.
        sim.defer_in(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self.triggered:
            self.succeed(value)


class Process(Event):
    """A coroutine driven by the event loop.

    The wrapped generator yields :class:`Event` instances (including other
    processes) and is resumed with the event's value once it triggers.  The
    process itself is an event that succeeds with the generator's return
    value, so processes can be joined by yielding them.
    """

    __slots__ = ("gen", "name")

    def __init__(self, sim: Simulation, gen: Generator[Event, Any, Any], name: str = "?"):
        super().__init__(sim)
        self.gen = gen
        self.name = name
        # Start on the next loop iteration so the creator can finish wiring up.
        sim.defer_in(0.0, self._resume, None, None)

    def _on_event(self, event: Event) -> None:
        if event.error is not None:
            self._resume(None, event.error)
        else:
            self._resume(event.value, None)

    def _resume(self, value: Any, error: Optional[BaseException]) -> None:
        try:
            if error is not None:
                target = self.gen.throw(error)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:  # propagate into joiners
            self.fail(exc)
            return
        if not isinstance(target, Event):
            # Misuse: throw a descriptive error into the generator so its
            # cleanup runs, but contain whatever escapes (the throw itself
            # re-raises when uncaught, and a generator that catches it and
            # returns raises StopIteration) — either way the process must
            # terminate like the other error paths instead of letting the
            # exception unwind the event loop.
            try:
                self.gen.throw(
                    SimulationError(f"process {self.name} yielded non-event: {target!r}")
                )
            except StopIteration as stop:
                self.succeed(stop.value)
            except SimulationError as exc:
                self.fail(exc)
            except Exception as exc:
                self.fail(exc)
            else:
                # The generator swallowed the error and yielded again.
                self.fail(SimulationError(
                    f"process {self.name} kept yielding after a non-event"
                ))
            return
        target.add_callback(self._on_event)

