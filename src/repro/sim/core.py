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
* A live-entry counter makes :meth:`Simulation.pending` O(1) and feeds the
  compaction heuristic.
* The run loop batch-pops all entries sharing a timestamp, hoisting the
  clock write and the ``until`` bound check out of the per-entry path;
  an entry stamped before the clock is a :class:`SimulationError`.
* :meth:`Simulation.advance_to` lets a callback skip a round trip: when
  no entry is due by ``t``, one filed at ``t`` would be popped next, so
  the callback moves the clock and runs that continuation in place.
  Callbacks run in the same order at the same times either way; only
  ``executed`` (calendar entries, not continuations) drops.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Optional

#: Compaction triggers once at least this many cancelled entries exist...
_COMPACT_MIN_CANCELLED = 256
#: ...and they make up at least half the heap.


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-firing an event)."""


class ScheduledCall:
    """A cancellable callback scheduled at an absolute simulation time."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., None], args: tuple,
                 sim: Optional["Simulation"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference for live-entry accounting; cleared once the entry
        # leaves the heap so post-fire cancels stay harmless no-ops.
        self._sim = sim

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


class Simulation:
    """The discrete-event loop: a clock plus an ordered queue of callbacks."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        # Mixed (time, seq, call) / (time, seq, fn, args) tuples; seq is
        # unique, so comparison never reaches the incomparable tail.
        self._heap: list = []
        # Bound of the run() in progress; -inf when none is (so
        # advance_to refuses outside run() and under step()).
        self._until = -math.inf
        # Non-cancelled entries currently in the heap (O(1) pending()).
        self._live = 0
        # Cancelled-but-unpopped entries (compaction heuristic).
        self._cancelled = 0
        #: Callbacks executed since construction (perf accounting).
        self.executed = 0

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        Returns a cancellable handle; use :meth:`defer_at` when the caller
        will never cancel (it skips the handle allocation entirely).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        self._seq += 1
        entry = ScheduledCall(time, self._seq, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, entry))
        self._live += 1
        return entry

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, fn, *args)

    def defer_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget fast path: like :meth:`call_at` but allocation-lean.

        No :class:`ScheduledCall` is created, so the timer cannot be
        cancelled.  The hot layers (network delivery, load generation,
        scheduler dispatch) use this for the millions of timers that are
        never cancelled.
        """
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._live += 1

    def defer_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`call_in` (see :meth:`defer_at`)."""
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, args))
        self._live += 1

    def advance_to(self, time: float) -> bool:
        """Move the clock to ``time`` if no calendar entry could come first.

        True only inside :meth:`run`, with ``now <= time <= until`` and
        every entry strictly later than ``time`` (an entry at ``time`` was
        filed earlier, so it runs first): exactly when an entry filed now
        at ``time`` would be popped next.  The caller then runs it.
        """
        if time > self._until or time < self._now:
            return False
        heap = self._heap
        if heap and heap[0][0] <= time:
            return False
        self._now = time
        return True

    # -- cancellation bookkeeping -----------------------------------------
    def _note_cancel(self) -> None:
        self._live -= 1
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
        heap[:] = [e for e in heap if len(e) == 4 or not e[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop.

        With ``until`` set, stops once the clock would pass that time (the
        clock is left *at* ``until``).  Without it, runs until the queue
        drains.
        """
        if self._until != -math.inf:
            raise SimulationError("simulation is already running")
        self._until = bound = math.inf if until is None else until
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        try:
            while heap:
                when = heap[0][0]
                if when > bound:
                    break
                if when < self._now:
                    self._raise_past(heap[0])
                # Batch: drain every entry stamped ``when`` with the clock
                # written once and the ``until`` bound already checked.
                self._now = when
                while heap and heap[0][0] == when:
                    entry = pop(heap)
                    if len(entry) == 4:
                        self._live -= 1
                        executed += 1
                        entry[2](*entry[3])
                    else:
                        call = entry[2]
                        call._sim = None
                        if call.cancelled:
                            self._cancelled -= 1
                            continue
                        self._live -= 1
                        executed += 1
                        call.fn(*call.args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self.executed += executed
            self._until = -math.inf

    def step(self) -> bool:
        """Execute the single next pending callback.  Returns False if none."""
        heap = self._heap
        while heap:
            if heap[0][0] < self._now:
                self._raise_past(heap[0])
            entry = heapq.heappop(heap)
            if len(entry) == 4:
                fn, args = entry[2], entry[3]
            else:
                call = entry[2]
                call._sim = None
                if call.cancelled:
                    self._cancelled -= 1
                    continue
                fn, args = call.fn, call.args
            self._now = entry[0]
            self._live -= 1
            self.executed += 1
            fn(*args)
            return True
        return False

    def _raise_past(self, entry: tuple) -> None:
        fn = entry[2] if len(entry) == 4 else entry[2].fn
        raise SimulationError(
            f"{getattr(fn, '__qualname__', fn)} is due at {entry[0]},"
            f" before the clock ({self._now})"
        )

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled callbacks.  O(1)."""
        return self._live


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

