"""The producer-consumer task queue between pollers and workers.

Follows the paper's §IV: "Network threads dispatch the RPC to a worker
thread pool by using producer-consumer task-queues and signalling on
condition variables."  The queue also kicks an eventfd per enqueue,
mirroring gRPC's completion-queue wakeup mechanism — this is where the
figures' ``write``/``read`` syscall traffic comes from.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, TYPE_CHECKING

from repro.kernel.futex import CondVar, Mutex
from repro.kernel.ops import EventfdRead, EventfdWrite

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.machine import Machine


class TaskQueue:
    """A mutex+condvar queue used via ``yield from`` by simulated threads."""

    def __init__(self, machine: "Machine", name: str = "taskq"):
        self.machine = machine
        self.name = name
        self.items: Deque[Any] = deque()
        self.mutex = Mutex(f"{name}.mutex")
        self.condvar = CondVar(f"{name}.cond")
        self.kick_efd = machine.eventfd()
        self._jitter_rng = machine.rng.py(f"{name}:jitter")

    def put(self, item: Any):
        """Generator: enqueue and signal one parked worker."""
        yield from self.mutex.acquire()
        self.items.append(item)
        # Park the enqueued request's trace on the condvar futex so the
        # woken worker's runqueue wait is attributed to this request.
        request = item[0] if isinstance(item, tuple) else item
        trace = getattr(request, "trace", None)
        if trace is not None:
            self.condvar.futex.wake_riders = (
                (trace, getattr(request, "request_id", None)),
            )
        yield from self.condvar.signal()
        yield from self.mutex.release()
        # Completion-queue kick (gRPC writes an eventfd to wake pollers).
        yield EventfdWrite(self.kick_efd, 1)

    def get(self, wait_timeout_us: float | None = None):
        """Generator: block until an item is available, then dequeue it.

        Yields the item to the caller via the generator's return value:
        ``item = yield from queue.get()``.  With ``wait_timeout_us`` the
        condvar wait is timed (gRPC-style deadline waits), so idle workers
        re-wake periodically — issuing the futex traffic the paper observes
        to be highest *per query* at low load.
        """
        yield from self.mutex.acquire()
        while not self.items:
            # Jitter each timed wait: identical deadlines would re-wake the
            # whole pool in lockstep and convoy on the queue mutex.
            timeout = None
            if wait_timeout_us is not None:
                timeout = wait_timeout_us * (0.5 + self._jitter_rng.random())
            yield from self.condvar.wait(self.mutex, timeout_us=timeout)
        item = self.items.popleft()
        yield from self.mutex.release()
        # Drain the kick counter.  A sibling may drain it during this read's
        # syscall entry; the read then returns 0 and never holds the item.
        if self.kick_efd.counter > 0:
            yield EventfdRead(self.kick_efd)
        return item

    def __len__(self) -> int:
        return len(self.items)
