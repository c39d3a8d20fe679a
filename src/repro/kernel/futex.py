"""Futexes and the userspace Mutex / CondVar built on them.

The paper finds ``futex`` is the most-invoked syscall for every µSuite
service: network threads lock the front-end reception socket, response
threads lock the leaf-response socket, and workers block on task-queue
condition variables.  To reproduce those invocation patterns (including
their load dependence) the locking here follows glibc's lowlevellock:

* ``Mutex`` — futex word holds 0 (free), 1 (locked), 2 (locked, waiters).
  The fast path is a userspace CAS (no syscall); only contention issues
  ``futex(WAIT)`` / ``futex(WAKE)`` syscalls.
* ``CondVar`` — futex word holds a sequence number read under the mutex,
  making the sleep immune to lost wakeups exactly like glibc's condvar.

Both are *generator helpers*: thread bodies use ``yield from mutex.acquire()``
etc.  The ``AtomicAccess`` op charges CAS cost and performs HITM accounting
(cross-core accesses to the lock cacheline are the paper's HITM events).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.kernel.ops import FutexWait, FutexWake, KernelOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.threads import SimThread

#: Wake-all argument for futex wake (INT_MAX in the real API).
WAKE_ALL = 1 << 30


class Cacheline:
    """Tracks the last core that touched a contended line (HITM proxy)."""

    __slots__ = ("last_core",)

    def __init__(self) -> None:
        self.last_core: Optional[int] = None


class AtomicAccess(KernelOp):
    """A userspace atomic RMW on a shared cacheline (CAS, fetch-add...)."""

    __slots__ = ("cacheline",)

    def __init__(self, cacheline: Cacheline):
        self.cacheline = cacheline


class Futex:
    """A kernel futex: a 32-bit word plus a FIFO wait queue.

    The word itself is a shared cacheline: kernel-side futex operations
    from a different core than the last toucher are HITM events (exactly
    what Intel's hit-Modified PEBS counting observes on lock words).
    """

    __slots__ = ("value", "waiters", "cacheline", "wake_riders")

    def __init__(self, value: int = 0):
        self.value = value
        self.waiters: List["SimThread"] = []
        self.cacheline = Cacheline()
        # Traces whose work the next wake on this futex hands off (set by
        # e.g. TaskQueue.put before signalling; cleared by the wake body).
        self.wake_riders = None


class Mutex:
    """glibc-style futex mutex, used via ``yield from``.

    The constant kernel ops (the CAS on the lock cacheline, the contended
    ``futex(WAIT, expected=2)``, the handoff ``futex(WAKE, 1)``) are
    interned per mutex: the scheduler only reads op fields, and lock ops
    dominate the op stream at every load the paper measures, so reusing
    one instance of each avoids an allocation per acquire/release."""

    __slots__ = ("name", "futex", "cacheline", "holder",
                 "_op_atomic", "_op_wait_contended", "_op_wake_one")

    def __init__(self, name: str = "mutex"):
        self.name = name
        self.futex = Futex(0)
        self.cacheline = Cacheline()
        self.holder: Optional["SimThread"] = None
        self._op_atomic = AtomicAccess(self.cacheline)
        self._op_wait_contended = FutexWait(self.futex, expected=2)
        self._op_wake_one = FutexWake(self.futex, 1)

    def acquire(self):
        """Generator: lock the mutex (fast CAS, futex wait under contention).

        Follows glibc's lowlevellock exactly, including the subtle part: a
        thread that has *slept* must acquire with state 2 ("locked, maybe
        waiters"), because other sleepers may remain queued — acquiring
        with 1 would let the next release skip its futex wake and strand
        them forever.
        """
        locked_state = 1
        while True:
            yield self._op_atomic
            if self.futex.value == 0:
                # CAS 0 -> locked_state (atomic: no event boundary before set).
                self.futex.value = locked_state
                return
            # Mark contended (CAS -> 2) and sleep until a release wakes us.
            self.futex.value = 2
            yield self._op_wait_contended
            locked_state = 2  # we slept; other waiters may still be queued

    def release(self):
        """Generator: unlock, waking one waiter if the lock was contended."""
        yield self._op_atomic
        previous = self.futex.value
        self.futex.value = 0
        if previous == 2:
            yield self._op_wake_one


class CondVar:
    """glibc-style condition variable, used via ``yield from`` with a Mutex."""

    __slots__ = ("name", "futex", "cacheline",
                 "_op_atomic", "_op_wake_one", "_op_wake_all")

    def __init__(self, name: str = "condvar"):
        self.name = name
        self.futex = Futex(0)  # value is a wakeup sequence number
        self.cacheline = Cacheline()
        self._op_atomic = AtomicAccess(self.cacheline)
        self._op_wake_one = FutexWake(self.futex, 1)
        self._op_wake_all = FutexWake(self.futex, WAKE_ALL)

    def wait(self, mutex: Mutex, timeout_us: float | None = None,
             queue=None, base_timeout_us: float | None = None):
        """Generator: atomically release ``mutex``, sleep, then re-acquire.

        Must be called with ``mutex`` held, inside a predicate re-check
        loop (spurious wakeups are real here, exactly as in pthreads).
        ``timeout_us`` gives ``pthread_cond_timedwait`` semantics — the
        periodic re-wakes of gRPC's deadline-based waits are the paper's
        main source of futex traffic at low load.  ``queue`` and
        ``base_timeout_us`` ride on the ``FutexWait`` (see there); nothing
        here reads ``seq`` once that wait returns, which is what lets the
        scheduler re-arm it without resuming this generator.
        """
        yield self._op_atomic
        seq = self.futex.value
        yield from mutex.release()
        # Sleeps only if no signal arrived since ``seq`` was read (the
        # expected value varies per wait, so this op cannot be interned).
        yield FutexWait(self.futex, seq, timeout_us, queue, base_timeout_us)
        yield from mutex.acquire()

    def signal(self):
        """Generator: wake one waiter."""
        yield self._op_atomic
        self.futex.value += 1
        yield self._op_wake_one

    def broadcast(self):
        """Generator: wake every waiter (the thundering-herd path)."""
        yield self._op_atomic
        self.futex.value += 1
        yield self._op_wake_all
