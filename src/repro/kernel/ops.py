"""Operations a simulated thread can yield to the kernel.

A thread body is a Python generator.  Real computation (LSH lookups, hash
routing, set intersections, ...) runs natively between yields; simulated
*time* is charged by yielding these operation objects, which the scheduler
interprets.  Blocking operations (futex wait, epoll wait without ready
events) suspend the thread and free its core.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.kernel.futex import Futex
    from repro.kernel.sockets import Epoll, Eventfd, KSocket


class KernelOp:
    """Base class for everything a thread may yield."""

    __slots__ = ()


class Compute(KernelOp):
    """Occupy the CPU for ``us`` microseconds of application work."""

    __slots__ = ("us", "tag")

    def __init__(self, us: float, tag: Optional[str] = None):
        if us < 0:
            raise ValueError(f"negative compute time: {us}")
        self.us = us
        self.tag = tag


class YieldCpu(KernelOp):
    """``sched_yield``: go back to the run queue voluntarily."""

    __slots__ = ()


class Nanosleep(KernelOp):
    """Sleep for ``us`` microseconds (releases the core)."""

    __slots__ = ("us",)

    def __init__(self, us: float):
        if us < 0:
            raise ValueError(f"negative sleep: {us}")
        self.us = us


class FutexWait(KernelOp):
    """``futex(WAIT)``: block until woken, unless the futex value moved.

    Like the real syscall, the wait is armed only if ``futex.value`` still
    equals ``expected`` — otherwise it returns immediately (EAGAIN), which
    is what makes the mutex/condvar implementations lost-wakeup free.
    Yields True if actually slept, False on immediate return.

    A task queue's timed wait also carries its ``queue`` and the unjittered
    ``base_timeout_us``, for ``Scheduler._rearm``.
    """

    __slots__ = ("futex", "expected", "timeout_us", "queue", "base_timeout_us")

    def __init__(self, futex: "Futex", expected: int, timeout_us: Optional[float] = None,
                 queue: Any = None, base_timeout_us: Optional[float] = None):
        self.futex = futex
        self.expected = expected
        self.timeout_us = timeout_us
        self.queue = queue
        self.base_timeout_us = base_timeout_us


class FutexWake(KernelOp):
    """``futex(WAKE)``: wake up to ``n`` waiters.  Yields number woken."""

    __slots__ = ("futex", "n")

    def __init__(self, futex: "Futex", n: int = 1):
        self.futex = futex
        self.n = n


class EpollWait(KernelOp):
    """``epoll_pwait``: yield the list of ready sockets, blocking if empty.

    ``timeout_us=None`` blocks indefinitely; ``0`` polls without blocking;
    a positive value bounds the wait.  Yields a (possibly empty) list.
    """

    __slots__ = ("epoll", "timeout_us")

    def __init__(self, epoll: "Epoll", timeout_us: Optional[float] = None):
        self.epoll = epoll
        self.timeout_us = timeout_us


class SockSend(KernelOp):
    """``sendmsg``: transmit ``payload`` (``size_bytes`` on the wire)."""

    __slots__ = ("sock", "dst", "payload", "size_bytes")

    def __init__(self, sock: "KSocket", dst: Any, payload: Any, size_bytes: int):
        self.sock = sock
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes


class SockRecv(KernelOp):
    """``recvmsg`` (non-blocking): yields a message or None if empty."""

    __slots__ = ("sock",)

    def __init__(self, sock: "KSocket"):
        self.sock = sock


class EventfdWrite(KernelOp):
    """``write`` on an eventfd: add ``value`` to its counter."""

    __slots__ = ("efd", "value")

    def __init__(self, efd: "Eventfd", value: int = 1):
        self.efd = efd
        self.value = value


class EventfdRead(KernelOp):
    """``read`` on an eventfd: yields and drains the counter; never
    blocks (0 when already drained)."""

    __slots__ = ("efd",)

    def __init__(self, efd: "Eventfd"):
        self.efd = efd
