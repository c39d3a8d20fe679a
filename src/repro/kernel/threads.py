"""Simulated threads.

A :class:`SimThread` wraps a generator of kernel operations (see
:mod:`repro.kernel.ops`) plus the scheduling state the paper's probes
observe: when it became runnable (for ``runqlat``/Active-Exe), which core
it last ran on (for wake affinity and HITM accounting), and its CFS-style
virtual runtime.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.ops import KernelOp


class ThreadState(enum.Enum):
    """Lifecycle states, mirroring the kernel's task states."""

    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class SimThread:
    """One simulated OS thread."""

    def __init__(self, name: str, body: Generator["KernelOp", Any, Any]):
        self.name = name
        self.body = body
        self.state = ThreadState.NEW
        self.vruntime = 0.0
        # Timestamp of the last transition to RUNNABLE (runqlat start).
        self.runnable_since = 0.0
        # The core this thread last executed on (wake affinity hint).
        self.last_core: Optional[int] = None
        # Value to send into the generator on next resume.
        self.send_value: Any = None
        # Remaining CPU time of a preempted Compute op, if any.
        self.pending_compute: float = 0.0
        # Set while the thread sits on a futex/epoll wait list.
        self.block_reason: Optional[str] = None
        # Cancellation hook for a blocking-op timeout, if armed.
        self.wait_timer = None
        # Evaluated at resume to produce a fresh send value (e.g. the epoll
        # ready list as of when the thread actually runs, not when woken).
        self.resume_hook = None
        # The task-queue FutexWait whose timer caused the most recent wake;
        # consumed when the thread begins running (Scheduler._rearm).
        self.expired_wait = None
        # Traces whose message/handoff caused the most recent wake; consumed
        # when the thread begins running to attribute its runqueue wait.
        self.wake_riders = None

    @property
    def alive(self) -> bool:
        """True until the thread's generator finishes."""
        return self.state is not ThreadState.DONE

    def __repr__(self) -> str:
        return f"SimThread({self.name}, {self.state.value})"
