"""Sockets, epoll instances, and eventfds.

The socket layer reproduces the structure gRPC's completion queues sit on:

* :class:`KSocket` — a datagram-style RPC socket with an rx queue and a
  userspace mutex (the "socket lock" the paper's futex storms fight over).
* :class:`Epoll` — level-triggered readiness with **wake-all** semantics
  (no EPOLLEXCLUSIVE), so every parked poller thread wakes per arrival and
  all but one find the queue already drained.  This is the mechanism
  behind the paper's finding that futex calls *per query* are highest at
  low load.
* :class:`Eventfd` — counter semaphore used for completion-queue kicks
  (gRPC's ``read``/``write`` syscall traffic).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.kernel.futex import Cacheline, Mutex

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.machine import Machine
    from repro.kernel.threads import SimThread


class KSocket:
    """A simulated RPC socket bound to ``(machine, port)``."""

    def __init__(self, machine: "Machine", port: int):
        self.machine = machine
        self.port = port
        self.address: Tuple[str, int] = (machine.name, port)
        self.rx_queue: Deque[Any] = deque()
        # Userspace lock serializing access from poller threads.
        self.lock = Mutex(name=f"socklock:{machine.name}:{port}")
        # The queue head cacheline bounces between the softirq core that
        # delivers and the poller core that receives (a HITM source).
        self.cacheline = Cacheline()
        self._epolls: Set["Epoll"] = set()

    # -- kernel side -------------------------------------------------------
    def deliver(self, message: Any) -> None:
        """Softirq context: enqueue an arrived message and notify epolls."""
        self.rx_queue.append(message)
        for epoll in self._epolls:
            epoll.notify(self)

    # -- syscall side -------------------------------------------------------
    def pop(self) -> Optional[Any]:
        """Dequeue one message (recvmsg body); None when empty."""
        if not self.rx_queue:
            return None
        message = self.rx_queue.popleft()
        if not self.rx_queue:
            for epoll in self._epolls:
                epoll.clear_ready(self)
        return message

    @property
    def readable(self) -> bool:
        """True while messages are queued."""
        return bool(self.rx_queue)

    def __repr__(self) -> str:
        return f"KSocket({self.address}, q={len(self.rx_queue)})"


class Epoll:
    """A level-triggered epoll instance with wake-all notification."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.watched: Set[KSocket] = set()
        self.ready: Set[KSocket] = set()
        self.waiters: List["SimThread"] = []

    def add(self, sock: KSocket) -> None:
        """EPOLL_CTL_ADD: watch a socket (readiness re-checked level-style)."""
        self.watched.add(sock)
        sock._epolls.add(self)
        if sock.readable:
            self.ready.add(sock)

    def remove(self, sock: KSocket) -> None:
        """EPOLL_CTL_DEL."""
        self.watched.discard(sock)
        sock._epolls.discard(self)
        self.ready.discard(sock)

    def notify(self, sock: KSocket) -> None:
        """Kernel side: mark readable and wake *all* parked waiters."""
        self.ready.add(sock)
        if self.waiters:
            waiters, self.waiters = self.waiters, []
            self.machine.scheduler.wake_epoll_waiters(waiters)

    def clear_ready(self, sock: KSocket) -> None:
        """Called when a socket's queue drains (level-triggered reset)."""
        self.ready.discard(sock)

    def snapshot_ready(self) -> List[KSocket]:
        """Current readable sockets (evaluated fresh at thread resume)."""
        return [sock for sock in self.ready if sock.readable]


class Eventfd:
    """An eventfd counter used for completion-queue kicks.

    Non-blocking, like gRPC's ``EFD_NONBLOCK`` wakeup fd: reading a drained
    counter returns 0 at once, so no thread ever waits on an eventfd.
    """

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.counter = 0

    def add(self, value: int) -> None:
        """write(): bump the counter."""
        self.counter += value

    def consume(self) -> int:
        """read(): drain and return the counter (0 if already drained)."""
        value = self.counter
        self.counter = 0
        return value
