"""Leaf-request batching: coalesce sub-requests into per-leaf batches.

The mid-tier's dominant OS costs are *per-message*: every leaf
sub-request pays a sendmsg, a hardirq + NET_RX softirq at the leaf, a
wake-all epoll storm across the leaf's poller pool, and the same again
for its response (paper Figs. 11-18).  Production OLDI stacks amortize
these by coalescing concurrent sub-requests to the same backend into one
wire message.  This module adds that layer:

* :class:`BatchAccumulator` — the pure per-leaf buffer (property-tested
  in isolation: no sub-request is ever lost, duplicated, or reordered).
* :class:`LeafBatcher` — per-leaf accumulation buffers inside a
  mid-tier runtime with two flush triggers: the buffer reaching
  ``max_batch``, or ``max_wait_us`` elapsing since the buffer's first
  entry (a timer-driven flush, so a lone sub-request is never stranded).
* :class:`BatchEnvelope` / :class:`BatchReply` — the wire
  representation: one fabric message carrying many sub-requests, and one
  carrying their responses for fan-in demux at the mid-tier.

Everything is constructed only when an enabled :class:`BatchConfig` is
supplied; the default (batching off) path allocates nothing, arms no
timers, and draws no randomness, keeping the engine bit-identical to the
unbatched goldens.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Tuple

from repro.kernel.ops import SockSend
from repro.rpc.message import RpcRequest, RpcResponse

#: Wire overhead of a batch envelope beyond its sub-request payloads.
BATCH_HEADER_BYTES = 48


@dataclass(frozen=True)
class BatchConfig:
    """Coalescer knobs: flush on size or on age, whichever comes first.
    Off by default; validated whether enabled or not."""

    enabled: bool = False
    max_batch: int = 8
    max_wait_us: float = 50.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {self.max_batch}")
        if self.max_wait_us <= 0:
            raise ValueError(f"max_wait_us must be positive: {self.max_wait_us}")


class BatchEnvelope:
    """Payload of one coalesced leaf request: the batched sub-requests."""

    __slots__ = ("subrequests",)

    def __init__(self, subrequests: List[RpcRequest]):
        self.subrequests = subrequests

    def __len__(self) -> int:
        return len(self.subrequests)

    def __repr__(self) -> str:
        return f"BatchEnvelope({len(self.subrequests)} subs)"


class BatchReply:
    """Payload of one coalesced leaf response: the per-sub responses."""

    __slots__ = ("responses",)

    def __init__(self, responses: List[RpcResponse]):
        self.responses = responses

    def __len__(self) -> int:
        return len(self.responses)

    def __repr__(self) -> str:
        return f"BatchReply({len(self.responses)} subs)"


class BatchAccumulator:
    """The pure buffer: append until full, drain in arrival order.

    Kept free of simulation machinery so the lossless-delivery property
    (emitted batches concatenate back to the exact input sequence) can be
    checked exhaustively by hypothesis.
    """

    def __init__(self, max_batch: int):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        self.max_batch = max_batch
        self.pending: List[Any] = []

    def add(self, item: Any) -> Optional[List[Any]]:
        """Append one item; returns the full batch when it must flush."""
        self.pending.append(item)
        if len(self.pending) >= self.max_batch:
            return self.drain()
        return None

    def drain(self) -> List[Any]:
        """Remove and return everything buffered (possibly empty)."""
        items, self.pending = self.pending, []
        return items

    def __len__(self) -> int:
        return len(self.pending)


class LeafBatcher:
    """Per-leaf coalescing buffers for one mid-tier runtime.

    ``add`` is invoked from simulated threads (``yield from``): a full
    buffer flushes inline in the calling thread; otherwise a flush timer
    is armed for the buffer's first entry, and its firing spawns a short
    flush thread (the timer callback itself cannot perform socket sends).
    """

    def __init__(self, runtime, config: BatchConfig):
        self.runtime = runtime
        self.config = config
        self.machine = runtime.machine
        n_leaves = len(runtime.leaf_addrs)
        self.buffers = [BatchAccumulator(config.max_batch) for _ in range(n_leaves)]
        self.timers: List[Optional[object]] = [None] * n_leaves
        self.batches_sent = 0
        self.subrequests_batched = 0
        self.flushes_full = 0
        self.flushes_timer = 0
        self._flush_seq = 0

    def add(self, leaf_index: int, sub: RpcRequest, size_bytes: int):
        """Generator: buffer one sub-request, flushing if the buffer fills."""
        self.subrequests_batched += 1
        batch = self.buffers[leaf_index].add((sub, size_bytes))
        if batch is not None:
            self._cancel_timer(leaf_index)
            self.flushes_full += 1
            yield from self._send_batch(leaf_index, batch)
        elif self.timers[leaf_index] is None:
            self.timers[leaf_index] = self.machine.sim.call_in(
                self.config.max_wait_us, self._timer_fire, leaf_index
            )

    def _cancel_timer(self, leaf_index: int) -> None:
        timer = self.timers[leaf_index]
        if timer is not None:
            timer.cancel()
            self.timers[leaf_index] = None

    def _timer_fire(self, leaf_index: int) -> None:
        """max_wait_us elapsed: flush whatever accumulated, via a thread."""
        self.timers[leaf_index] = None
        if not self.buffers[leaf_index].pending:
            return
        self._flush_seq += 1
        self.flushes_timer += 1
        self.machine.spawn(
            f"batchflush{leaf_index}.{self._flush_seq}",
            self._flush_thread(leaf_index),
        )

    def _flush_thread(self, leaf_index: int):
        """Thread body: drain and send one timer-triggered batch."""
        batch = self.buffers[leaf_index].drain()
        if not batch:
            return  # a size-triggered flush beat the thread to it
        yield from self._send_batch(leaf_index, batch)

    def _send_batch(self, leaf_index: int, batch: List[Tuple[RpcRequest, int]]):
        """Generator: one fabric message for the whole batch."""
        subs = [sub for sub, _ in batch]
        size = BATCH_HEADER_BYTES + sum(size for _, size in batch)
        envelope = RpcRequest(
            method="leaf-batch",
            payload=BatchEnvelope(subs),
            size_bytes=size,
            reply_to=self.runtime.client_sock.address,
            request_id=next(self.machine.sim.request_ids),
        )
        self.batches_sent += 1
        machine = self.machine
        machine.telemetry.incr(f"batches_sent:{machine.name}")
        machine.telemetry.incr(f"batched_subrequests:{machine.name}", len(subs))
        machine.telemetry.record(f"batch_occupancy:{machine.name}", float(len(subs)))
        yield SockSend(
            self.runtime.client_sock,
            self.runtime.leaf_addrs[leaf_index],
            envelope,
            size,
        )

    def set_max_batch(self, max_batch: int) -> None:
        """Re-size the coalescing threshold live (control-plane actuation).

        A shrink takes effect on the next ``add`` — an already-overfull
        buffer is not force-flushed here because flushing performs socket
        sends, which only simulated threads may do; the wait-time bound
        (``max_wait_us`` timer) is unchanged, so nothing is stranded.
        """
        # replace() re-runs the config's validation (max_batch >= 1).
        self.config = replace(self.config, max_batch=max_batch)
        for buf in self.buffers:
            buf.max_batch = max_batch

    def stats(self) -> dict:
        """Coalescer accounting for experiment reports."""
        return {
            "batches_sent": self.batches_sent,
            "subrequests_batched": self.subrequests_batched,
            "flushes_full": self.flushes_full,
            "flushes_timer": self.flushes_timer,
            "mean_occupancy": (
                self.subrequests_batched / self.batches_sent
                if self.batches_sent
                else 0.0
            ),
        }
