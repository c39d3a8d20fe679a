"""RPC wire messages with per-hop network-time accounting."""

from __future__ import annotations

from typing import Any, Optional, Tuple

Address = Tuple[str, int]


class RpcMessage:
    """Base class: tracks time spent on the wire for the "Net" breakdown."""

    __slots__ = ("payload", "size_bytes", "wire_time", "arrive_time", "net_us")

    def __init__(self, payload: Any, size_bytes: int):
        self.payload = payload
        self.size_bytes = size_bytes
        self.wire_time: Optional[float] = None
        self.arrive_time: Optional[float] = None
        self.net_us = 0.0

    # Hooks invoked by Machine.transmit / Machine._socket_deliver.
    def on_wire(self, now: float) -> None:
        self.wire_time = now

    def delivered(self, now: float) -> None:
        self.arrive_time = now
        if self.wire_time is not None:
            self.net_us += now - self.wire_time


class RpcRequest(RpcMessage):
    """A request: carries the reply address and fan-out bookkeeping ids.

    ``request_id`` is the creator's ``next(sim.request_ids)``: ids number
    from 1 in each simulation.
    """

    __slots__ = (
        "method", "request_id", "parent_id", "reply_to", "client_start",
        "trace", "deadline",
    )

    def __init__(
        self,
        method: str,
        payload: Any,
        size_bytes: int,
        reply_to: Address,
        request_id: int,
        parent_id: Optional[int] = None,
        client_start: Optional[float] = None,
    ):
        super().__init__(payload, size_bytes)
        self.method = method
        self.request_id = request_id
        self.parent_id = parent_id
        self.reply_to = reply_to
        # Stamped by the load generator for end-to-end latency accounting.
        self.client_start = client_start
        # Optional sampled distributed trace (repro.telemetry.tracing).
        self.trace = None
        # Absolute deadline (simulation µs) propagated through the fan-out
        # by the tail-tolerance layer; None means "no deadline".
        self.deadline: Optional[float] = None

    def __repr__(self) -> str:
        return f"RpcRequest({self.method}#{self.request_id})"


class RpcResponse(RpcMessage):
    """A response: matched to its request through ``request_id``."""

    __slots__ = (
        "request_id", "parent_id", "is_error", "client_start",
        "upstream_net_us", "trace", "partial",
    )

    def __init__(
        self,
        request_id: int,
        payload: Any,
        size_bytes: int,
        parent_id: Optional[int] = None,
        is_error: bool = False,
        client_start: Optional[float] = None,
    ):
        super().__init__(payload, size_bytes)
        self.request_id = request_id
        self.parent_id = parent_id
        self.is_error = is_error
        self.client_start = client_start
        # Network time accumulated by the request on its way down.
        self.upstream_net_us = 0.0
        # Optional sampled distributed trace, carried back to the client.
        self.trace = None
        # Graceful degradation: True when the deadline fired and this reply
        # merges only the leaf responses that arrived in time.
        self.partial = False

    def __repr__(self) -> str:
        return f"RpcResponse(#{self.request_id}, error={self.is_error})"
