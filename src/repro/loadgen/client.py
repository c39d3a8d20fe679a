"""The client endpoint every load generator shares, and the open-loop
Poisson generator.  Closed-loop load is a :class:`~repro.loadgen.traffic.SessionLoadGen`."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.fabric import Fabric, Packet
from repro.rpc.message import RpcRequest, RpcResponse
from repro.sim.core import Simulation
from repro.sim.rng import RngStreams, exponential
from repro.telemetry import Telemetry

Address = Tuple[str, int]

#: Telemetry histogram name for end-to-end latency.
E2E_HIST = "e2e_latency"


class _ClientBase:
    """An ideal fabric endpoint that sends queries and collects replies.

    The name keys the arrival RNG stream; without ``name=`` the k-th
    generator built on ``sim`` is ``client<k>``.
    """

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        telemetry: Telemetry,
        rng: RngStreams,
        target: Address,
        source,
        name: Optional[str] = None,
        tracer=None,
    ):
        number = next(sim.client_ids)
        self.sim = sim
        self.fabric = fabric
        self.telemetry = telemetry
        self.target = tuple(target)
        self.source = source
        self.name = name or f"client{number}"
        self.address: Address = (self.name, 0)
        self.rng = rng.py(f"loadgen:{self.name}")
        self.sent = 0
        self.completed = 0
        self.errors = 0
        # Optional repro.telemetry.tracing.Tracer for sampled traces.
        self.tracer = tracer
        fabric.register(self.name, self._on_packet)

    def _send_query(self, client_start: float) -> RpcRequest:
        payload, size_bytes = self.source.next_query()
        request = RpcRequest(
            method="query",
            payload=payload,
            size_bytes=size_bytes,
            reply_to=self.address,
            request_id=next(self.sim.request_ids),
            client_start=client_start,
        )
        if self.tracer is not None:
            request.trace = self.tracer.maybe_trace(
                request.request_id, self.sim.now, self.sim
            )
        self.sent += 1
        self.fabric.send(self.address, self.target, request, size_bytes)
        return request

    def _on_packet(self, packet: Packet) -> None:
        response = packet.payload
        if not isinstance(response, RpcResponse):
            return
        if response.is_error:
            self.errors += 1
            return
        self.completed += 1
        if response.partial:
            # A deadline-degraded reply (tail-tolerance layer) counts toward
            # ``completed`` — the client did get an answer — but is tracked.
            self.telemetry.incr("client_partial_replies")
        if response.client_start is not None:
            self.telemetry.record(E2E_HIST, self.sim.now - response.client_start)
        self.telemetry.incr("completed_queries")
        if self.tracer is not None and response.trace is not None:
            trace = response.trace
            # Final hop: the reply's wire time back to this (ideal) client
            # endpoint, which has no NIC pipeline to stamp it otherwise.
            start = trace.started_us if response.wire_time is None else response.wire_time
            trace.add_segment("net", self.name, start, self.sim.now, response.request_id)
            self.tracer.finish(trace, self.sim.now)
        self._on_response(response)

    def _on_response(self, response: RpcResponse) -> None:
        """Hook for subclass reaction to a completed query."""


class OpenLoopLoadGen(_ClientBase):
    """Poisson arrivals at a fixed offered load, immune to coordinated
    omission: each query is stamped with its scheduled arrival time, and
    arrivals never wait for earlier responses."""

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        telemetry: Telemetry,
        rng: RngStreams,
        target: Address,
        source,
        qps: float,
        name: Optional[str] = None,
        tracer=None,
    ):
        super().__init__(sim, fabric, telemetry, rng, target, source, name, tracer)
        if qps <= 0:
            raise ValueError(f"qps must be positive: {qps}")
        self.qps = qps
        self._stopped = False
        self._mean_gap_us = 1e6 / qps

    def start(self) -> None:
        """Begin issuing queries."""
        self._schedule_next()

    def stop(self) -> None:
        """Stop issuing (in-flight queries still complete)."""
        self._stopped = True

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        gap = exponential(self.rng, self._mean_gap_us)
        self.sim.defer_in(gap, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._send_query(client_start=self.sim.now)
        self._schedule_next()
