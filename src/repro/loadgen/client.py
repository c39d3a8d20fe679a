"""Open-loop and closed-loop load generators."""

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
    """An ideal fabric endpoint that sends queries and collects replies."""

    _instances = 0

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
        _ClientBase._instances += 1
        self.sim = sim
        self.fabric = fabric
        self.telemetry = telemetry
        self.target = tuple(target)
        self.source = source
        self.name = name or f"client{_ClientBase._instances}"
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


class ClosedLoopLoadGen(_ClientBase):
    """N always-outstanding synthetic clients: measures peak sustainable
    throughput (the paper's Fig. 9 methodology).  Inappropriate for latency
    measurement — exactly the coordinated-omission critique of §II."""

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        telemetry: Telemetry,
        rng: RngStreams,
        target: Address,
        source,
        n_clients: int,
        name: Optional[str] = None,
        tracer=None,
    ):
        super().__init__(sim, fabric, telemetry, rng, target, source, name, tracer)
        if n_clients <= 0:
            raise ValueError(f"n_clients must be positive: {n_clients}")
        self.n_clients = n_clients
        self._stopped = False
        self._window_completed = 0
        self._window_opened: Optional[float] = None

    def start(self) -> None:
        """Launch every synthetic client."""
        for _ in range(self.n_clients):
            self._send_query(client_start=self.sim.now)

    def stop(self) -> None:
        """Stop re-issuing queries."""
        self._stopped = True

    def open_window(self) -> None:
        """Begin the throughput measurement window (after warm-up)."""
        self._window_opened = self.sim.now
        self._window_completed = 0

    def throughput_qps(self) -> float:
        """Completed queries per second inside the measurement window."""
        if self._window_opened is None:
            raise RuntimeError("open_window() was never called")
        elapsed_us = self.sim.now - self._window_opened
        if elapsed_us <= 0:
            return 0.0
        return self._window_completed / (elapsed_us / 1e6)

    def _on_response(self, response: RpcResponse) -> None:
        if self._window_opened is not None:
            self._window_completed += 1
        if not self._stopped:
            self._send_query(client_start=self.sim.now)
