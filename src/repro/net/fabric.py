"""The fabric: endpoints, links, packet delivery, loss and retransmission."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.core import Lane, Simulation
from repro.sim.rng import RngStreams, exponential
from repro.telemetry import Telemetry

Address = Tuple[str, int]


@dataclass(frozen=True)
class LinkSpec:
    """Delay model for one hop through the rack switch."""

    # One-way base propagation + switching latency.
    base_latency_us: float = 15.0
    # Mean of the exponential jitter term added per packet.
    jitter_mean_us: float = 2.0
    # Wire speed used for serialization delay.
    gbps: float = 10.0
    # Per-packet loss probability (paper: single-digit retransmissions/run).
    loss_probability: float = 2e-6
    # Retransmission timeout (tail-loss-probe-scale, not the 200 ms RTO min).
    rto_us: float = 5000.0

    def __post_init__(self) -> None:
        # base_latency_us is the calendar's lookahead (a lower bound on
        # every hop), so no term of a hop's delay may be negative.
        for name in ("base_latency_us", "jitter_mean_us", "rto_us"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"LinkSpec.{name} must be >= 0, got {value}")
        if not self.gbps > 0.0:
            raise ValueError(f"LinkSpec.gbps must be > 0, got {self.gbps}")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"LinkSpec.loss_probability must be in [0, 1], got {self.loss_probability}"
            )

    def serialization_us(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire."""
        bits = size_bytes * 8.0
        return bits / (self.gbps * 1000.0)  # gbps == 1000 bits/us


@dataclass
class Packet:
    """One RPC-bearing datagram in flight."""

    src: Address
    dst: Address
    payload: Any
    size_bytes: int
    send_time: float
    retransmitted: bool = False
    extra_delay_us: float = 0.0


class Fabric:
    """Routes packets between registered endpoints through one rack switch.

    Endpoints are either simulated machines (delivery raises the interrupt
    pipeline) or ideal load-generator ports (direct callback — the paper
    runs its load generators on separate, validated-uncontended hardware).
    An arrival at a machine is filed in that machine's calendar lane; every
    hop takes at least ``link.base_latency_us``, which is what lets a lane
    run that far ahead of the others.
    """

    def __init__(
        self,
        sim: Simulation,
        telemetry: Telemetry,
        rng: RngStreams,
        link: Optional[LinkSpec] = None,
    ):
        self.sim = sim
        self.telemetry = telemetry
        self.link = link or LinkSpec()
        self._rng = rng.py("fabric")
        self._rng_streams = rng
        self._endpoints: Dict[str, Callable[[Packet], None]] = {}
        # Calendar lane of each machine endpoint (absent: the global lane).
        self._lanes: Dict[str, Lane] = {}
        # Optional repro.faults.NetworkFault; None on the default path, and
        # its RNG stream is created only on installation so a fault-free
        # run consumes exactly the randomness it always did.
        self.fault = None
        self._fault_rng = None

    def install_fault(self, fault) -> None:
        """Attach a network fault injector (extra delay/jitter/drop)."""
        self.fault = fault
        self._fault_rng = self._rng_streams.py("fault:net")

    def register(
        self, name: str, deliver: Callable[[Packet], None], lane: Optional[Lane] = None
    ) -> None:
        """Attach an endpoint; ``deliver(packet)`` runs at arrival time, in
        ``lane`` when given."""
        if name in self._endpoints:
            raise ValueError(f"endpoint already registered: {name}")
        self._endpoints[name] = deliver
        if lane is not None:
            self._lanes[name] = lane

    def unregister(self, name: str) -> None:
        """Detach an endpoint (in-flight packets to it are dropped)."""
        self._endpoints.pop(name, None)
        self._lanes.pop(name, None)

    def has_endpoint(self, name: str) -> bool:
        """True while ``name`` is attached (proxies check before relaying)."""
        return name in self._endpoints

    def send(
        self,
        src: Address,
        dst: Address,
        payload: Any,
        size_bytes: int,
        extra_delay_us: float = 0.0,
    ) -> Packet:
        """Inject a packet; returns the in-flight packet object."""
        if dst[0] not in self._endpoints:
            raise KeyError(f"no endpoint named {dst[0]!r}")
        packet = Packet(
            src=src,
            dst=dst,
            payload=payload,
            size_bytes=size_bytes,
            send_time=self.sim.now,
            extra_delay_us=extra_delay_us,
        )
        self._transmit(packet)
        return packet

    def _transmit(self, packet: Packet) -> None:
        link = self.link
        fault = self.fault
        if fault is not None and fault.matches(packet.dst[0]):
            if (
                fault.drop_probability > 0.0
                and self._fault_rng.random() < fault.drop_probability
            ):
                # A true drop (no retransmission): upstream hedges/retries
                # or deadlines are what recover from it.
                self.telemetry.incr("fault_net_drops")
                return
            packet.extra_delay_us += fault.extra_delay_us + exponential(
                self._fault_rng, fault.jitter_mean_us
            )
        if self._rng.random() < link.loss_probability and not packet.retransmitted:
            # Single retransmission after the timeout; duplicate loss is
            # rare enough to ignore (the paper sees single-digit counts).
            self.telemetry.count_retransmission()
            packet.retransmitted = True
            self.sim.defer_in(link.rto_us, self._transmit, packet)
            return
        delay = (
            packet.extra_delay_us
            + link.base_latency_us
            + link.serialization_us(packet.size_bytes)
            + exponential(self._rng, link.jitter_mean_us)
        )
        packet.extra_delay_us = 0.0
        lane = self._lanes.get(packet.dst[0])
        (lane or self.sim).defer_in(delay, self._arrive, packet)

    def _arrive(self, packet: Packet) -> None:
        deliver = self._endpoints.get(packet.dst[0])
        if deliver is not None:
            deliver(packet)
