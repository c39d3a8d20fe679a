"""A simulated server: cores + scheduler + NIC + sockets.

Each µSuite microservice (mid-tier, each leaf shard) runs on its own
:class:`Machine`, mirroring the paper's "each microservice runs on
dedicated hardware" methodology (§V).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.kernel.config import MachineSpec
from repro.kernel.ops import KernelOp
from repro.kernel.scheduler import PlacementPolicy, Scheduler, WakeAffinityPlacement
from repro.kernel.sockets import Epoll, Eventfd, KSocket
from repro.kernel.threads import SimThread
from repro.net.fabric import Fabric, Packet
from repro.sim.core import Lane, Simulation
from repro.sim.rng import RngStreams, lognormal_from_median_sigma
from repro.telemetry import Telemetry
from repro.telemetry.critpath import riders, stamp

#: Period of the background RCU bookkeeping tick, in microseconds.
RCU_TICK_US = 4000.0
#: Allocation model: one ``brk`` per this many allocation ticks...
BRK_EVERY = 64
#: ...and an ``mmap``+``munmap`` pair per this many.
MMAP_EVERY = 256


class Machine:
    """One simulated server attached to the fabric."""

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        telemetry: Telemetry,
        rng: RngStreams,
        spec: MachineSpec,
        name: Optional[str] = None,
        policy: Optional[PlacementPolicy] = None,
        lane: Optional[Lane] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.telemetry = telemetry
        self.spec = spec
        self.name = name or spec.name
        self.rng = rng.spawn(f"machine:{self.name}")
        # Everything this machine files runs on its calendar lane, which may
        # run ahead of other lanes by up to the fabric latency.  Machines
        # that share state other than through the fabric pass one ``lane``.
        self.lane = lane if lane is not None else Lane(sim, fabric, telemetry)
        self.scheduler = Scheduler(
            sim=sim,
            machine=self,
            n_cores=spec.cores,
            costs=spec.costs,
            policy=policy or WakeAffinityPlacement(),
        )
        self._sockets: Dict[int, KSocket] = {}
        # Optional repro.faults.LeafFaultInjector installed by the cluster
        # when this machine hosts a faulted leaf; None on the default path.
        self.fault_injector = None
        self._irq_rng = self.rng.py("irq")
        self._irq_hardirq = telemetry.irq_recorder(self.name, "hardirq")
        self._irq_net_rx = telemetry.irq_recorder(self.name, "net_rx")
        self._irq_rcu = telemetry.irq_recorder(self.name, "rcu")
        self._alloc_ticks = 0
        self._rcu_timer = self.lane.call_in(RCU_TICK_US, self._rcu_tick)
        self._shutdown = False
        fabric.register(self.name, self.deliver, self.lane)

    # -- resources ---------------------------------------------------------
    def socket(self, port: int) -> KSocket:
        """Create and bind a socket on ``port`` (openat-accounted)."""
        if port in self._sockets:
            raise ValueError(f"port {port} already bound on {self.name}")
        sock = KSocket(self, port)
        self._sockets[port] = sock
        self.count_syscall("openat")
        return sock

    def epoll(self) -> Epoll:
        """Create an epoll instance."""
        self.count_syscall("openat")
        return Epoll(self)

    def eventfd(self) -> Eventfd:
        """Create an eventfd."""
        self.count_syscall("openat")
        return Eventfd(self)

    def spawn(self, name: str, body: Generator[KernelOp, object, object]) -> SimThread:
        """Start a simulated thread on this machine."""
        thread = SimThread(f"{self.name}/{name}", body)
        return self.scheduler.spawn(thread)

    def count_syscall(self, syscall: str) -> None:
        """Account a syscall made by userspace setup code on this machine."""
        self.telemetry.count_syscall(self.name, syscall)

    def alloc_tick(self) -> None:
        """Allocator model: occasional brk/mmap/munmap traffic per request."""
        self._alloc_ticks += 1
        if self._alloc_ticks % BRK_EVERY == 0:
            self.count_syscall("brk")
        if self._alloc_ticks % MMAP_EVERY == 0:
            self.count_syscall("mmap")
            self.count_syscall("munmap")

    def shutdown(self) -> None:
        """Stop background ticks (lets a bounded simulation drain)."""
        self._shutdown = True
        if self._rcu_timer is not None:
            self._rcu_timer.cancel()
            self._rcu_timer = None

    # -- network ------------------------------------------------------------
    def transmit(self, sock: KSocket, dst, payload, size_bytes: int, tx_latency: float) -> None:
        """Called by the scheduler's sendmsg handler: hand off to the NIC."""
        if hasattr(payload, "on_wire"):
            payload.on_wire(self.sim.now)
        self.fabric.send(sock.address, tuple(dst), payload, size_bytes, extra_delay_us=tx_latency)

    def deliver(self, packet: Packet) -> None:
        """Fabric arrival: run the hardirq → NET_RX softirq pipeline."""
        costs = self.spec.costs
        irq_core = self.scheduler.least_busy_irq_core(self.spec.nic_irq_cores)
        hardirq = lognormal_from_median_sigma(
            self._irq_rng, costs.hardirq_median_us, costs.hardirq_sigma
        )
        softirq = lognormal_from_median_sigma(
            self._irq_rng, costs.softirq_net_rx_median_us, costs.softirq_net_rx_sigma
        )
        self._irq_hardirq(hardirq)
        self._irq_net_rx(softirq)
        carried = riders(packet.payload)
        if carried:
            now = self.sim.now
            stamp(self.telemetry, carried, self.name, "hardirq", now, now + hardirq, hardirq)
            stamp(
                self.telemetry, carried, self.name, "net_rx",
                now + hardirq, now + hardirq + softirq, softirq,
            )
        # Interrupt handling steals cycles from whatever runs on that core.
        self.scheduler.steal_cpu(irq_core, hardirq + softirq)
        # This is the last act of the arrival callback, so when nothing
        # could come first the socket delivery runs in place instead of
        # being filed (the sum bracketed as ``defer_in`` would add it).
        at = self.sim._now + (hardirq + softirq)
        if self.sim.advance_to(at, self.lane):
            self._socket_deliver(packet)
        else:
            self.lane.defer_at(at, self._socket_deliver, packet)

    def _socket_deliver(self, packet: Packet) -> None:
        sock = self._sockets.get(packet.dst[1])
        if sock is None:
            return  # port closed; drop silently like a RST-less UDP stack
        if hasattr(packet.payload, "delivered"):
            packet.payload.delivered(self.sim.now)
        # The softirq core writes the rx-queue head; a later recvmsg from a
        # poller core takes the cacheline back (HITM both directions).
        scheduler = self.scheduler
        irq_core = scheduler.least_busy_irq_core(self.spec.nic_irq_cores)
        scheduler.touch_cacheline(scheduler.cores[irq_core], sock.cacheline)
        carried = riders(packet.payload)
        if carried:
            now = self.sim.now
            wire_time = getattr(packet.payload, "wire_time", None)
            for trace, rid in carried:
                start = wire_time if wire_time is not None else trace.started_us
                trace.add_segment("net", self.name, start, now, rid)
            # Threads woken synchronously by this delivery (epoll wake-all)
            # owe their upcoming runqueue wait to these traced requests.
            scheduler._pending_wake_riders = carried
            try:
                sock.deliver(packet.payload)
            finally:
                scheduler._pending_wake_riders = None
        else:
            sock.deliver(packet.payload)

    def _rcu_tick(self) -> None:
        if self._shutdown:
            return
        costs = self.spec.costs
        for core in self.scheduler.cores:
            # Active = dispatched since the last tick, or still running now
            # (a long compute never re-dispatches but keeps the core busy).
            if core.busy_since_tick or core.current is not None:
                core.busy_since_tick = False
                self._irq_rcu(lognormal_from_median_sigma(
                    self._irq_rng, costs.softirq_rcu_median_us, costs.softirq_rcu_sigma
                ))
        self._rcu_timer = self.lane.call_in(RCU_TICK_US, self._rcu_tick)

    def __repr__(self) -> str:
        return f"Machine({self.name}, {self.spec.cores} cores)"
