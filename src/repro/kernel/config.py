"""Machine specification and OS cost models.

All constants are in microseconds unless noted.  Defaults are calibrated
against the paper and its citations (DESIGN.md §5):

* context switch 5 µs — the paper cites a 5–20 µs cost [Tsafrir 2007];
* futex / epoll / sendmsg / recvmsg syscall costs in the 1–3 µs range;
* C-state exit latencies from ~1 µs (C1) to ~90 µs (deep package states),
  chosen to reproduce the paper's observation that median latency at
  100 QPS exceeds the median at 1 000 QPS (Fig. 10);
* Table II's testbed: Intel Gold 6148 "Skylake", 40 cores / 80 HW threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class CStatePoint:
    """One row of the idle-governor table.

    A core idle for at least ``min_idle_us`` (and less than the next row's
    threshold) is assumed to have entered the state and pays
    ``exit_latency_us`` when woken.
    """

    min_idle_us: float
    exit_latency_us: float
    name: str


# Modeled after Skylake server C-states (C1 / C1E / C6) as exposed by the
# Linux menu governor.  Exit latencies follow intel_idle's tables.
DEFAULT_CSTATES: Tuple[CStatePoint, ...] = (
    CStatePoint(0.0, 1.0, "C1"),
    CStatePoint(20.0, 10.0, "C1E"),
    CStatePoint(600.0, 85.0, "C6"),
)


@dataclass(frozen=True)
class OsCosts:
    """Latency cost model for kernel operations (all in microseconds)."""

    # Thread and scheduler costs.
    context_switch_us: float = 5.0
    timeslice_us: float = 4000.0
    wakeup_ipi_us: float = 0.8
    runq_dispatch_us: float = 0.5
    # Extra latency multiplier applied while a run queue holds waiting
    # threads; models scheduler bookkeeping growing with queue depth.
    runq_per_waiter_us: float = 0.3

    # Syscall entry/exit plus handler costs, by syscall name.
    syscall_us: Tuple[Tuple[str, float], ...] = (
        ("futex", 1.8),
        ("epoll_pwait", 2.2),
        ("sendmsg", 3.0),
        ("recvmsg", 2.6),
        ("read", 1.2),
        ("write", 1.4),
        ("clone", 30.0),
        ("mmap", 4.0),
        ("munmap", 4.0),
        ("mprotect", 3.0),
        ("brk", 1.5),
        ("openat", 4.0),
        ("close", 1.6),
        ("nanosleep", 2.0),
        ("sched_yield", 1.0),
    )

    # Interrupt handler cost models: (median_us, lognormal sigma).
    hardirq_median_us: float = 1.6
    hardirq_sigma: float = 0.45
    softirq_net_rx_median_us: float = 4.0
    softirq_net_rx_sigma: float = 0.55
    softirq_net_tx_median_us: float = 2.2
    softirq_net_tx_sigma: float = 0.5
    softirq_sched_median_us: float = 1.2
    softirq_sched_sigma: float = 0.5
    softirq_rcu_median_us: float = 0.9
    softirq_rcu_sigma: float = 0.4
    softirq_block_median_us: float = 0.8
    softirq_block_sigma: float = 0.4

    # Userspace atomic-op cost for uncontended mutex fast paths.
    atomic_op_us: float = 0.05
    # Extra cost when the lock cacheline was last owned by another core
    # (a HITM transfer); dirtier still when the owner sat on the other
    # socket (QPI/UPI hop).
    hitm_transfer_us: float = 0.25
    hitm_remote_transfer_us: float = 0.75

    cstates: Tuple[CStatePoint, ...] = DEFAULT_CSTATES

    # DVFS model: idle cores drop toward the minimum frequency factor and
    # ramp back up while busy.  Together with C-state exits this is why
    # the paper measures *higher median latency at 100 QPS than at
    # 1 000 QPS* (Fig. 10) — cold cores run application compute slower.
    dvfs_enabled: bool = True
    dvfs_min_factor: float = 0.62
    dvfs_ramp_us: float = 1000.0  # busy-time constant toward full clock
    dvfs_decay_us: float = 4000.0  # idle-time constant toward min clock

    def syscall_cost(self, name: str) -> float:
        """Cost of syscall ``name``; raises KeyError for unknown syscalls."""
        for known, cost in self.syscall_us:
            if known == name:
                return cost
        raise KeyError(f"unknown syscall: {name}")

    def cstate_exit_latency(self, idle_us: float) -> Tuple[float, str]:
        """Exit latency and state name for a core that idled ``idle_us``."""
        chosen = self.cstates[0]
        for point in self.cstates:
            if idle_us >= point.min_idle_us:
                chosen = point
        return chosen.exit_latency_us, chosen.name


@dataclass(frozen=True)
class MachineSpec:
    """Hardware description of one simulated server (paper Table II:
    2.4 GHz, 64 GB DRAM, 10 Gbit/s NIC).  Only what the model reads is a
    field; the wire speed is ``repro.net.LinkSpec.gbps``."""

    name: str = "skylake"
    cores: int = 80  # logical cores: 40 physical / 80 HW threads
    # Cores eligible to take NIC interrupts (RSS spreading).
    nic_irq_cores: int = 8
    # NUMA sockets (the paper's testbed is a 2-socket Gold 6148 box);
    # cores split contiguously across sockets.
    sockets: int = 2
    costs: OsCosts = field(default_factory=OsCosts)

    def socket_of(self, core_index: int) -> int:
        """The NUMA socket a core belongs to."""
        if not 0 <= core_index < self.cores:
            raise ValueError(f"core {core_index} out of range")
        return core_index * self.sockets // self.cores
