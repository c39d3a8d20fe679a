"""Deterministic, seed-driven fault injectors (DeathStarBench-style).

A :class:`FaultPlan` bundles up to four perturbations of one simulated
cell, mirroring the hazards production OLDI services see:

* **leaf slowdown** — every leaf sub-request's service time is inflated
  by a fixed multiplier and/or, with some probability, a Pareto-tailed
  extra delay (a straggler shard: background compaction, page-cache
  miss, co-located antagonist);
* **leaf stall / crash** — a leaf stops serving for a window and then
  recovers (SIGSTOP-style stall that parks requests until recovery, or a
  crash that silently drops them until recovery);
* **mid-tier queue pressure** — antagonist threads on the mid-tier burn
  CPU on a jittered duty cycle, lengthening the runqueue waits the paper
  identifies as the dominant tail contributor (Figs. 15-18);
* **network fault** — extra per-packet delay/jitter and drop probability
  on the fabric, optionally scoped to destinations by name prefix.

Every stochastic choice draws from a named RNG stream derived from the
cluster's master seed (see :mod:`repro.sim.rng`), so an injected run is
bit-reproducible and — crucially — a plan with no injectors enabled
draws nothing and perturbs nothing: metrics stay bit-identical to a
fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.kernel.ops import Compute, Nanosleep
from repro.sim.rng import exponential


@dataclass(frozen=True)
class LeafSlowdown:
    """Inflate leaf service times: fixed multiplier plus a Pareto tail."""

    # Every affected sub-request's compute time is multiplied by this.
    multiplier: float = 1.0
    # With this probability, add a Pareto-distributed extra delay.
    tail_probability: float = 0.0
    # Pareto scale (minimum extra delay, µs) and shape (smaller = heavier).
    tail_scale_us: float = 1_000.0
    tail_alpha: float = 1.8
    # Leaf indices affected (None = every leaf).
    leaves: Optional[Tuple[int, ...]] = None

    def applies_to(self, leaf_index: int) -> bool:
        return self.leaves is None or leaf_index in self.leaves

    @property
    def active(self) -> bool:
        return self.multiplier != 1.0 or self.tail_probability > 0.0


@dataclass(frozen=True)
class LeafStall:
    """One leaf stops serving during [start, start+duration), then recovers."""

    start_us: float
    duration_us: float
    # "stall": requests park until recovery (SIGSTOP / long GC pause).
    # "crash": requests are dropped silently until recovery.
    mode: str = "stall"
    leaves: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.mode not in ("stall", "crash"):
            raise ValueError(f"bad stall mode: {self.mode}")

    def applies_to(self, leaf_index: int) -> bool:
        return leaf_index in self.leaves

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    @property
    def active(self) -> bool:
        return self.duration_us > 0.0


@dataclass(frozen=True)
class MidTierPressure:
    """Antagonist threads burning mid-tier CPU on a jittered duty cycle."""

    hog_threads: int = 2
    busy_us: float = 150.0
    # Mean idle gap between bursts (exponentially jittered so hogs don't
    # run in lockstep with each other or the RPC pools).
    idle_mean_us: float = 300.0

    @property
    def active(self) -> bool:
        return self.hog_threads > 0 and self.busy_us > 0.0


@dataclass(frozen=True)
class NetworkFault:
    """Fabric-level delay/jitter/drop, optionally scoped by dst prefix."""

    extra_delay_us: float = 0.0
    jitter_mean_us: float = 0.0
    drop_probability: float = 0.0
    # Only packets to endpoints whose name starts with this are affected
    # (e.g. "hds-leaf"); None hits every hop.
    dst_prefix: Optional[str] = None

    def __post_init__(self) -> None:
        # A negative delay would beat the fabric's base latency, which the
        # calendar relies on as a lower bound for every hop.
        for name in ("extra_delay_us", "jitter_mean_us"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"NetworkFault.{name} must be >= 0, got {value}")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                "NetworkFault.drop_probability must be in [0, 1],"
                f" got {self.drop_probability}"
            )

    def matches(self, dst_name: str) -> bool:
        return self.dst_prefix is None or dst_name.startswith(self.dst_prefix)

    @property
    def active(self) -> bool:
        return (
            self.extra_delay_us > 0.0
            or self.jitter_mean_us > 0.0
            or self.drop_probability > 0.0
        )


@dataclass(frozen=True)
class FaultPlan:
    """Everything injected into one cell.  All fields default to off."""

    leaf_slowdown: Optional[LeafSlowdown] = None
    leaf_stall: Optional[LeafStall] = None
    midtier_pressure: Optional[MidTierPressure] = None
    network: Optional[NetworkFault] = None

    @property
    def active(self) -> bool:
        """True when at least one injector would perturb the run."""
        return any(
            spec is not None and spec.active
            for spec in (
                self.leaf_slowdown,
                self.leaf_stall,
                self.midtier_pressure,
                self.network,
            )
        )

    def leaf_injector(self, leaf_index: int, machine) -> Optional["LeafFaultInjector"]:
        """The per-leaf injector for ``machine``, or None if nothing applies."""
        slowdown = self.leaf_slowdown
        if slowdown is not None and not (slowdown.active and slowdown.applies_to(leaf_index)):
            slowdown = None
        stall = self.leaf_stall
        if stall is not None and not (stall.active and stall.applies_to(leaf_index)):
            stall = None
        if slowdown is None and stall is None:
            return None
        return LeafFaultInjector(slowdown, stall, machine)

    def attach_midtier(self, machine) -> None:
        """Spawn the queue-pressure antagonists on a mid-tier machine."""
        pressure = self.midtier_pressure
        if pressure is None or not pressure.active:
            return
        for i in range(pressure.hog_threads):
            rng = machine.rng.py(f"fault:hog{i}")
            machine.spawn(f"fault-hog{i}", _hog_loop(pressure, rng))


class LeafFaultInjector:
    """Applies slowdown/stall decisions inside one leaf's serve path."""

    __slots__ = ("slowdown", "stall", "machine", "_rng")

    def __init__(
        self,
        slowdown: Optional[LeafSlowdown],
        stall: Optional[LeafStall],
        machine,
    ):
        self.slowdown = slowdown
        self.stall = stall
        self.machine = machine
        # One named stream per leaf machine: deterministic for a fixed
        # master seed, independent of every other subsystem's stream.
        self._rng = machine.rng.py("fault:leaf")

    def pre_serve(self, now: float) -> Tuple[str, float]:
        """Decision before serving: ("ok"|"stall"|"drop", stall_us)."""
        stall = self.stall
        if stall is not None and stall.start_us <= now < stall.end_us:
            if stall.mode == "crash":
                self.machine.telemetry.incr(f"fault_leaf_drops:{self.machine.name}")
                return "drop", 0.0
            self.machine.telemetry.incr(f"fault_leaf_stalls:{self.machine.name}")
            return "stall", stall.end_us - now
        return "ok", 0.0

    def inflate(self, compute_us: float) -> float:
        """Transform one sub-request's service time."""
        slowdown = self.slowdown
        if slowdown is None:
            return compute_us
        out = compute_us * slowdown.multiplier
        if slowdown.tail_probability > 0.0 and self._rng.random() < slowdown.tail_probability:
            # Pareto(scale, alpha): scale * U^(-1/alpha), heavy right tail.
            u = 1.0 - self._rng.random()
            out += slowdown.tail_scale_us * u ** (-1.0 / slowdown.tail_alpha)
            self.machine.telemetry.incr(f"fault_leaf_inflations:{self.machine.name}")
        return out


def _hog_loop(pressure: MidTierPressure, rng):
    """Antagonist thread body: burn CPU, sleep a jittered gap, repeat."""
    while True:
        yield Compute(pressure.busy_us, tag="fault-hog")
        yield Nanosleep(exponential(rng, pressure.idle_mean_us))
