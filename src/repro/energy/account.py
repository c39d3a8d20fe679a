"""Deterministic per-core energy accounting over the scheduler timeline.

The scheduler already maintains an exact per-core state timeline — a
core is busy from the dispatch that clears ``idle_since`` until the
``_switch_away`` that sets it again.  :class:`MachineEnergy` listens at
exactly those two transition points (see the guarded hooks in
:mod:`repro.kernel.scheduler`) and accumulates *durations*:

* ``active_us`` — total core-microseconds spent busy;
* ``idle_us[state]`` — idle core-microseconds split stepwise across the
  C-state descent: an idle span's first microseconds up to the C1E
  threshold are C1 time, the stretch up to the C6 threshold is C1E
  time, and the remainder is C6 time (thresholds come from the
  machine's :class:`~repro.kernel.config.OsCosts.cstates` table, so a
  costs override with deep states disabled is priced consistently);
* ``wake_counts[state]`` — wakeup transitions, keyed by the state the
  kernel charged the exit latency for.

Multiplication by watts is deferred to report time
(:mod:`repro.energy.report`): durations are exact sums of simulator
timestamps, so the account itself is bit-deterministic and
power-model-independent.

Accounting is strictly passive: it never touches the event calendar,
never draws randomness and never reads or writes the telemetry hub — a
window's energy is the difference of two :meth:`snapshot` calls, which
is why the buffered and streaming telemetry modes report identical
energy (the aggregation mode cannot reach the account).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.energy.config import EnergyConfig
from repro.kernel.config import OsCosts


def idle_portions(
    thresholds: Tuple[Tuple[str, float], ...], duration_us: float
) -> List[Tuple[str, float]]:
    """Split one idle span stepwise across the C-state descent.

    ``thresholds`` is ``((state, min_idle_us), ...)`` sorted ascending
    (the kernel's cstates table); a span of ``duration_us`` spends
    ``[min_idle_i, min_idle_i+1)`` in state ``i``.  Returns only the
    non-empty portions, in descent order; their sum telescopes back to
    ``duration_us`` exactly for integer-µs inputs.
    """
    portions: List[Tuple[str, float]] = []
    for i, (state, lo) in enumerate(thresholds):
        hi = thresholds[i + 1][1] if i + 1 < len(thresholds) else math.inf
        if duration_us <= lo:
            break
        portions.append((state, min(duration_us, hi) - lo))
    return portions


class MachineEnergy:
    """The per-core energy account of one machine.

    Cores start idle at the same origin the scheduler uses
    (``Core.idle_since = 0.0``), so the first wakeup's span matches the
    kernel's own ``idle_time`` byte for byte.
    """

    __slots__ = (
        "name",
        "n_cores",
        "active_us",
        "idle_us",
        "wake_counts",
        "_thresholds",
        "_busy_from",
        "_idle_from",
    )

    def __init__(self, name: str, n_cores: int, costs: OsCosts):
        self.name = name
        self.n_cores = n_cores
        self._thresholds: Tuple[Tuple[str, float], ...] = tuple(
            (point.name, point.min_idle_us) for point in costs.cstates
        )
        self.active_us = 0.0
        self.idle_us: Dict[str, float] = {
            state: 0.0 for state, _lo in self._thresholds
        }
        self.wake_counts: Dict[str, int] = {
            state: 0 for state, _lo in self._thresholds
        }
        self._busy_from: List[float] = [0.0] * n_cores
        self._idle_from: List[Optional[float]] = [0.0] * n_cores

    # -- scheduler hooks ---------------------------------------------------
    def on_wake(
        self, core_index: int, idle_start: float, now: float, state: str
    ) -> None:
        """Close the idle span ``[idle_start, now)``; the core is busy.

        ``state`` is the C-state the kernel charged the exit latency
        for — the wake transition is counted against it.
        """
        for portion_state, portion in idle_portions(
            self._thresholds, now - idle_start
        ):
            self.idle_us[portion_state] += portion
        self.wake_counts[state] += 1
        self._busy_from[core_index] = now
        self._idle_from[core_index] = None

    def on_sleep(self, core_index: int, now: float) -> None:
        """Close the busy span ending at ``now``; the core is idle."""
        if self._idle_from[core_index] is not None:
            return  # already idle (paired with the scheduler's own guard)
        span = now - self._busy_from[core_index]
        self.active_us += span
        self._idle_from[core_index] = now

    # -- snapshots ---------------------------------------------------------
    def snapshot(self, now: float) -> Dict[str, object]:
        """Cumulative durations and wake counts as of ``now``.

        Open spans are integrated up to ``now`` non-destructively, so a
        window's energy is the plain difference of two snapshots — and
        snapshot deltas are additive over adjacent windows (the
        telescoping the property suite checks).
        """
        active = self.active_us
        idle = dict(self.idle_us)
        for core in range(self.n_cores):
            idle_from = self._idle_from[core]
            if idle_from is None:
                active += now - self._busy_from[core]
            else:
                for state, portion in idle_portions(
                    self._thresholds, now - idle_from
                ):
                    idle[state] += portion
        return {
            "active_us": active,
            "idle_us": idle,
            "wakes": dict(self.wake_counts),
        }


class EnergyAccount:
    """All machines' energy accounts for one cluster."""

    def __init__(self, config: EnergyConfig, costs: OsCosts, telemetry=None):
        # ``telemetry`` is unused (the account never tees); still accepted
        # because benchmarks/perf passes it.
        if not config.enabled:
            raise ValueError("EnergyAccount requires an enabled EnergyConfig")
        # Fail fast if the cost model has a C-state the power model
        # cannot price, instead of a KeyError mid-report.
        for point in costs.cstates:
            config.idle_watts(point.name)
            config.wake_joules_uj(point.name)
        self.config = config
        self.costs = costs
        self.machines: Dict[str, MachineEnergy] = {}

    def add_machine(self, name: str, n_cores: int) -> MachineEnergy:
        """Register one machine; returns the account its scheduler hooks."""
        if name in self.machines:
            raise ValueError(f"machine already registered: {name}")
        machine = MachineEnergy(name, n_cores, self.costs)
        self.machines[name] = machine
        return machine

    def snapshot(self, now: float) -> Dict[str, Dict[str, object]]:
        """Per-machine cumulative snapshot (see MachineEnergy.snapshot)."""
        return {
            name: machine.snapshot(now)
            for name, machine in sorted(self.machines.items())
        }


__all__ = ["EnergyAccount", "MachineEnergy", "idle_portions"]
