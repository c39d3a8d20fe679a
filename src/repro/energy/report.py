"""Energy reports: pricing account snapshots in joules.

Durations accumulate in :mod:`repro.energy.account`; this module applies
the :class:`~repro.energy.config.EnergyConfig` power model at read time.
The simulation clock is microseconds, so one watt is one microjoule per
microsecond and every product below is ``duration_us × watts`` (or
``wakes × wake_uj``) with no unit conversion.

:meth:`EnergyReport.from_window` subtracts two account snapshots — the
run helpers take one when the measured window opens and one when it
closes — so a report covers exactly the window the latency metrics
cover, warm-up excluded, drain excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.energy.config import EnergyConfig


@dataclass
class EnergyReport:
    """One measured window's energy, cluster-wide and per machine."""

    duration_us: float
    completed: int
    #: Durations (µs of core-time) inside the window.
    active_us: float
    idle_us: Dict[str, float]
    wakes: Dict[str, int]
    #: The same window priced in microjoules.
    active_uj: float
    idle_uj: Dict[str, float]
    wakeup_uj: Dict[str, float]
    total_uj: float
    #: machine -> {active_uj, idle_uj, wakeup_uj, total_uj}.
    by_machine: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @classmethod
    def from_window(
        cls,
        config: EnergyConfig,
        start: Mapping[str, Mapping[str, object]],
        end: Mapping[str, Mapping[str, object]],
        completed: int,
        duration_us: float,
    ) -> "EnergyReport":
        """Price the delta between two account snapshots."""
        active_us = 0.0
        idle_us: Dict[str, float] = {}
        wakes: Dict[str, int] = {}
        by_machine: Dict[str, Dict[str, float]] = {}
        for name in sorted(end):
            first, last = start[name], end[name]
            m_active_us = last["active_us"] - first["active_us"]
            m_active_uj = m_active_us * config.active_w
            m_idle_uj = 0.0
            m_wake_uj = 0.0
            active_us += m_active_us
            for state in last["idle_us"]:
                span = last["idle_us"][state] - first["idle_us"][state]
                idle_us[state] = idle_us.get(state, 0.0) + span
                m_idle_uj += span * config.idle_watts(state)
            for state in last["wakes"]:
                n = last["wakes"][state] - first["wakes"][state]
                wakes[state] = wakes.get(state, 0) + n
                m_wake_uj += n * config.wake_joules_uj(state)
            by_machine[name] = {
                "active_uj": m_active_uj,
                "idle_uj": m_idle_uj,
                "wakeup_uj": m_wake_uj,
                "total_uj": m_active_uj + m_idle_uj + m_wake_uj,
            }
        active_uj = active_us * config.active_w
        idle_uj = {
            state: span * config.idle_watts(state)
            for state, span in sorted(idle_us.items())
        }
        wakeup_uj = {
            state: n * config.wake_joules_uj(state)
            for state, n in sorted(wakes.items())
        }
        return cls(
            duration_us=duration_us,
            completed=completed,
            active_us=active_us,
            idle_us=dict(sorted(idle_us.items())),
            wakes=dict(sorted(wakes.items())),
            active_uj=active_uj,
            idle_uj=idle_uj,
            wakeup_uj=wakeup_uj,
            total_uj=active_uj + sum(idle_uj.values()) + sum(wakeup_uj.values()),
            by_machine=by_machine,
        )

    # -- derived views -----------------------------------------------------
    @property
    def idle_uj_total(self) -> float:
        return sum(self.idle_uj.values())

    @property
    def wakeup_uj_total(self) -> float:
        return sum(self.wakeup_uj.values())

    @property
    def uj_per_query(self) -> float:
        """Microjoules per completed query (0 when nothing completed)."""
        return self.total_uj / self.completed if self.completed else 0.0

    @property
    def avg_power_w(self) -> float:
        """Mean cluster power over the window (µJ/µs == W)."""
        return self.total_uj / self.duration_us if self.duration_us else 0.0

    @property
    def wake_share(self) -> float:
        """Fraction of window energy spent on wakeup transitions."""
        return self.wakeup_uj_total / self.total_uj if self.total_uj else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (artifacts, equivalence comparisons)."""
        return {
            "duration_us": self.duration_us,
            "completed": self.completed,
            "active_us": self.active_us,
            "idle_us": dict(self.idle_us),
            "wakes": dict(self.wakes),
            "active_uj": self.active_uj,
            "idle_uj": dict(self.idle_uj),
            "wakeup_uj": dict(self.wakeup_uj),
            "idle_uj_total": self.idle_uj_total,
            "wakeup_uj_total": self.wakeup_uj_total,
            "total_uj": self.total_uj,
            "uj_per_query": self.uj_per_query,
            "avg_power_w": self.avg_power_w,
            "wake_share": self.wake_share,
            "by_machine": {
                name: dict(values) for name, values in self.by_machine.items()
            },
        }


__all__ = ["EnergyReport"]
