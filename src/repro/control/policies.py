"""Pluggable scaling policies for the control loop.

A policy is a pure, deterministic function of the windowed telemetry
summary and its own bounded internal state — no randomness, no clock
access beyond the ``now`` it is handed.  That keeps the controller on
the event engine's total order and makes double runs byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.control.config import ControlConfig

# Policy mode verdicts. "hold" means "no opinion this tick": replica
# count and knob modes both stay where they are.
MODE_BASELINE = "baseline"
MODE_OVERLOAD = "overload"
MODE_HOLD = "hold"


@dataclass(frozen=True)
class WindowSummary:
    """What a policy sees each tick: one window of merged telemetry."""

    p99_us: Optional[float]  # p99 of the signal series; None if no samples
    # No policy reads it and the controller passes None; the field stays
    # because benchmarks/perf constructs WindowSummary with it (DESIGN §10).
    mean_runq_us: Optional[float]
    inflight: float  # total in-flight (balancer outstanding + backlog)
    inflight_per_replica: float  # inflight / admitting replicas
    samples: int  # sample count backing p99_us


@dataclass(frozen=True)
class ControlAction:
    """Policy verdict: desired admitting-replica count plus a mode."""

    target_active: int
    mode: str  # MODE_BASELINE | MODE_OVERLOAD | MODE_HOLD


class ControlPolicy:
    """Base policy: hold everything, forever."""

    name = "static"

    def __init__(self, config: ControlConfig):
        self.config = config

    def decide(self, summary: WindowSummary, now: float, active: int) -> ControlAction:
        raise NotImplementedError


class StaticPolicy(ControlPolicy):
    """Never actuates: replica count and knobs stay at their initial
    values.  This is the differential-test anchor — a controller running
    StaticPolicy must reproduce the equivalent static cluster
    sample-for-sample."""

    name = "static"

    def decide(self, summary: WindowSummary, now: float, active: int) -> ControlAction:
        return ControlAction(target_active=active, mode=MODE_HOLD)


class _HysteresisBase(ControlPolicy):
    """Shared scaffolding: cooldown gating + two-threshold hysteresis.

    Subclasses supply the scalar being compared via :meth:`_signal` and
    the (low, high) band.  Between the thresholds the policy holds, so
    small oscillations of the metric never translate into scale flapping;
    the cooldown additionally lower-bounds the time between *any* two
    replica changes (proven by property test under adversarial inputs).
    """

    def __init__(self, config: ControlConfig):
        super().__init__(config)
        self._last_change_us: Optional[float] = None

    def _signal(self, summary: WindowSummary) -> Optional[float]:
        raise NotImplementedError

    def _band(self) -> tuple:
        raise NotImplementedError

    def decide(self, summary: WindowSummary, now: float, active: int) -> ControlAction:
        cfg = self.config
        value = self._signal(summary)
        if value is None:
            return ControlAction(target_active=active, mode=MODE_HOLD)
        low, high = self._band()
        if value > high:
            mode = MODE_OVERLOAD
            want = active + cfg.step
        elif value < low:
            mode = MODE_BASELINE
            want = active - cfg.step
        else:
            return ControlAction(target_active=active, mode=MODE_HOLD)
        want = max(cfg.min_replicas, min(cfg.max_replicas, want))
        if want != active:
            in_cooldown = (
                self._last_change_us is not None
                and now - self._last_change_us < cfg.cooldown_us
            )
            if in_cooldown:
                want = active
            else:
                self._last_change_us = now
        return ControlAction(target_active=want, mode=mode)


class ThresholdHysteresisPolicy(_HysteresisBase):
    """Scale on windowed p99 latency with hysteresis + cooldown."""

    name = "threshold"

    def _signal(self, summary: WindowSummary) -> Optional[float]:
        return summary.p99_us

    def _band(self) -> tuple:
        return (self.config.p99_low_us, self.config.p99_high_us)


class AdditiveIncreasePolicy(_HysteresisBase):
    """Additive-increase step scaling on mean in-flight per replica."""

    name = "additive"

    def _signal(self, summary: WindowSummary) -> Optional[float]:
        return summary.inflight_per_replica

    def _band(self) -> tuple:
        return (self.config.inflight_low, self.config.inflight_high)


_POLICY_TYPES = {
    "static": StaticPolicy,
    "threshold": ThresholdHysteresisPolicy,
    "additive": AdditiveIncreasePolicy,
}


def make_control_policy(config: ControlConfig) -> ControlPolicy:
    try:
        cls = _POLICY_TYPES[config.policy]
    except KeyError:
        raise ValueError(f"unknown control policy {config.policy!r}") from None
    return cls(config)
