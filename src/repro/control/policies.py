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
    # No policy reads these three and the controller passes None; the
    # fields stay because benchmarks/perf constructs WindowSummary with
    # them (DESIGN §10).
    mean_runq_us: Optional[float]
    inflight: Optional[float]
    inflight_per_replica: Optional[float]
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


class ThresholdHysteresisPolicy(ControlPolicy):
    """Scale on windowed p99 latency with hysteresis + cooldown.

    Between ``p99_low_us`` and ``p99_high_us`` the policy holds, so small
    oscillations of the metric never translate into scale flapping; the
    cooldown additionally lower-bounds the time between *any* two
    replica changes (proven by property test under adversarial inputs).
    Each change is one replica.
    """

    name = "threshold"

    def __init__(self, config: ControlConfig):
        super().__init__(config)
        self._last_change_us: Optional[float] = None

    def decide(self, summary: WindowSummary, now: float, active: int) -> ControlAction:
        cfg = self.config
        value = summary.p99_us
        if value is None:
            return ControlAction(target_active=active, mode=MODE_HOLD)
        if value > cfg.p99_high_us:
            mode = MODE_OVERLOAD
            want = active + 1
        elif value < cfg.p99_low_us:
            mode = MODE_BASELINE
            want = active - 1
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


_POLICY_TYPES = {
    "static": StaticPolicy,
    "threshold": ThresholdHysteresisPolicy,
}


def make_control_policy(config: ControlConfig) -> ControlPolicy:
    try:
        cls = _POLICY_TYPES[config.policy]
    except KeyError:
        raise ValueError(f"unknown control policy {config.policy!r}") from None
    return cls(config)
