"""Frozen configuration for the closed-loop control plane."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

CONTROL_POLICY_NAMES = ("static", "threshold")


@dataclass(frozen=True)
class ControlConfig:
    """Declarative description of one controller instance.

    ``enabled=False`` (the default) is a hard off switch: no controller,
    no telemetry windows, no warm replicas are constructed, and the run
    is bit-identical to a build without this config.  When enabled, the
    cluster provisions ``max_replicas`` mid-tier machines up front (a
    warm pool — modeling fast provisioning) and the controller activates
    or drains them through the load balancer; only admitting/draining
    replicas accrue replica-seconds.

    Actuation knobs follow a baseline/overload pair convention: ``None``
    means "never touch this knob"; otherwise the controller applies the
    overload value when the policy reports overload and restores the
    baseline value when it clears.
    """

    enabled: bool = False
    tick_us: float = 25_000.0
    window_us: float = 25_000.0
    policy: str = "static"

    # Replica bounds. The warm pool is sized max_replicas at build time;
    # initial_replicas of them admit traffic at t=0.
    min_replicas: int = 1
    max_replicas: int = 1
    initial_replicas: int = 1

    # threshold/hysteresis policy knobs (p99 of the signal series, us).
    p99_high_us: float = 5_000.0
    p99_low_us: float = 2_000.0
    cooldown_us: float = 50_000.0

    # Hedging re-thresholding: percentile pair applied on overload/baseline.
    hedge_percentile_overload: Optional[float] = None
    hedge_percentile_baseline: Optional[float] = None

    # Batch re-sizing: max_batch pair applied on overload/baseline.
    batch_max_overload: Optional[int] = None
    batch_max_baseline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tick_us <= 0:
            raise ValueError(f"tick_us must be positive, got {self.tick_us}")
        if self.window_us <= 0:
            raise ValueError(f"window_us must be positive, got {self.window_us}")
        if self.policy not in CONTROL_POLICY_NAMES:
            raise ValueError(
                f"unknown control policy {self.policy!r}; "
                f"expected one of {CONTROL_POLICY_NAMES}"
            )
        if self.min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {self.min_replicas}")
        if not (self.min_replicas <= self.initial_replicas <= self.max_replicas):
            raise ValueError(
                "replica bounds must satisfy min <= initial <= max, got "
                f"min={self.min_replicas} initial={self.initial_replicas} "
                f"max={self.max_replicas}"
            )
        if self.cooldown_us < 0:
            raise ValueError(f"cooldown_us must be >= 0, got {self.cooldown_us}")
        if self.p99_low_us > self.p99_high_us:
            raise ValueError(
                f"p99_low_us ({self.p99_low_us}) must not exceed "
                f"p99_high_us ({self.p99_high_us})"
            )
        for label, pct in (
            ("hedge_percentile_overload", self.hedge_percentile_overload),
            ("hedge_percentile_baseline", self.hedge_percentile_baseline),
        ):
            if pct is not None and not (0.0 < pct < 100.0):
                raise ValueError(f"{label} must be in (0, 100), got {pct}")
        for label, n in (
            ("batch_max_overload", self.batch_max_overload),
            ("batch_max_baseline", self.batch_max_baseline),
        ):
            if n is not None and n < 1:
                raise ValueError(f"{label} must be >= 1, got {n}")

    def to_dict(self) -> Dict[str, Any]:
        from dataclasses import asdict

        return asdict(self)
