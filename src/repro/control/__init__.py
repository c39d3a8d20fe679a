"""Closed-loop control plane: autoscaling and runtime re-thresholding.

Everything the suite measures is knob-driven — mid-tier replica count,
hedging percentiles, batch sizes — and until this package every knob was
frozen per run.  The paper's core finding (OS and queueing overheads
shift with load) means a single static configuration is wrong across a
diurnal day; this package closes the loop.  A :class:`Controller` runs
*inside* the event engine on a configurable tick, reads fixed-width
telemetry windows (:mod:`repro.telemetry.windows`), feeds them to a
pluggable :class:`ControlPolicy`, and actuates:

* mid-tier replica count, via live activate/drain on the
  :class:`~repro.rpc.loadbalance.LoadBalancer` (drain-before-retire on
  scale-in, so no request is dropped or answered twice);
* hedging percentile thresholds, via
  :meth:`~repro.rpc.server.MidTierRuntime.set_tail_policy`;
* batch sizes, via
  :meth:`~repro.rpc.server.MidTierRuntime.set_batch_max`.

Determinism contract: the controller draws no randomness, its tick lives
on the ordinary event calendar, and a :class:`ControlConfig` with
``enabled=False`` (the default everywhere) constructs nothing — every
pre-controller golden stays bit-identical.
"""

from repro.control.account import ReplicaSecondsAccount
from repro.control.config import CONTROL_POLICY_NAMES, ControlConfig
from repro.control.controller import Controller
from repro.control.policies import (
    ControlAction,
    ControlPolicy,
    StaticPolicy,
    ThresholdHysteresisPolicy,
    WindowSummary,
    make_control_policy,
)

__all__ = [
    "CONTROL_POLICY_NAMES",
    "ControlAction",
    "ControlConfig",
    "ControlPolicy",
    "Controller",
    "ReplicaSecondsAccount",
    "StaticPolicy",
    "ThresholdHysteresisPolicy",
    "WindowSummary",
    "make_control_policy",
]
