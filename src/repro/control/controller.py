"""The closed-loop controller: tick → window summary → policy → actuate.

One :class:`Controller` instance supervises one mid-tier service: its
replicated runtimes, the load balancer fronting them (when replicated),
and the telemetry windows feeding the policy.  It runs *inside* the
event engine — the tick is an ordinary ``sim.call_in`` timer — and draws
no randomness, so a run with a controller is just as deterministic as
one without: double runs are byte-identical.

Actuation paths:

* **replicas** — ``lb.activate_replica`` on parked warm-pool members to
  scale out, ``lb.drain_replica`` (drain-before-retire) to scale in.
  Outstanding requests on a draining replica complete normally; the
  retire callback fires only when the last one returns.
* **hedging** — ``runtime.set_tail_policy`` with the baseline/overload
  percentile pair from :class:`ControlConfig` (re-thresholding only;
  the layer is never toggled).
* **batching** — ``runtime.set_batch_max`` with the baseline/overload
  ``max_batch`` pair.

Cost accounting: a :class:`ReplicaSecondsAccount` bills every replica
that is admitting or draining; warm parked replicas are free (the model
assumes cheap provisioning — the gate only credits serving capacity).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.control.account import ReplicaSecondsAccount
from repro.control.config import ControlConfig
from repro.control.policies import (
    MODE_BASELINE,
    MODE_HOLD,
    MODE_OVERLOAD,
    WindowSummary,
    make_control_policy,
)
from repro.telemetry.histogram import rank_percentile

class Controller:
    """Deterministic per-service autoscaling loop."""

    def __init__(
        self,
        sim,
        telemetry,
        config: ControlConfig,
        name: str,
        runtimes: Sequence,
        lb=None,
        signals: Sequence[str] = (),
    ):
        if telemetry.windows is None:
            raise ValueError(
                "Controller requires telemetry windows: call "
                "telemetry.enable_windows() before constructing it"
            )
        self.sim = sim
        self.telemetry = telemetry
        self.config = config
        self.name = name
        self.runtimes = list(runtimes)
        self.lb = lb
        self.signals = list(signals)
        self.policy = make_control_policy(config)
        # Baseline knob snapshots, restored whenever overload clears.
        self._base_policies = [rt.tail_policy for rt in self.runtimes]
        self._base_batch = [
            rt.batcher.config.max_batch if rt.batcher is not None else None
            for rt in self.runtimes
        ]
        self._mode = MODE_BASELINE
        self._timer = None
        self._running = False
        # Billing starts at construction time with the initial admitting set.
        self.account = ReplicaSecondsAccount(sim.now, self._billable())
        # Accounting for reports.
        self.ticks = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.retires = 0
        self.hedge_retunes = 0
        self.batch_retunes = 0
        self.scale_events: List[tuple] = []
        self.mode_events: List[tuple] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._timer = self.sim.call_in(self.config.tick_us, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- observation -------------------------------------------------------
    def _admitting(self) -> int:
        return self.lb.admitting_count if self.lb is not None else 1

    def _billable(self) -> int:
        if self.lb is None:
            return 1
        return self.lb.admitting_count + self.lb.draining_count

    def window_summary(self) -> WindowSummary:
        """Merge the last window's worth of the signal series (the only
        series the tee keeps for this controller)."""
        now = self.sim.now
        signal_values = self.telemetry.windows.values_between(
            self.signals, now - self.config.window_us, now
        )
        return WindowSummary(
            p99_us=(
                rank_percentile(sorted(signal_values), 99.0)
                if signal_values else None
            ),
            mean_runq_us=None,
            inflight=None,
            inflight_per_replica=None,
            samples=len(signal_values),
        )

    # -- actuation ---------------------------------------------------------
    def _on_retired(self, index: int) -> None:
        self.retires += 1
        self.account.note(self.sim.now, self._billable())

    def _apply_replicas(self, target_active: int) -> None:
        lb = self.lb
        if lb is None:
            return
        cfg = self.config
        target = max(cfg.min_replicas, min(cfg.max_replicas, target_active))
        current = lb.admitting_count
        if target > current:
            for index, admitting in enumerate(lb.active):
                if current >= target:
                    break
                if not admitting:
                    lb.activate_replica(index)
                    current += 1
                    self.scale_ups += 1
                    self.scale_events.append((self.sim.now, "up", current))
        elif target < current:
            for index in range(len(lb.active) - 1, -1, -1):
                if current <= target:
                    break
                if lb.active[index]:
                    lb.drain_replica(index, self._on_retired)
                    current -= 1
                    self.scale_downs += 1
                    self.scale_events.append((self.sim.now, "down", current))
        self.account.note(self.sim.now, self._billable())

    def _apply_mode(self, mode: str) -> None:
        if mode == MODE_HOLD or mode == self._mode:
            return
        self._mode = mode
        self.mode_events.append((self.sim.now, mode))
        cfg = self.config
        overload = mode == MODE_OVERLOAD
        hedge_pct = (
            cfg.hedge_percentile_overload if overload
            else cfg.hedge_percentile_baseline
        )
        for i, rt in enumerate(self.runtimes):
            base = self._base_policies[i]
            if base is not None and cfg.hedge_percentile_overload is not None:
                if hedge_pct is not None:
                    rt.set_tail_policy(replace(base, hedge_percentile=hedge_pct))
                else:
                    rt.set_tail_policy(base)
                self.hedge_retunes += 1
            base_batch = self._base_batch[i]
            if base_batch is not None and cfg.batch_max_overload is not None:
                batch_max = (
                    cfg.batch_max_overload if overload
                    else (cfg.batch_max_baseline or base_batch)
                )
                rt.set_batch_max(batch_max)
                self.batch_retunes += 1

    # -- the loop ----------------------------------------------------------
    def _tick(self) -> None:
        self.ticks += 1
        now = self.sim.now
        summary = self.window_summary()
        action = self.policy.decide(summary, now, self._admitting())
        if action.target_active != self._admitting():
            self._apply_replicas(action.target_active)
        self._apply_mode(action.mode)
        if self._running:
            self._timer = self.sim.call_in(self.config.tick_us, self._tick)

    # -- reporting ---------------------------------------------------------
    def replica_seconds(self, until_us: Optional[float] = None) -> float:
        return self.account.total(self.sim.now if until_us is None else until_us)

    def stats(self) -> Dict[str, object]:
        return {
            "policy": self.policy.name,
            "ticks": self.ticks,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "retires": self.retires,
            "hedge_retunes": self.hedge_retunes,
            "batch_retunes": self.batch_retunes,
            "mode": self._mode,
            "scale_events": [
                [t, kind, n] for (t, kind, n) in self.scale_events
            ],
            "replica_seconds": self.replica_seconds(),
        }
