"""Dynamic block/poll and thread-pool adaptation (paper §VII, future work).

The paper's discussion proposes two adaptation systems this module builds:

* "Future microservice monitoring systems could then dynamically switch
  between block- and poll-based designs" — blocking conserves CPU but
  pays thread-wakeup latency; polling is the reverse.  The adaptive
  runtime polls at low load (wakeups dominate, CPU is free) and blocks at
  high load (CPU is precious, threads rarely sleep anyway).
* "A user-level thread scheduler that dynamically selects suitable thread
  pool sizes can reduce thread contention and improve scalability" — the
  monitor resizes the *active* worker pool to track offered load, keeping
  spare workers parked off the task-queue condvar entirely.

A monitor thread samples the request arrival rate every
``SAMPLE_INTERVAL_US`` and applies both decisions with hysteresis.
(The authors' follow-up paper, µTune at OSDI '18, builds exactly this
kind of framework.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.kernel.machine import Machine
from repro.kernel.ops import Nanosleep
from repro.midcache import QueryCache
from repro.rpc.apps import MidTierApp
from repro.rpc.batching import BatchConfig
from repro.rpc.policy import TailPolicy
from repro.rpc.server import MidTierRuntime, RuntimeConfig

Address = Tuple[str, int]

#: The monitor's sampling period; the thresholds below are hysteretic.
SAMPLE_INTERVAL_US = 20_000.0
#: Below this offered load, switch reception to polling (cheap CPU, big
#: wakeup-latency win); above the high mark, back to blocking.
POLL_BELOW_QPS = 800.0
BLOCK_ABOVE_QPS = 2_000.0
#: Active workers sized so each handles about this many QPS.
PER_WORKER_QPS = 700.0
MIN_WORKERS = 2


class AdaptiveMidTierRuntime(MidTierRuntime):
    """A mid-tier runtime with the §VII monitor attached."""

    def __init__(
        self,
        machine: Machine,
        port: int,
        app: MidTierApp,
        leaf_addrs: Sequence[Address],
        config: RuntimeConfig,
        tail_policy: Optional[TailPolicy] = None,
        batch_config: Optional[BatchConfig] = None,
        cache: Optional[QueryCache] = None,
    ):
        self.mode_switches = 0
        self.resizes = 0
        self.mode_history: List[Tuple[float, str]] = []
        self.resize_history: List[Tuple[float, int]] = []
        super().__init__(
            machine, port, app, leaf_addrs, config, tail_policy=tail_policy,
            batch_config=batch_config, cache=cache,
        )
        machine.spawn("adapt-monitor", self._monitor_loop())

    # -- the monitor ------------------------------------------------------------
    def _monitor_loop(self):
        last_received = self.received
        while True:
            yield Nanosleep(SAMPLE_INTERVAL_US)
            received = self.received
            rate_qps = (received - last_received) / (SAMPLE_INTERVAL_US / 1e6)
            last_received = received
            self._adapt_reception(rate_qps)
            self._adapt_pool(rate_qps)

    def _adapt_reception(self, rate_qps: float) -> None:
        mode = self.config.reception_mode
        if mode == "blocking" and rate_qps < POLL_BELOW_QPS:
            self._switch_mode("polling")
        elif mode == "polling" and rate_qps > BLOCK_ABOVE_QPS:
            self._switch_mode("blocking")

    def _switch_mode(self, mode: str) -> None:
        self.config = replace(self.config, reception_mode=mode)
        self.mode_switches += 1
        self.mode_history.append((self.machine.sim.now, mode))

    def _adapt_pool(self, rate_qps: float) -> None:
        wanted = max(
            MIN_WORKERS,
            min(self.config.worker_threads, int(rate_qps / PER_WORKER_QPS) + 1),
        )
        if wanted != self.active_workers:
            self.active_workers = wanted
            self.resizes += 1
            self.resize_history.append((self.machine.sim.now, wanted))


def make_midtier_runtime(
    machine: Machine,
    port: int,
    app: MidTierApp,
    leaf_addrs: Sequence[Address],
    config: RuntimeConfig,
    tail_policy: Optional[TailPolicy] = None,
    batch_config: Optional[BatchConfig] = None,
    cache: Optional[QueryCache] = None,
) -> MidTierRuntime:
    """Construct the right mid-tier runtime for ``config``."""
    runtime = AdaptiveMidTierRuntime if config.adaptive else MidTierRuntime
    return runtime(
        machine, port, app, leaf_addrs, config, tail_policy=tail_policy,
        batch_config=batch_config, cache=cache,
    )
