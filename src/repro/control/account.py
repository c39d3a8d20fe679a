"""Replica-seconds accounting.

The autoscale acceptance gate compares *cost*, not just tail latency:
the controller must hit the p99-recovery bar at materially fewer
replica-seconds than the best static configuration.  This ledger is the
single source of truth for that integral — a stepwise-constant count of
admitting+draining replicas over simulated time.  Warm parked replicas
(built but not admitting) are free by design: the model assumes
provisioning is cheap, and the gate only credits capacity that actually
serves or drains traffic.
"""

from __future__ import annotations

from typing import List, Tuple


class ReplicaSecondsAccount:
    """Append-only (time_us, active_count) event log with an exact
    stepwise integral."""

    def __init__(self, start_us: float, initial_count: int):
        if initial_count < 0:
            raise ValueError(f"initial_count must be >= 0, got {initial_count}")
        self._events: List[Tuple[float, int]] = [(start_us, initial_count)]

    @property
    def events(self) -> List[Tuple[float, int]]:
        return list(self._events)

    def note(self, now_us: float, count: int) -> None:
        """Record that the billable replica count is ``count`` from
        ``now_us`` on.  Times must be non-decreasing."""
        last_t, last_n = self._events[-1]
        if now_us < last_t:
            raise ValueError(
                f"replica-seconds events must be time-ordered: {now_us} < {last_t}"
            )
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == last_n:
            return
        if now_us == last_t:
            self._events[-1] = (now_us, count)
        else:
            self._events.append((now_us, count))

    def total(self, until_us: float) -> float:
        """Exact integral of the count over [start, until_us], in
        replica-seconds (events are microsecond-stamped)."""
        start = self._events[0][0]
        if until_us < start:
            raise ValueError(
                f"until_us ({until_us}) precedes account start ({start})"
            )
        total_us = 0.0
        for (t0, n0), (t1, _n1) in zip(self._events, self._events[1:]):
            if t1 >= until_us:
                total_us += n0 * (until_us - t0)
                return total_us / 1e6
            total_us += n0 * (t1 - t0)
        total_us += self._events[-1][1] * (until_us - self._events[-1][0])
        return total_us / 1e6
