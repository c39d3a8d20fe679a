"""Fixed-width metric windows for the control plane.

The :class:`~repro.telemetry.probes.Telemetry` hub aggregates whole-run
summaries; a controller instead needs *recent* behavior.  This module
adds an opt-in tee: when :meth:`Telemetry.enable_windows` is called, each
matching probe sample is also binned into a fixed-width
:class:`MetricWindow` keyed by ``int(now // width_us)``.  The tee sits in
front of the warm-up trim (``window_start``), so the controller sees
load from t=0, and :meth:`Telemetry.open_window` deliberately does *not*
clear windows — the control loop's view must survive the measurement
trim.

Determinism: binning is pure arithmetic on the event-engine clock.  When
windowing is disabled (the default) no object is constructed and no
probe path changes — a single ``is None`` test.

The concatenation property (proved in ``tests/test_control_properties``)
is that count/sum/min/max and percentile over all windows of a series,
concatenated, exactly equal the same aggregates over the whole run —
each sample lands in exactly one window, and the percentile is the same
:func:`~repro.telemetry.histogram.rank_percentile` as
:class:`LatencyHistogram`'s.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.histogram import rank_percentile

#: Windows the hub's tee retains per series, in both storage modes.  The
#: controller reads back one ``window_us`` (two windows at window
#: granularity); 64 leaves generous slack for any future reader while
#: keeping the tee O(1) in run length.
RETAIN_TEE_WINDOWS = 64


@dataclass
class MetricWindow:
    """Exact aggregates + samples for one series over one time bin.

    ``samples`` is an unboxed ``array('d')``, 8 bytes per value, as in
    :class:`~repro.telemetry.histogram.LatencyHistogram`."""

    index: int
    start_us: float
    end_us: float
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    samples: array = field(default_factory=lambda: array("d"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        return rank_percentile(sorted(self.samples), pct)


class WindowedMetrics:
    """Per-series fixed-width windows, filled by the telemetry tee.

    ``prefixes`` restricts which probe names are binned (empty = all):
    windowing every histogram in a large sweep would double telemetry
    memory for series the controller never reads.
    """

    def __init__(
        self,
        width_us: float,
        prefixes: Sequence[str] = (),
        retain_windows: Optional[int] = None,
    ):
        if width_us <= 0:
            raise ValueError(f"window width must be positive, got {width_us}")
        if retain_windows is not None and retain_windows < 1:
            raise ValueError(
                f"retain_windows must be >= 1, got {retain_windows}"
            )
        self.width_us = float(width_us)
        self.prefixes: Tuple[str, ...] = tuple(prefixes)
        # None keeps every window; an integer (the tee's) keeps
        # only the most recent N per series — readers that look back at
        # most (N-1) windows (the controller reads one window_us) see
        # identical values, but memory stays O(retained), not O(run).
        self.retain_windows = retain_windows
        self._series: Dict[str, Dict[int, MetricWindow]] = {}

    def wants(self, name: str) -> bool:
        return not self.prefixes or name.startswith(self.prefixes)

    def observe(self, name: str, now_us: float, value: float) -> None:
        if not self.wants(name):
            return
        series = self._series.get(name)
        if series is None:
            series = {}
            self._series[name] = series
        idx = int(now_us // self.width_us)
        window = series.get(idx)
        if window is None:
            # Both edges come from the same grid expression, so window k's
            # end_us is bit-equal to window k+1's start_us.  Computing the
            # end as ``start + width`` instead can exceed the next grid
            # point by one ulp for widths that are not exactly
            # representable, making the window overlap both sides of a
            # window-aligned cut in windows_between (a double count).
            window = MetricWindow(
                index=idx,
                start_us=idx * self.width_us,
                end_us=(idx + 1) * self.width_us,
            )
            series[idx] = window
            if self.retain_windows is not None:
                horizon = idx - self.retain_windows
                for old in [k for k in series if k <= horizon]:
                    del series[old]
        window.observe(value)

    # -- reads -------------------------------------------------------------
    def retained_samples(self) -> int:
        """Raw samples currently held across every series and window."""
        return sum(
            len(window.samples)
            for series in self._series.values()
            for window in series.values()
        )

    def names(self) -> List[str]:
        return sorted(self._series)

    def windows(self, name: str) -> List[MetricWindow]:
        """All windows of a series, in time order."""
        series = self._series.get(name, {})
        return [series[idx] for idx in sorted(series)]

    def windows_between(self, name: str, t0_us: float, t1_us: float) -> List[MetricWindow]:
        """Windows overlapping [t0_us, t1_us).  Selection is at window
        granularity: a window belongs to the range when it intersects it."""
        return [
            w for w in self.windows(name)
            if w.end_us > t0_us and w.start_us < t1_us
        ]

    def values_between(
        self, names: Sequence[str], t0_us: float, t1_us: float
    ) -> List[float]:
        """Concatenated samples of several series over a span (window
        granularity), in (series, time) order — deterministic."""
        out: List[float] = []
        for name in names:
            for w in self.windows_between(name, t0_us, t1_us):
                out.extend(w.samples)
        return out
