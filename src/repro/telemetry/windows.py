"""Fixed-width metric windows for the control plane.

The :class:`~repro.telemetry.probes.Telemetry` hub aggregates whole-run
summaries; a controller instead needs *recent* behavior.  This module
adds an opt-in tee: when :meth:`Telemetry.enable_windows` is called, each
sample of a watched series is also binned into a fixed-width window
keyed by ``int(now // width_us)``.  The tee sits in front of the warm-up
trim (``window_start``), so the controller sees load from t=0, and
:meth:`Telemetry.open_window` deliberately does *not* clear windows — the
control loop's view must survive the measurement trim.

A window is its raw samples only, an unboxed ``array('d')`` (8 bytes per
value, as in :class:`~repro.telemetry.histogram.LatencyHistogram`): the
controller's one read is :meth:`WindowedMetrics.values_between`.

Determinism: binning is pure arithmetic on the event-engine clock.  When
windowing is disabled (the default) no object is constructed and no
probe path changes — a single ``is None`` test.

The concatenation property (proved in ``tests/test_control_properties``)
is that the samples of all windows of a series, concatenated, are the
series' whole record in order — each sample lands in exactly one window.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

#: Windows the hub's tee retains per series, in both storage modes.  The
#: controller reads back one ``window_us`` (two windows at window
#: granularity); 64 leaves generous slack for any future reader while
#: keeping the tee O(1) in run length.
RETAIN_TEE_WINDOWS = 64


class WindowedMetrics:
    """Per-series fixed-width windows, filled by the telemetry tee.

    ``prefixes`` restricts which series are binned (empty = all).  The
    hub's tee passes none: it observes only the exact series its
    controllers read (:meth:`Telemetry.enable_windows`).
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
        # series name -> window index -> that window's samples.
        self._series: Dict[str, Dict[int, array]] = {}

    def observe(self, name: str, now_us: float, value: float) -> None:
        if self.prefixes and not name.startswith(self.prefixes):
            return
        series = self._series.get(name)
        if series is None:
            series = {}
            self._series[name] = series
        idx = int(now_us // self.width_us)
        window = series.get(idx)
        if window is None:
            window = series[idx] = array("d")
            if self.retain_windows is not None:
                horizon = idx - self.retain_windows
                for old in [k for k in series if k <= horizon]:
                    del series[old]
        window.append(value)

    # -- reads -------------------------------------------------------------
    def retained_samples(self) -> int:
        """Raw samples currently held across every series and window."""
        return sum(
            len(window)
            for series in self._series.values()
            for window in series.values()
        )

    def values_between(
        self, names: Sequence[str], t0_us: float, t1_us: float
    ) -> List[float]:
        """Concatenated samples of several series over a span, in (series,
        time) order — deterministic.  Selection is at window granularity:
        a window belongs to the span when it intersects [t0_us, t1_us).
        Both edges of window k come from the same grid expression, so
        window k's end is bit-equal to window k+1's start: computing the
        end as ``start + width`` instead can exceed the next grid point
        by one ulp, and a window-aligned cut would then count a window on
        both sides."""
        width = self.width_us
        out: List[float] = []
        for name in names:
            series = self._series.get(name, {})
            for idx in sorted(series):
                if (idx + 1) * width > t0_us and idx * width < t1_us:
                    out.extend(series[idx])
        return out
