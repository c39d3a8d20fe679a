"""Reservoir-sampled latency histograms with percentile summaries."""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.rng import seeded_py


def rank_percentile(ordered: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0..100) of an already-sorted sequence:
    linear interpolation between closest ranks, 0.0 when empty."""
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    # low + frac*(high-low) is exact when both ranks hold equal values,
    # keeping percentiles monotone under floating point.
    return ordered[low] + frac * (ordered[high] - ordered[low])


class LatencyHistogram:
    """Streaming latency statistics with a bounded-memory sample reservoir.

    Tracks exact count / sum / min / max and keeps up to ``reservoir_size``
    samples (uniform reservoir sampling) for percentile estimation.  For
    runs below the reservoir size the percentiles are exact.

    Samples are held unboxed, in an ``array('d')``: 8 bytes each, where a
    float object in a list costs 32.  Recording is the
    probe layer's innermost loop (runqlat and softirq samples arrive once
    per scheduler event), so the common case — fewer samples than the
    reservoir holds — is one ``array.append``; the exact count/sum/min/max
    are computed lazily from the buffer with C-speed builtins, which read
    the same doubles in the same order a list would hold.  Once the
    reservoir fills, recording switches to the classic per-sample
    algorithm, consuming the RNG in exactly the same order as a
    sample-at-a-time implementation (bit-identical percentiles).  The RNG
    is created at that seal: nothing draws from it earlier.
    """

    __slots__ = (
        "reservoir_size",
        "_seed",
        "_rng",
        "_samples",
        "_sampling",
        "_count",
        "_total",
        "_min",
        "_max",
        "_sorted_cache",
    )

    def __init__(self, reservoir_size: int = 100_000, seed: int = 0):
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.reservoir_size = reservoir_size
        self._seed = seed
        self._rng = None  # seeded when the reservoir seals
        self._samples = array("d")
        # False while the buffer still holds every sample; True once the
        # reservoir is full and per-sample replacement has begun.
        self._sampling = False
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._sorted_cache: Optional[array] = None

    def reset(self) -> None:
        """Forget every sample; the RNG is seeded afresh at the next seal,
        so a reset histogram behaves identically to a freshly constructed
        one."""
        self._rng = None
        del self._samples[:]
        self._sampling = False
        self._count = 0
        self._total = 0.0
        self._min = None
        self._max = None
        self._sorted_cache = None

    # -- recording ---------------------------------------------------------
    def record(self, value: float) -> None:
        """Add one latency sample (microseconds)."""
        if not self._sampling:
            samples = self._samples
            samples.append(value)
            self._sorted_cache = None
            if len(samples) >= self.reservoir_size:
                self._seal()
            return
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._sorted_cache = None
        slot = self._rng.randrange(self._count)
        if slot < self.reservoir_size:
            self._samples[slot] = value

    def _seal(self) -> None:
        """Reservoir is full: fold the buffer into exact running stats and
        switch to per-sample reservoir replacement."""
        samples = self._samples
        self._count = len(samples)
        self._total = sum(samples)  # left-to-right, same order as += per sample
        self._min = min(samples)
        self._max = max(samples)
        self._rng = seeded_py(self._seed)
        self._sampling = True

    def extend(self, values: Iterable[float]) -> None:
        """Add many samples."""
        record = self.record
        for value in values:
            record(value)

    # -- exact stats -------------------------------------------------------
    @property
    def count(self) -> int:
        """Total samples recorded."""
        return self._count if self._sampling else len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all recorded samples."""
        return self._total if self._sampling else sum(self._samples)

    @property
    def min(self) -> Optional[float]:
        """Smallest sample (None when empty)."""
        if self._sampling:
            return self._min
        return min(self._samples) if self._samples else None

    @property
    def max(self) -> Optional[float]:
        """Largest sample (None when empty)."""
        if self._sampling:
            return self._max
        return max(self._samples) if self._samples else None

    @property
    def mean(self) -> float:
        """Arithmetic mean of all recorded samples (0 when empty)."""
        count = self.count
        return self.total / count if count else 0.0

    # -- percentiles -------------------------------------------------------
    def percentile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (0..100) from the reservoir."""
        ordered = self._sorted_cache
        if ordered is None:
            ordered = self._sorted_cache = array("d", sorted(self._samples))
        return rank_percentile(ordered, pct)

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.percentile(50.0)

    def summary(self, percentiles: Iterable[float] = (50, 90, 95, 99, 99.9)) -> Dict[str, float]:
        """A dict of count / mean / min / max plus requested percentiles."""
        result: Dict[str, float] = {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min or 0.0,
            "max": self.max or 0.0,
        }
        for pct in percentiles:
            key = f"p{pct:g}"
            result[key] = self.percentile(pct)
        return result

    def samples(self) -> List[float]:
        """A copy of the reservoir samples (for violin-style plots)."""
        return self._samples.tolist()

    @classmethod
    def merged(
        cls, parts: Iterable["LatencyHistogram"], reservoir_size: Optional[int] = None
    ) -> "LatencyHistogram":
        """Combine several histograms into one (per-replica roll-ups).

        Replays each part's reservoir in order, so the merge is
        deterministic; while all parts fit in the result's reservoir the
        combined percentiles are exact.
        """
        parts = list(parts)
        if reservoir_size is None:
            reservoir_size = max(
                [part.reservoir_size for part in parts], default=100_000
            )
        result = cls(reservoir_size)
        for part in parts:
            result.extend(part._samples)
        return result

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        return (
            f"LatencyHistogram(n={self.count}, mean={self.mean:.2f}us, "
            f"p50={self.median:.2f}us, p99={self.percentile(99):.2f}us)"
        )
