"""Zipfian key-value operation traces for Router.

Stands in for the paper's open-source "Twitter" dataset driven with
YCSB Workload A's 50/50 get/set mix.  Key popularity follows a Zipf
distribution (YCSB's default request distribution is similarly skewed),
so hot keys hit the same shard repeatedly — exercising Router's
replication-based load spreading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.rng import seeded_py


@dataclass(frozen=True)
class KvOp:
    """One trace operation."""

    op: str  # "get" or "set"
    key: str
    value: Optional[str]  # None for gets

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the request."""
        base = 16 + len(self.key)
        if self.value is not None:
            base += len(self.value)
        return base


class KeyValueTrace:
    """Generates a reproducible stream of get/set operations."""

    def __init__(
        self,
        n_keys: int = 10_000,
        get_fraction: float = 0.5,
        zipf_s: float = 0.99,
        value_size: int = 100,
        seed: int = 0,
    ):
        if n_keys <= 0:
            raise ValueError("n_keys must be positive")
        if not 0.0 <= get_fraction <= 1.0:
            raise ValueError("get_fraction must be in [0, 1]")
        self.n_keys = n_keys
        self.get_fraction = get_fraction
        self.value_size = value_size
        self._rng = seeded_py(seed)
        # Zipf CDF over key ranks (rank 0 hottest).
        weights = [1.0 / (rank + 1) ** zipf_s for rank in range(n_keys)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)

    def _pick_key(self) -> str:
        u = self._rng.random()
        lo, hi = 0, self.n_keys - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return f"key:{lo}"

    def _make_value(self) -> str:
        return "v" * self.value_size

    def next_op(self) -> KvOp:
        """The next operation in the trace."""
        key = self._pick_key()
        if self._rng.random() < self.get_fraction:
            return KvOp("get", key, None)
        return KvOp("set", key, self._make_value())

    def ops(self, n: int) -> List[KvOp]:
        """A batch of ``n`` operations."""
        return [self.next_op() for _ in range(n)]

    def preload_ops(self) -> List[KvOp]:
        """One set per key, used to warm stores before measurement."""
        return [KvOp("set", f"key:{i}", self._make_value()) for i in range(self.n_keys)]

