"""A memcached-like in-memory key-value store.

Each Router leaf wraps one store instance behind its RPC interface (paper
§III-B: "the leaf microserver uses gRPC to build a communication wrapper
around a memcached server process").  Implements the memcached behaviours
Router exercises plus the ones a store needs to be credible: LRU eviction
under a byte budget, optional per-item TTL, and hit/miss statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class _Item:
    value: str
    expires_at: Optional[float]  # absolute time in µs, None = never
    size: int


class MemcachedStore:
    """An LRU key-value store with TTLs and byte-budget eviction."""

    def __init__(
        self,
        capacity_bytes: int = 64 * 1024 * 1024,
        clock: Optional[Callable[[], float]] = None,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._clock = clock or (lambda: 0.0)
        self._items: "OrderedDict[str, _Item]" = OrderedDict()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def _expired(self, item: _Item) -> bool:
        return item.expires_at is not None and self._clock() >= item.expires_at

    def set(self, key: str, value: str, ttl_us: Optional[float] = None) -> None:
        """Store ``value`` under ``key``, evicting LRU items if needed."""
        size = len(key) + len(value) + 64  # item header overhead
        old = self._items.pop(key, None)
        if old is not None:
            self.bytes_used -= old.size
        expires_at = self._clock() + ttl_us if ttl_us is not None else None
        self._items[key] = _Item(value=value, expires_at=expires_at, size=size)
        self.bytes_used += size
        while self.bytes_used > self.capacity_bytes and self._items:
            _evicted_key, evicted = self._items.popitem(last=False)
            self.bytes_used -= evicted.size
            self.evictions += 1

    def get(self, key: str) -> Optional[str]:
        """Fetch ``key``; None on miss or lazily-expired item."""
        item = self._items.get(key)
        if item is None:
            self.misses += 1
            return None
        if self._expired(item):
            del self._items[key]
            self.bytes_used -= item.size
            self.expirations += 1
            self.misses += 1
            return None
        self._items.move_to_end(key)  # LRU touch
        self.hits += 1
        return item.value

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        item = self._items.get(key)
        return item is not None and not self._expired(item)
