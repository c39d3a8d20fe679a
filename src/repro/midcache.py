"""Mid-tier query-result cache: LRU/FIFO + TTL + single-flight coalescing.

DeathStarBench-style OLDI deployments front every fan-out service with a
memcached/Redis result cache; this module is the simulated equivalent for
the four µSuite mid-tiers.  A :class:`QueryCache` lives inside one
mid-tier runtime (per replica, like a local memcached) and maps the
*canonicalized query bytes* — produced by each service's
``MidTierApp.cache_key`` — to the merged reply the slow path would have
produced:

* **LRU + TTL** — bounded capacity with least-recently-used (or FIFO)
  eviction; entries older than ``ttl_us`` are never served, they count as
  misses and are dropped on lookup.
* **single-flight** — concurrent identical queries coalesce: the first
  miss becomes the *leader* and runs the real leaf fan-out; followers
  park on the key and are answered from the leader's merge, so one key
  never has two concurrent fan-outs in flight.
* **invalidation** — writes (Router ``set`` ops) invalidate the key they
  shadow, keeping cached ``get`` results consistent with leaf stores.

The cache is seed-deterministic by construction: it draws no randomness
and its iteration order is insertion order.  Hit rates emerge from the
workloads themselves — Zipf key/term skew for Router and Set Algebra,
repeated user-item pairs for Recommend, and exact query-vector matches
for HDSearch.  With caching disabled (the default) nothing here is
constructed and the engine stays bit-identical to the cache-free goldens.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Supported eviction policies (the ``usuite cache --policy`` choices).
CACHE_POLICIES: Tuple[str, ...] = ("lru", "fifo")

#: CPU charged for a hit (hash + probe), replacing the fan-out compute.
HIT_COMPUTE_US = 2.0


@dataclass(frozen=True)
class CacheConfig:
    """Sizing and freshness knobs.  Off by default (one cache per
    mid-tier replica when enabled); validated whether enabled or not."""

    enabled: bool = False
    capacity: int = 1024
    # None = entries never expire; otherwise entries aged >= ttl_us are
    # treated as misses and evicted on lookup.
    ttl_us: Optional[float] = None
    policy: str = "lru"

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0: {self.capacity}")
        if self.ttl_us is not None and self.ttl_us <= 0:
            raise ValueError(f"ttl_us must be positive: {self.ttl_us}")
        if self.policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {self.policy!r}; "
                f"choose from: {', '.join(CACHE_POLICIES)}"
            )


class QueryCache:
    """One mid-tier replica's result cache plus single-flight table."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # key -> (value, stored_at); insertion order doubles as the
        # eviction order (LRU refreshes position on hit, FIFO does not).
        self._entries: "OrderedDict[bytes, Tuple[Any, float]]" = OrderedDict()
        # Single-flight: key -> followers parked behind the leader's fan-out.
        self._inflight: Dict[bytes, List[Any]] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0
        self.single_flight_followers = 0

    # -- lookup / insert ---------------------------------------------------
    def lookup(self, key: bytes, now: float) -> Tuple[bool, Any]:
        """(hit, value).  A stale entry is dropped and counted as a miss."""
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return False, None
        value, stored_at = entry
        ttl = self.config.ttl_us
        if ttl is not None and now - stored_at >= ttl:
            del self._entries[key]
            self.expirations += 1
            self.misses += 1
            return False, None
        if self.config.policy == "lru":
            self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def insert(self, key: bytes, value: Any, now: float) -> None:
        """Store one merged result, evicting down to capacity."""
        capacity = self.config.capacity
        if capacity == 0:
            return
        if key in self._entries:
            del self._entries[key]
        while len(self._entries) >= capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = (value, now)
        self.inserts += 1

    def invalidate(self, key: bytes) -> bool:
        """Drop one key (write shadowing); True when an entry was removed."""
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1
            return True
        return False

    # -- single-flight -----------------------------------------------------
    def join_flight(self, key: bytes, follower: Any) -> bool:
        """Coalesce a concurrent identical query.

        Returns True when a leader is already fanning out for ``key`` —
        ``follower`` is parked and will be answered from the leader's
        merge.  Returns False when the caller is the new leader (the
        flight is opened; the caller must :meth:`end_flight` when done).
        """
        waiters = self._inflight.get(key)
        if waiters is None:
            self._inflight[key] = []
            return False
        waiters.append(follower)
        self.single_flight_followers += 1
        return True

    def end_flight(self, key: bytes) -> List[Any]:
        """Close a flight, returning the followers awaiting the result."""
        return self._inflight.pop(key, [])

    def inflight_keys(self) -> List[bytes]:
        """Keys with a fan-out currently in flight (for invariant checks)."""
        return list(self._inflight)

    # -- accounting --------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> Dict[str, float]:
        """Cache accounting for experiment reports."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "single_flight_followers": self.single_flight_followers,
            "occupancy": self.occupancy,
        }

    def __repr__(self) -> str:
        return (
            f"QueryCache({self.occupancy}/{self.config.capacity} "
            f"{self.config.policy}, hit_rate={self.hit_rate:.2f})"
        )
