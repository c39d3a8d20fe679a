"""A Redis-like in-memory structure store.

The paper's HDSearch front-end uses two Redis instances — one caching
image → feature-vector mappings, one mapping image IDs to URLs — and its
§IV cites Redis ``BLPOP`` as the canonical blocking design.  This store
implements the subset of Redis those roles need, with Redis semantics:

* strings: GET / SET (with optional TTL) / DEL / EXISTS / INCR
* hashes:  HGET / HSET / HDEL / HGETALL / HLEN
* lists:   LPUSH / RPUSH / LPOP / RPOP / LLEN / LRANGE, plus a
  simulation-aware BLPOP (blocks a simulated thread until data arrives)
* expiry:  EXPIRE / TTL with lazy eviction against an external clock
* LRU eviction under a byte budget (``maxmemory`` + ``allkeys-lru``)

Like Redis, a key holds exactly one type; operations on a key of the
wrong type raise :class:`WrongTypeError`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


class WrongTypeError(TypeError):
    """WRONGTYPE: operation against a key holding the wrong kind of value."""


@dataclass
class _Entry:
    kind: str  # "string" | "hash" | "list"
    value: object
    expires_at: Optional[float] = None

    def size_bytes(self, key: str) -> int:
        base = len(key) + 48
        if self.kind == "string":
            return base + len(self.value)
        if self.kind == "hash":
            return base + sum(len(k) + len(v) + 16 for k, v in self.value.items())
        return base + sum(len(item) + 16 for item in self.value)


@dataclass
class _BlockedPop:
    """One thread parked in BLPOP, woken by the kernel hook on push."""

    keys: List[str]
    wake: Callable[[Optional[tuple]], None]


class RedisLikeStore:
    """The structure store, with Redis-style command methods."""

    def __init__(
        self,
        maxmemory_bytes: int = 256 * 1024 * 1024,
        clock: Optional[Callable[[], float]] = None,
    ):
        if maxmemory_bytes <= 0:
            raise ValueError("maxmemory_bytes must be positive")
        self.maxmemory_bytes = maxmemory_bytes
        self._clock = clock or (lambda: 0.0)
        self._data: "OrderedDict[str, _Entry]" = OrderedDict()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self._blocked: List[_BlockedPop] = []

    # -- bookkeeping -------------------------------------------------------
    def _live(self, key: str) -> Optional[_Entry]:
        entry = self._data.get(key)
        if entry is None:
            return None
        if entry.expires_at is not None and self._clock() >= entry.expires_at:
            self._drop(key, entry)
            self.expirations += 1
            return None
        return entry

    def _drop(self, key: str, entry: _Entry) -> None:
        del self._data[key]
        self.bytes_used -= entry.size_bytes(key)

    def _touch(self, key: str) -> None:
        self._data.move_to_end(key)

    def _store(self, key: str, entry: _Entry) -> None:
        old = self._data.get(key)
        if old is not None:
            self.bytes_used -= old.size_bytes(key)
        self._data[key] = entry
        self._data.move_to_end(key)
        self.bytes_used += entry.size_bytes(key)
        while self.bytes_used > self.maxmemory_bytes and len(self._data) > 1:
            victim_key = next(iter(self._data))
            if victim_key == key:
                break
            self._drop(victim_key, self._data[victim_key])
            self.evictions += 1

    def _resize(self, key: str, entry: _Entry, before: int) -> None:
        self.bytes_used += entry.size_bytes(key) - before

    def _typed(self, key: str, kind: str) -> Optional[_Entry]:
        entry = self._live(key)
        if entry is None:
            return None
        if entry.kind != kind:
            raise WrongTypeError(f"key {key!r} holds a {entry.kind}, not a {kind}")
        return entry

    # -- strings -------------------------------------------------------------
    def set(self, key: str, value: str, ttl_us: Optional[float] = None) -> None:
        """SET key value [PX ttl]."""
        expires = self._clock() + ttl_us if ttl_us is not None else None
        self._store(key, _Entry("string", value, expires))

    def get(self, key: str) -> Optional[str]:
        """GET key."""
        entry = self._typed(key, "string")
        if entry is None:
            self.misses += 1
            return None
        self._touch(key)
        self.hits += 1
        return entry.value

    def incr(self, key: str, amount: int = 1) -> int:
        """INCR / INCRBY (the paper's click-tracking style counter)."""
        entry = self._typed(key, "string")
        if entry is None:
            self.set(key, str(amount))
            return amount
        try:
            value = int(entry.value) + amount
        except ValueError as exc:
            raise WrongTypeError(f"key {key!r} is not an integer") from exc
        before = entry.size_bytes(key)
        entry.value = str(value)
        self._resize(key, entry, before)
        return value

    def delete(self, key: str) -> bool:
        """DEL key; True if it existed."""
        entry = self._live(key)
        if entry is None:
            return False
        self._drop(key, entry)
        return True

    def exists(self, key: str) -> bool:
        """EXISTS key."""
        return self._live(key) is not None

    # -- expiry ----------------------------------------------------------------
    def expire(self, key: str, ttl_us: float) -> bool:
        """EXPIRE key ttl; True if the key exists."""
        entry = self._live(key)
        if entry is None:
            return False
        entry.expires_at = self._clock() + ttl_us
        return True

    def ttl(self, key: str) -> Optional[float]:
        """Remaining TTL in µs; None if no expiry; -1.0 semantics omitted."""
        entry = self._live(key)
        if entry is None or entry.expires_at is None:
            return None
        return max(0.0, entry.expires_at - self._clock())

    # -- hashes -------------------------------------------------------------------
    def hset(self, key: str, field_name: str, value: str) -> bool:
        """HSET; True if the field is new."""
        entry = self._typed(key, "hash")
        if entry is None:
            self._store(key, _Entry("hash", {field_name: value}))
            return True
        before = entry.size_bytes(key)
        is_new = field_name not in entry.value
        entry.value[field_name] = value
        self._resize(key, entry, before)
        self._touch(key)
        return is_new

    def hget(self, key: str, field_name: str) -> Optional[str]:
        """HGET."""
        entry = self._typed(key, "hash")
        if entry is None:
            self.misses += 1
            return None
        value = entry.value.get(field_name)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._touch(key)
        return value

    def hdel(self, key: str, field_name: str) -> bool:
        """HDEL; True if the field existed."""
        entry = self._typed(key, "hash")
        if entry is None or field_name not in entry.value:
            return False
        before = entry.size_bytes(key)
        del entry.value[field_name]
        self._resize(key, entry, before)
        if not entry.value:
            self._drop(key, entry)
        return True

    def hgetall(self, key: str) -> Dict[str, str]:
        """HGETALL."""
        entry = self._typed(key, "hash")
        return dict(entry.value) if entry is not None else {}

    def hlen(self, key: str) -> int:
        """HLEN."""
        entry = self._typed(key, "hash")
        return len(entry.value) if entry is not None else 0

    # -- lists ----------------------------------------------------------------------
    def _list_entry(self, key: str, create: bool) -> Optional[_Entry]:
        entry = self._typed(key, "list")
        if entry is None and create:
            entry = _Entry("list", deque())
            self._store(key, entry)
        return entry

    def lpush(self, key: str, *values: str) -> int:
        """LPUSH; returns the list length."""
        entry = self._list_entry(key, create=True)
        before = entry.size_bytes(key)
        for value in values:
            entry.value.appendleft(value)
        self._resize(key, entry, before)
        self._serve_blocked(key)
        return len(entry.value)

    def rpush(self, key: str, *values: str) -> int:
        """RPUSH; returns the list length."""
        entry = self._list_entry(key, create=True)
        before = entry.size_bytes(key)
        for value in values:
            entry.value.append(value)
        self._resize(key, entry, before)
        self._serve_blocked(key)
        return len(entry.value)

    def lpop(self, key: str) -> Optional[str]:
        """LPOP."""
        entry = self._typed(key, "list")
        if entry is None or not entry.value:
            return None
        before = entry.size_bytes(key)
        value = entry.value.popleft()
        self._resize(key, entry, before)
        if not entry.value:
            self._drop(key, entry)
        return value

    def rpop(self, key: str) -> Optional[str]:
        """RPOP."""
        entry = self._typed(key, "list")
        if entry is None or not entry.value:
            return None
        before = entry.size_bytes(key)
        value = entry.value.pop()
        self._resize(key, entry, before)
        if not entry.value:
            self._drop(key, entry)
        return value

    def llen(self, key: str) -> int:
        """LLEN."""
        entry = self._typed(key, "list")
        return len(entry.value) if entry is not None else 0

    def lrange(self, key: str, start: int, stop: int) -> List[str]:
        """LRANGE with Redis's inclusive-stop, negative-index semantics."""
        entry = self._typed(key, "list")
        if entry is None:
            return []
        items = list(entry.value)
        n = len(items)
        if start < 0:
            start = max(0, n + start)
        if stop < 0:
            stop = n + stop
        return items[start : stop + 1]

    # -- BLPOP (the paper's §IV blocking-design citation) ---------------------------
    def register_blpop(self, keys: List[str], wake: Callable[[Optional[tuple]], None]) -> Optional[tuple]:
        """Non-generator BLPOP core: pop immediately if data exists, else
        register ``wake`` to be called with ``(key, value)`` on next push.

        There is no blocking generator wrapper: callers (unit tests,
        non-simulated code) park on ``wake`` themselves and drop it with
        :meth:`cancel_blpop` on timeout.
        """
        for key in keys:
            value = self.lpop(key)
            if value is not None:
                return key, value
        self._blocked.append(_BlockedPop(keys=list(keys), wake=wake))
        return None

    def _serve_blocked(self, pushed_key: str) -> None:
        # FIFO service, like Redis: longest-blocked client first.
        for blocked in list(self._blocked):
            if pushed_key in blocked.keys:
                value = self.lpop(pushed_key)
                if value is None:
                    return
                self._blocked.remove(blocked)
                blocked.wake((pushed_key, value))
                return

    def cancel_blpop(self, wake: Callable[[Optional[tuple]], None]) -> None:
        """Remove a parked BLPOP registration (timeout path)."""
        self._blocked = [b for b in self._blocked if b.wake is not wake]

    # -- introspection -------------------------------------------------------------
    def dbsize(self) -> int:
        """DBSIZE: live key count (expired keys dropped lazily on access)."""
        return len(self._data)

    def type_of(self, key: str) -> Optional[str]:
        """TYPE."""
        entry = self._live(key)
        return entry.kind if entry is not None else None
