"""Property-based tests for the mid-tier query-result cache.

A model-checked QueryCache: against arbitrary interleavings of lookups,
inserts, invalidations, and single-flight joins under a monotonic clock,
the cache must keep occupancy bounded, account every lookup as exactly
one hit or miss, never serve an entry past its TTL, and never run two
concurrent fan-outs for the same key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.midcache import CACHE_POLICIES, CacheConfig, QueryCache

KEYS = st.sampled_from([b"a", b"b", b"c", b"d", b"e"])

# op: (kind, key, clock advance in us)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "insert", "invalidate", "join", "end"]),
        KEYS,
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    max_size=200,
)


@given(
    ops=OPS,
    capacity=st.integers(0, 4),
    ttl=st.one_of(st.none(), st.floats(1.0, 120.0, allow_nan=False)),
    policy=st.sampled_from(CACHE_POLICIES),
)
@settings(max_examples=300, deadline=None)
def test_cache_invariants(ops, capacity, ttl, policy):
    cache = QueryCache(CacheConfig(capacity=capacity, ttl_us=ttl, policy=policy))
    model = {}          # key -> (value, stored_at); superset of live entries
    inflight = set()    # keys with an open single-flight leader
    now = 0.0
    counter = 0
    for kind, key, advance in ops:
        now += advance
        if kind == "lookup":
            hit, value = cache.lookup(key, now)
            if hit:
                stored_value, stored_at = model[key]
                # Never serves a stale entry, never a wrong value.
                assert value == stored_value
                assert ttl is None or now - stored_at < ttl
            else:
                assert value is None
        elif kind == "insert":
            counter += 1
            cache.insert(key, counter, now)
            if capacity > 0:
                model[key] = (counter, now)
        elif kind == "invalidate":
            removed = cache.invalidate(key)
            model.pop(key, None)
            if removed:
                assert capacity > 0
        elif kind == "join":
            parked = cache.join_flight(key, object())
            assert parked == (key in inflight)
            inflight.add(key)
        elif kind == "end":
            followers = cache.end_flight(key)
            if key not in inflight:
                assert followers == []
            inflight.discard(key)
        # Core invariants hold after every single operation.
        assert cache.occupancy <= max(capacity, 0)
        assert cache.hits + cache.misses == cache.lookups
        assert set(cache.inflight_keys()) == inflight
    assert cache.expirations + cache.evictions + cache.invalidations <= cache.inserts


@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_single_flight_followers_all_released(ops):
    """Every parked follower comes back out exactly once, in park order."""
    cache = QueryCache(CacheConfig(capacity=4))
    parked = {}  # key -> list of follower tokens in park order
    token = 0
    for kind, key, _ in ops:
        if kind == "join":
            follower = token
            token += 1
            if cache.join_flight(key, follower):
                parked.setdefault(key, []).append(follower)
            else:
                assert key not in parked or parked[key] == []
                parked[key] = []
        elif kind == "end":
            followers = cache.end_flight(key)
            assert followers == parked.pop(key, [])
    # Whatever flights remain open still hold exactly the parked tokens.
    for key in list(cache.inflight_keys()):
        assert cache.end_flight(key) == parked.pop(key, [])
    assert not parked


def test_lru_refreshes_on_hit_fifo_does_not():
    lru = QueryCache(CacheConfig(capacity=2, policy="lru"))
    fifo = QueryCache(CacheConfig(capacity=2, policy="fifo"))
    for cache in (lru, fifo):
        cache.insert(b"a", 1, now=0.0)
        cache.insert(b"b", 2, now=1.0)
        cache.lookup(b"a", now=2.0)   # refreshes "a" under LRU only
        cache.insert(b"c", 3, now=3.0)
    assert lru.lookup(b"a", now=4.0)[0] is True     # "b" was evicted
    assert lru.lookup(b"b", now=4.0)[0] is False
    assert fifo.lookup(b"a", now=4.0)[0] is False   # "a" was evicted
    assert fifo.lookup(b"b", now=4.0)[0] is True


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(capacity=-1),
        dict(ttl_us=0.0),
        dict(ttl_us=-1.0),
        dict(policy="mru"),
    ],
)
def test_cache_config_validation(kwargs):
    with pytest.raises(ValueError):
        CacheConfig(**kwargs)


def test_zero_capacity_cache_is_inert():
    cache = QueryCache(CacheConfig(capacity=0))
    cache.insert(b"k", "v", now=0.0)
    assert cache.occupancy == 0
    hit, value = cache.lookup(b"k", now=1.0)
    assert not hit and value is None
