"""Tests for Router: SpookyHash, the memcached store, and the service."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.kvtrace import KvOp
from repro.services.costmodel import LinearCost
from repro.services.router import (
    MemcachedStore,
    RouterLeafApp,
    RouterMidTierApp,
    SpookyHash,
    build_router,
    hash128,
    hash64,
)
from repro.suite import SCALES, SimCluster
from repro.suite.cluster import run_open_loop


# -- SpookyHash ----------------------------------------------------------------

def test_hash_deterministic():
    assert hash128(b"hello") == hash128(b"hello")
    assert hash64("hello") == hash64("hello")


def test_hash_seed_sensitivity():
    assert hash128(b"hello", 1, 2) != hash128(b"hello", 3, 4)


def test_hash_message_sensitivity():
    assert hash128(b"hello") != hash128(b"hellp")
    assert hash128(b"") != hash128(b"\x00")


@given(st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_hash_values_are_64_bit(message):
    h1, h2 = hash128(message)
    assert 0 <= h1 < 2**64
    assert 0 <= h2 < 2**64


def test_hash_covers_short_block_boundaries():
    """Exercise every short-path branch: empty, <8, <16, 16, 32, 48 bytes."""
    seen = set()
    for n in (0, 3, 7, 8, 15, 16, 17, 31, 32, 33, 47, 48, 63, 100, 191):
        seen.add(hash128(bytes(range(n % 256))[:n] or b""))
    assert len(seen) == 15  # all distinct


def test_hash_long_path_used_and_distinct():
    long_a = bytes(i % 256 for i in range(500))
    long_b = bytes((i + 1) % 256 for i in range(500))
    assert hash128(long_a) != hash128(long_b)
    assert hash128(long_a) == hash128(long_a)


@given(st.integers(min_value=1, max_value=64))
@settings(max_examples=30, deadline=None)
def test_shard_for_in_range(n_shards):
    hasher = SpookyHash(1, 2)
    for i in range(20):
        assert 0 <= hasher.shard_for(f"key:{i}", n_shards) < n_shards


def test_shard_distribution_roughly_uniform():
    """The paper picks SpookyHash for well-distributed routing."""
    hasher = SpookyHash(7, 9)
    n_shards = 16
    counts = Counter(hasher.shard_for(f"user:{i}", n_shards) for i in range(16000))
    expected = 16000 / n_shards
    for shard in range(n_shards):
        assert 0.8 * expected < counts[shard] < 1.2 * expected


def test_avalanche_single_bit_flip_changes_half_the_bits():
    base = bytearray(b"The quick brown fox jumps over the lazy dog")
    h_base = hash64(bytes(base))
    flipped = bytearray(base)
    flipped[5] ^= 0x01
    h_flip = hash64(bytes(flipped))
    differing = bin(h_base ^ h_flip).count("1")
    assert 16 <= differing <= 48  # ~32 expected for a good hash


def test_shard_for_rejects_zero_shards():
    with pytest.raises(ValueError):
        SpookyHash().shard_for("k", 0)


# -- MemcachedStore ------------------------------------------------------------

def test_store_set_get_roundtrip():
    store = MemcachedStore()
    store.set("a", "1")
    assert store.get("a") == "1"
    assert store.hits == 1 and store.misses == 0


def test_store_miss_counts():
    store = MemcachedStore()
    assert store.get("nope") is None
    assert store.misses == 1


def test_store_overwrite_updates_bytes():
    store = MemcachedStore()
    store.set("k", "short")
    used_before = store.bytes_used
    store.set("k", "a much longer value than before")
    assert store.get("k") == "a much longer value than before"
    assert store.bytes_used > used_before
    assert len(store) == 1


def test_store_lru_eviction_order():
    store = MemcachedStore(capacity_bytes=3 * (1 + 1 + 64) + 10)
    store.set("a", "1")
    store.set("b", "2")
    store.set("c", "3")
    store.get("a")  # touch "a": "b" becomes LRU
    store.set("d", "4")  # must evict "b"
    assert "b" not in store
    assert store.get("a") == "1"
    assert store.evictions >= 1


def test_store_ttl_expiry_uses_clock():
    now = [0.0]
    store = MemcachedStore(clock=lambda: now[0])
    store.set("k", "v", ttl_us=100.0)
    assert store.get("k") == "v"
    now[0] = 101.0
    assert store.get("k") is None
    assert store.expirations == 1


def test_store_rejects_zero_capacity():
    with pytest.raises(ValueError):
        MemcachedStore(capacity_bytes=0)


# -- Router service ------------------------------------------------------------

def _mid_app(n_shards=2, n_replicas=3):
    return RouterMidTierApp(
        n_shards=n_shards,
        n_replicas=n_replicas,
        hash_cost=LinearCost(5.0, 0.01),
        merge_cost=LinearCost(1.0, 0.1),
        replica_rng=random.Random(0),
    )


def test_set_fans_out_to_all_replicas_of_one_shard():
    app = _mid_app()
    plan = app.fanout(KvOp("set", "key:1", "value"))
    assert len(plan.subrequests) == 3
    leaves = [leaf for leaf, _op, _size in plan.subrequests]
    shard = app.hasher.shard_for("key:1", 2)
    assert leaves == [shard * 3, shard * 3 + 1, shard * 3 + 2]


def test_get_goes_to_single_replica_of_right_shard():
    app = _mid_app()
    shard = app.hasher.shard_for("key:2", 2)
    for _ in range(10):
        plan = app.fanout(KvOp("get", "key:2", None))
        assert len(plan.subrequests) == 1
        leaf = plan.subrequests[0][0]
        assert shard * 3 <= leaf < (shard + 1) * 3


def test_get_load_balances_across_replicas():
    app = _mid_app()
    replicas = Counter(
        app.fanout(KvOp("get", "hot", None)).subrequests[0][0] for _ in range(300)
    )
    assert len(replicas) == 3  # every replica serves some reads


def test_leaf_app_get_set():
    store = MemcachedStore()
    leaf = RouterLeafApp(store, LinearCost(10.0, 0.05))
    set_result = leaf.handle(KvOp("set", "k", "v"))
    assert set_result.payload == ("stored", True)
    get_result = leaf.handle(KvOp("get", "k", None))
    assert get_result.payload == ("value", "v")
    miss = leaf.handle(KvOp("get", "missing", None))
    assert miss.payload == ("value", None)


def test_merge_set_requires_all_acks():
    app = _mid_app()
    ok = app.merge(KvOp("set", "k", "v"), [("stored", True)] * 3)
    assert ok.payload == ("stored", True)
    partial = app.merge(KvOp("set", "k", "v"), [("stored", True), ("error", "x"), ("stored", True)])
    assert partial.payload == ("stored", False)


def test_router_replication_consistency_end_to_end():
    """After a set, every replica of the shard holds the value."""
    cluster = SimCluster(seed=2)
    service = build_router(cluster, SCALES["unit"])
    app = service.midtier.app
    stores = service.extras["stores"]
    op = KvOp("set", "fresh-key", "fresh-value")
    plan = app.fanout(op)
    for leaf_index, payload, _size in plan.subrequests:
        service.leaves[leaf_index].app.handle(payload)
    shard = app.hasher.shard_for("fresh-key", app.n_shards)
    for replica in range(app.n_replicas):
        assert stores[shard * app.n_replicas + replica].get("fresh-key") == "fresh-value"


def test_router_service_under_load():
    cluster = SimCluster(seed=3)
    service = build_router(cluster, SCALES["unit"])
    result = run_open_loop(cluster, service, qps=300.0, duration_us=300_000,
                           warmup_us=100_000)
    assert result.completed > 50
    assert result.e2e.median < 2_000.0
    per_query = result.syscalls_per_query()
    assert per_query["futex"] == max(per_query.values())
    # Preloaded keys: every get must have hit some replica.
    hits = sum(store.hits for store in service.extras["stores"])
    assert hits > 0


def test_mark_leaf_down_excludes_replica_from_gets():
    app = _mid_app()
    shard = app.hasher.shard_for("k", 2)
    downed = app.leaf_index(shard, 0)
    app.mark_leaf_down(downed)
    for _ in range(50):
        plan = app.fanout(KvOp("get", "k", None))
        assert plan.subrequests[0][0] != downed


def test_mark_leaf_down_shrinks_set_pool():
    app = _mid_app()
    shard = app.hasher.shard_for("k", 2)
    app.mark_leaf_down(app.leaf_index(shard, 1))
    plan = app.fanout(KvOp("set", "k", "v"))
    leaves = [leaf for leaf, _o, _s in plan.subrequests]
    assert len(leaves) == 2
    assert app.leaf_index(shard, 1) not in leaves


def test_mark_leaf_up_restores_routing():
    app = _mid_app()
    shard = app.hasher.shard_for("k", 2)
    downed = app.leaf_index(shard, 0)
    app.mark_leaf_down(downed)
    app.mark_leaf_up(downed)
    plan = app.fanout(KvOp("set", "k", "v"))
    assert len(plan.subrequests) == 3


def test_all_replicas_down_yields_error():
    app = _mid_app()
    shard = app.hasher.shard_for("k", 2)
    for replica in range(3):
        app.mark_leaf_down(app.leaf_index(shard, replica))
    plan = app.fanout(KvOp("get", "k", None))
    assert plan.subrequests == []
    merged = app.merge(KvOp("get", "k", None), [])
    assert merged.payload[0] == "error"
