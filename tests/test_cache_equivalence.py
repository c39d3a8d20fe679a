"""Differential equivalence: batching/caching must not change answers.

For a corpus of seeded workloads, every response served with the leaf
coalescer and/or the mid-tier result cache enabled must be semantically
identical to the response the batching/caching-off path produces for the
same query.  The load generator's RNG stream is pinned, so the i-th sent
query is identical across configurations and responses can be compared
by send index.

Recommend's merge averages leaf floats in arrival order, and batching
reorders arrivals — so its comparison uses a tight relative tolerance;
every other service compares exactly.
"""

import math

import pytest

from repro.loadgen import OpenLoopLoadGen
from repro.midcache import CacheConfig, QueryCache
from repro.rpc.message import RpcRequest
from repro.suite import SCALES, SimCluster, build_service
from repro.rpc.batching import BatchConfig


class RecordingLoadGen(OpenLoopLoadGen):
    """Open-loop generator that records each response by send index."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._index_of = {}
        self.responses = {}
        self.partial_indices = set()

    def _send_query(self, client_start):
        payload, size_bytes = self.source.next_query()
        request = RpcRequest(
            method="query",
            payload=payload,
            size_bytes=size_bytes,
            reply_to=self.address,
            request_id=next(self.sim.request_ids),
            client_start=client_start,
        )
        self._index_of[request.request_id] = self.sent
        self.sent += 1
        self.fabric.send(self.address, self.target, request, size_bytes)

    def _on_response(self, response):
        index = self._index_of.get(response.request_id)
        if index is not None:
            self.responses[index] = response.payload
            if response.partial:
                self.partial_indices.add(index)


def _run_config(
    service: str,
    seed: int = 7,
    qps: float = 2_000.0,
    duration_us: float = 200_000.0,
    drain_us: float = 150_000.0,
    **overrides,
):
    """One seeded run; returns (responses by send index, midtier runtime)."""
    scale = SCALES["unit"].with_overrides(**overrides)
    cluster = SimCluster(seed=seed)
    handle = build_service(service, cluster, scale)
    gen = RecordingLoadGen(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(), qps=qps,
    )
    gen.start()
    cluster.run(until=duration_us)
    gen.stop()
    cluster.run(until=duration_us + drain_us)
    cluster.shutdown()
    return gen, handle.midtier


def _assert_equivalent(service, base, fast):
    """Every query answered by both runs got the same answer."""
    common = sorted(set(base) & set(fast))
    # The runs must overlap substantially, or the test proves nothing.
    assert len(common) >= 100, f"only {len(common)} comparable queries"
    for index in common:
        expected, got = base[index], fast[index]
        if service == "recommend":
            # Float average: leaf responses sum in arrival order, and
            # batching legitimately reorders arrivals within one merge.
            assert math.isclose(expected, got, rel_tol=1e-9, abs_tol=1e-12), (
                f"query {index}: {expected!r} != {got!r}"
            )
        else:
            assert expected == got, f"query {index}: {expected!r} != {got!r}"


CONFIGS = {
    "batch": dict(batch=BatchConfig(enabled=True, max_batch=8, max_wait_us=50.0)),
    "cache": dict(cache=CacheConfig(enabled=True, capacity=2048)),
    "batch+cache": dict(
        batch=BatchConfig(enabled=True, max_batch=4, max_wait_us=30.0),
        cache=CacheConfig(enabled=True, capacity=2048),
    ),
}


@pytest.mark.parametrize("service", ["hdsearch", "router", "setalgebra", "recommend"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_responses_equivalent(service, config):
    base, _ = _run_config(service)
    fast, midtier = _run_config(service, **CONFIGS[config])
    _assert_equivalent(service, base.responses, fast.responses)
    # The fast path must actually have been exercised.
    if "batch" in config:
        stats = midtier.batcher.stats()
        assert stats["batches_sent"] > 0
        # Conservation: every buffered sub-request was sent in some batch.
        assert stats["subrequests_batched"] >= stats["batches_sent"]
        assert len(midtier.batcher.buffers) == len(midtier.leaf_addrs)
        assert all(len(buf) == 0 for buf in midtier.batcher.buffers), (
            "sub-requests stranded in accumulation buffers after drain"
        )
    if "cache" in config:
        stats = midtier.cache.stats()
        assert stats["hits"] > 0, "cache never hit: equivalence test is vacuous"
        assert stats["hits"] + stats["misses"] == stats["lookups"]


def test_ttl_expiry_still_equivalent_and_exercised():
    """A short TTL forces expirations mid-run; answers must not change.

    Router is the service whose repeat-lookup ages spread widely (Zipf
    key popularity), so a 50ms TTL yields both hits and expirations.
    """
    base, _ = _run_config("router")
    fast, midtier = _run_config(
        "router",
        cache=CacheConfig(enabled=True, capacity=2048, ttl_us=50_000.0),
    )
    _assert_equivalent("router", base.responses, fast.responses)
    stats = midtier.cache.stats()
    assert stats["expirations"] > 0, "TTL never fired: staleness path untested"
    assert stats["hits"] > 0


def test_router_write_invalidation_exercised():
    """Router's YCSB-A sets must invalidate cached gets during the run."""
    base, _ = _run_config("router")
    fast, midtier = _run_config(
        "router", cache=CacheConfig(enabled=True, capacity=2048),
    )
    _assert_equivalent("router", base.responses, fast.responses)
    stats = midtier.cache.stats()
    assert stats["invalidations"] > 0, "no set ever shadowed a cached get"
    assert stats["hits"] > 0


def test_stale_ttl_entries_never_served():
    """Unit check on the cache itself: an entry older than ttl is a miss."""
    cache = QueryCache(CacheConfig(capacity=8, ttl_us=100.0))
    cache.insert(b"k", ("v", 1), now=1_000.0)
    hit, value = cache.lookup(b"k", now=1_099.9)
    assert hit and value == ("v", 1)
    # Exactly at the boundary and beyond: dropped, counted as expiration.
    hit, value = cache.lookup(b"k", now=1_100.0)
    assert not hit and value is None
    assert cache.expirations == 1
    assert cache.occupancy == 0
    # And the accounting invariant holds through the expiry.
    assert cache.hits + cache.misses == cache.lookups


def test_hedges_ride_the_batcher():
    """Tail-tolerance duplicates must coalesce like original sub-requests."""
    from repro.rpc.policy import TailPolicy

    scale = SCALES["unit"].with_overrides(
        batch=BatchConfig(enabled=True, max_batch=8, max_wait_us=50.0),
    )
    cluster = SimCluster(seed=3)
    handle = build_service(
        "hdsearch", cluster, scale,
        tail_policy=TailPolicy(hedge_after_us=300.0),
    )
    gen = RecordingLoadGen(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(), qps=2_000.0,
    )
    gen.start()
    cluster.run(until=200_000.0)
    gen.stop()
    cluster.run(until=350_000.0)
    cluster.shutdown()
    midtier = handle.midtier
    assert gen.completed > 100
    assert midtier.hedges_sent > 0, "hedge trigger never fired: tune the delay"
    # Originals + every hedge/retry duplicate went through the coalescer.
    stats = midtier.batcher.stats()
    assert stats["subrequests_batched"] == (
        midtier.subrequests_sent + midtier.hedges_sent + midtier.retries_sent
    )
