"""Router's microservices and deployment builder (paper §III-B).

Pipeline (paper Fig. 5): the mid-tier SpookyHashes the key to pick a
shard, then routes — ``set`` requests fan out to *every* replica of the
shard's replication pool (three replicas in the paper's experiments);
``get`` requests go to one randomly chosen replica, balancing read load.
Leaves wrap memcached-like stores.  Leaf index layout:
``leaf = shard * n_replicas + replica``.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from repro.data.kvtrace import KeyValueTrace, KvOp
from repro.rpc import (
    FanoutPlan,
    LeafApp,
    LeafResult,
    MergeResult,
    MidTierApp,
)
from repro.services.costmodel import LinearCost
from repro.services.router.memcached import MemcachedStore
from repro.services.router.spookyhash import SpookyHash
from repro.suite.cluster import ServiceHandle, SimCluster, build_three_tier
from repro.suite.config import ServiceScale

_HEADER_BYTES = 32

#: Cores per memcached leaf.
LEAF_CORES = 1
#: Mid-tier cores.  Routing work (parse + SpookyHash + rewrite) runs under
#: the completion-queue lock (parse_in_network_thread), so the lock — not
#: memcached leaf CPU — bounds throughput, as a real gRPC McRouter-alike
#: saturates.
MIDTIER_CORES = 4


class RouterLeafApp(LeafApp):
    """A leaf: gRPC wrapper around one memcached store replica."""

    def __init__(self, store: MemcachedStore, cost: LinearCost):
        self.store = store
        self.cost = cost

    def handle(self, request: KvOp) -> LeafResult:
        if request.op == "get":
            value = self.store.get(request.key)
            payload: Tuple[str, object] = ("value", value)
            size = _HEADER_BYTES + (len(value) if value is not None else 0)
            units = len(request.key) + (len(value) if value is not None else 0)
        elif request.op == "set":
            self.store.set(request.key, request.value or "")
            payload = ("stored", True)
            size = _HEADER_BYTES
            units = len(request.key) + len(request.value or "")
        else:
            payload = ("error", f"bad op {request.op}")
            size = _HEADER_BYTES
            units = len(request.key)
        return LeafResult(compute_us=self.cost(units), payload=payload, size_bytes=size)


class RouterMidTierApp(MidTierApp):
    """The mid-tier: SpookyHash route computation plus replica selection."""

    # Replicas share this one app: every read's replica pick draws from
    # ``replica_rng``, and ``mark_leaf_down`` changes routing for all of
    # them, so the draws must stay in the strict order across replicas.
    replicas_share_state = True

    def __init__(
        self,
        n_shards: int,
        n_replicas: int,
        hash_cost: LinearCost,
        merge_cost: LinearCost,
        replica_rng: random.Random,
        hasher: SpookyHash | None = None,
    ):
        self.n_shards = n_shards
        self.n_replicas = n_replicas
        self.hash_cost = hash_cost
        self.merge_cost = merge_cost
        self.replica_rng = replica_rng
        self.hasher = hasher or SpookyHash(seed1=0x5EED, seed2=0xF00D)
        # Online reconfiguration (a McRouter feature the paper lists):
        # leaves marked down are excluded from routing until marked up.
        self._down: set = set()

    def leaf_index(self, shard: int, replica: int) -> int:
        return shard * self.n_replicas + replica

    def mark_leaf_down(self, leaf_index: int) -> None:
        """Exclude a replica from routing (failure / maintenance)."""
        self._down.add(leaf_index)

    def mark_leaf_up(self, leaf_index: int) -> None:
        """Re-admit a previously excluded replica."""
        self._down.discard(leaf_index)

    def _live_replicas(self, shard: int):
        return [
            replica
            for replica in range(self.n_replicas)
            if self.leaf_index(shard, replica) not in self._down
        ]

    def cache_key(self, op: KvOp):
        # Only reads are cacheable; a hit skips the SpookyHash + replica
        # pick entirely (McRouter's local-cache fast path).
        if op.op == "get":
            return b"get:" + op.key.encode()
        return None

    def cache_invalidates(self, op: KvOp):
        # Writes shadow the key they store: the cached get must die so a
        # later read cannot see the pre-write value.
        if op.op == "set":
            return b"get:" + op.key.encode()
        return None

    def fanout(self, op: KvOp) -> FanoutPlan:
        shard = self.hasher.shard_for(op.key, self.n_shards)
        compute = self.hash_cost(len(op.key))
        live = self._live_replicas(shard)
        if not live:
            return FanoutPlan(compute_us=compute, subrequests=[])
        if op.op == "set":
            # Replicate the write to the whole (live) pool.
            subrequests = [
                (self.leaf_index(shard, replica), op, _HEADER_BYTES + op.size_bytes)
                for replica in live
            ]
        else:
            # Spread reads uniformly over live replicas.
            replica = live[self.replica_rng.randrange(len(live))]
            subrequests = [
                (self.leaf_index(shard, replica), op, _HEADER_BYTES + op.size_bytes)
            ]
        return FanoutPlan(compute_us=compute, subrequests=subrequests)

    def merge(self, op: KvOp, responses: Sequence[Tuple[str, object]]) -> MergeResult:
        if not responses:
            return MergeResult(
                compute_us=self.merge_cost(0),
                payload=("error", "no live replicas"),
                size_bytes=_HEADER_BYTES,
            )
        if op.op == "set":
            ok = all(tag == "stored" for tag, _ in responses)
            payload: Tuple[str, object] = ("stored", ok)
            size = _HEADER_BYTES
        else:
            tag, value = responses[0]
            payload = (tag, value)
            size = _HEADER_BYTES + (len(value) if isinstance(value, str) else 0)
        return MergeResult(
            compute_us=self.merge_cost(len(responses)), payload=payload, size_bytes=size
        )


def build_router(
    cluster: SimCluster,
    scale: ServiceScale,
    midtier_policy=None,
    tail_policy=None,
    name_prefix: str = "router",
) -> ServiceHandle:
    """Wire a complete Router deployment onto ``cluster``."""
    seed = cluster.rng.py(f"{name_prefix}:dataset").randrange(2**31)
    trace = KeyValueTrace(n_keys=scale.router_keys, seed=seed)
    n_shards = scale.topology.n_leaves
    n_replicas = scale.topology.router_replicas

    ops = trace.ops(scale.n_queries)
    sample_units = [
        len(op.key) + (len(op.value) if op.value else 0) for op in ops[:200]
    ]
    # Mostly-fixed cost: a memcached get and set cost nearly the same
    # (hash + item header work); only a small part scales with bytes.
    leaf_cost = LinearCost.calibrated(
        scale.target_leaf_service_us["router"], sample_units, base_fraction=0.85
    )
    hash_cost = LinearCost.calibrated(
        scale.target_midtier_service_us["router"] * 0.8,
        [len(op.key) for op in ops[:200]],
    )
    merge_cost = LinearCost.calibrated(
        scale.target_midtier_service_us["router"] * 0.2, [2.0]
    )

    hasher = SpookyHash(seed1=0x5EED, seed2=0xF00D)
    stores = [
        MemcachedStore(clock=lambda: cluster.sim.now)
        for _ in range(n_shards * n_replicas)
    ]

    # Preload every key into its shard's replication pool (offline warm-up,
    # like populating memcached before opening a service to traffic).
    for op in trace.preload_ops():
        shard = hasher.shard_for(op.key, n_shards)
        for replica in range(n_replicas):
            stores[shard * n_replicas + replica].set(op.key, op.value or "")

    mid_app = RouterMidTierApp(
        n_shards=n_shards,
        n_replicas=n_replicas,
        hash_cost=hash_cost,
        merge_cost=merge_cost,
        replica_rng=cluster.rng.py(f"{name_prefix}:replica"),
        hasher=hasher,
    )
    query_set = [(op, _HEADER_BYTES + op.size_bytes) for op in ops]

    return build_three_tier(
        cluster, scale, "router", name_prefix,
        leaf_apps={
            f"{name_prefix}-leaf{shard}r{replica}":
                RouterLeafApp(stores[shard * n_replicas + replica], leaf_cost)
            for shard in range(n_shards)
            for replica in range(n_replicas)
        },
        mid_app=mid_app,
        query_set=query_set,
        extras={"trace": trace, "stores": stores, "hasher": hasher},
        midtier_policy=midtier_policy,
        tail_policy=tail_policy,
        leaf_cores=LEAF_CORES,
        midtier_cores=MIDTIER_CORES,
        midtier_runtime=scale.router_midtier_runtime,
    )
