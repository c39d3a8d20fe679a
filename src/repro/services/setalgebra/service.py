"""Set Algebra's microservices and deployment builder (paper §III-C).

Pipeline (paper Fig. 6): the mid-tier forwards the query's search terms to
every leaf; each leaf intersects the terms' posting lists over its
document shard; the mid-tier unions the per-shard intersections and
returns the final posting list.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.data.documents import DocumentCorpus
from repro.rpc import (
    FanoutPlan,
    LeafApp,
    LeafResult,
    MergeResult,
    MidTierApp,
)
from repro.services.costmodel import LinearCost
from repro.services.setalgebra.index import InvertedIndex
from repro.suite.cluster import ServiceHandle, SimCluster, build_three_tier
from repro.suite.config import ServiceScale

_HEADER_BYTES = 32
#: Stop-list size as a fraction of the vocabulary.
_STOP_FRACTION = 0.001


class SetAlgebraLeafApp(LeafApp):
    """A leaf: posting-list intersection over one document shard."""

    def __init__(self, index: InvertedIndex, cost: LinearCost):
        self.index = index
        self.cost = cost

    def handle(self, terms: Sequence[int]) -> LeafResult:
        matching = self.index.intersect(terms)
        units = self.index.work_units(terms)
        return LeafResult(
            compute_us=self.cost(units),
            payload=matching,
            size_bytes=_HEADER_BYTES + 8 * len(matching),
        )


class SetAlgebraMidTierApp(MidTierApp):
    """The mid-tier: forward terms to all shards, union the results."""

    replicas_share_state = False  # stateless

    def __init__(self, n_leaves: int, forward_cost: LinearCost, union_cost: LinearCost):
        self.n_leaves = n_leaves
        self.forward_cost = forward_cost
        self.union_cost = union_cost

    def cache_key(self, terms: Sequence[int]) -> bytes:
        # Intersection ∩ union is order- and multiplicity-insensitive, so
        # canonicalize to the sorted term set: {a,b} and [b,a,b] share one
        # cache line (and provably the same merged posting list).
        return b"sa:" + b",".join(b"%d" % t for t in sorted(set(terms)))

    def fanout(self, terms: Sequence[int]) -> FanoutPlan:
        size = _HEADER_BYTES + 8 * len(terms)
        subrequests = [(leaf, terms, size) for leaf in range(self.n_leaves)]
        return FanoutPlan(compute_us=self.forward_cost(len(terms)), subrequests=subrequests)

    def merge(self, terms: Sequence[int], responses: Sequence[List[int]]) -> MergeResult:
        # Shards are disjoint, so the union is a concatenation + sort.
        union: List[int] = []
        for shard_result in responses:
            union.extend(shard_result)
        union.sort()
        return MergeResult(
            compute_us=self.union_cost(len(union) + len(responses)),
            payload=union,
            size_bytes=_HEADER_BYTES + 8 * len(union),
        )


def build_setalgebra(
    cluster: SimCluster,
    scale: ServiceScale,
    midtier_policy=None,
    tail_policy=None,
    name_prefix: str = "sa",
) -> ServiceHandle:
    """Wire a complete Set Algebra deployment onto ``cluster``."""
    seed = cluster.rng.py(f"{name_prefix}:dataset").randrange(2**31)
    corpus = DocumentCorpus(
        n_documents=scale.setalgebra_docs,
        vocabulary_size=scale.setalgebra_vocab,
        seed=seed,
    )
    stop_list = corpus.stop_list(max(1, int(scale.setalgebra_vocab * _STOP_FRACTION)))
    queries = corpus.make_queries(scale.n_queries, seed=seed + 1)

    # Shard documents uniformly across leaves (paper: "sharded uniformly").
    n_leaves = scale.topology.n_leaves
    indexes: List[InvertedIndex] = []
    for leaf in range(n_leaves):
        doc_ids = list(range(leaf, corpus.n_documents, n_leaves))
        docs = [corpus.documents[i] for i in doc_ids]
        indexes.append(InvertedIndex(docs, doc_ids, stop_list=stop_list, seed=seed))

    sample_units: List[float] = []
    union_units: List[float] = []
    for terms in queries[:200]:
        union_size = 0
        for index in indexes:
            sample_units.append(index.work_units(terms))
            union_size += len(index.intersect(terms))
        union_units.append(float(union_size + n_leaves))
    leaf_cost = LinearCost.calibrated(
        scale.target_leaf_service_us["setalgebra"], sample_units
    )
    forward_cost = LinearCost.calibrated(
        scale.target_midtier_service_us["setalgebra"] * 0.6,
        [len(q) for q in queries[:200]],
    )
    # Calibrated on real union sizes so that large result sets cost more
    # without dominating the mid-tier (union is a memcpy-rate operation).
    union_cost = LinearCost.calibrated(
        scale.target_midtier_service_us["setalgebra"] * 0.4, union_units
    )

    query_set = [(terms, _HEADER_BYTES + 8 * len(terms)) for terms in queries]

    return build_three_tier(
        cluster, scale, "setalgebra", name_prefix,
        leaf_apps={
            f"{name_prefix}-leaf{i}": SetAlgebraLeafApp(index, leaf_cost)
            for i, index in enumerate(indexes)
        },
        mid_app=SetAlgebraMidTierApp(n_leaves, forward_cost, union_cost),
        query_set=query_set,
        extras={"corpus": corpus, "stop_list": stop_list, "indexes": indexes},
        midtier_policy=midtier_policy,
        tail_policy=tail_policy,
    )
