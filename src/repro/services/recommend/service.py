"""Recommend's microservices and deployment builder (paper §III-D).

Pipeline (paper Fig. 7): the mid-tier is primarily a forwarding service —
it fans each {user, item} query pair to every leaf; leaves run
collaborative filtering over their user shard (sparse matrix composition
and NMF happen offline at build time); the mid-tier averages the leaves'
rating predictions and replies.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.data.ratings import RatingsDataset
from repro.rpc import (
    FanoutPlan,
    LeafApp,
    LeafResult,
    MergeResult,
    MidTierApp,
)
from repro.services.costmodel import LinearCost
from repro.services.recommend.knn import AllKnnPredictor
from repro.services.recommend.nmf import complete_matrix, nmf_factorize
from repro.suite.cluster import ServiceHandle, SimCluster, build_three_tier
from repro.suite.config import ServiceScale

_HEADER_BYTES = 32
_QUERY_BYTES = _HEADER_BYTES + 16  # two int ids


class RecommendLeafApp(LeafApp):
    """A leaf: allknn collaborative filtering over its user shard."""

    def __init__(
        self,
        predictor: AllKnnPredictor,
        user_factors: np.ndarray,
        cost: LinearCost,
    ):
        self.predictor = predictor
        # Global factor table so the leaf can embed any query user.
        self.user_factors = user_factors
        self.cost = cost

    def handle(self, query: Tuple[int, int]) -> LeafResult:
        user, item = query
        prediction = self.predictor.predict(self.user_factors[user], item)
        return LeafResult(
            compute_us=self.cost(self.predictor.work_units()),
            payload=prediction,
            size_bytes=_HEADER_BYTES + 8,
        )


class RecommendMidTierApp(MidTierApp):
    """The mid-tier: forward the pair everywhere, average the predictions."""

    replicas_share_state = False  # stateless

    def __init__(self, n_leaves: int, forward_cost: LinearCost, average_cost: LinearCost):
        self.n_leaves = n_leaves
        self.forward_cost = forward_cost
        self.average_cost = average_cost

    def cache_key(self, query: Tuple[int, int]) -> bytes:
        # Predictions are a pure function of the (user, item) pair.
        user, item = query
        return b"rec:%d:%d" % (user, item)

    def fanout(self, query: Tuple[int, int]) -> FanoutPlan:
        subrequests = [(leaf, query, _QUERY_BYTES) for leaf in range(self.n_leaves)]
        return FanoutPlan(compute_us=self.forward_cost(1), subrequests=subrequests)

    def merge(self, query: Tuple[int, int], responses: Sequence[float]) -> MergeResult:
        average = float(sum(responses) / len(responses)) if responses else 0.0
        return MergeResult(
            compute_us=self.average_cost(len(responses)),
            payload=average,
            size_bytes=_HEADER_BYTES + 8,
        )


def build_recommend(
    cluster: SimCluster,
    scale: ServiceScale,
    midtier_policy=None,
    tail_policy=None,
    name_prefix: str = "rec",
) -> ServiceHandle:
    """Wire a complete Recommend deployment onto ``cluster``."""
    seed = cluster.rng.py(f"{name_prefix}:dataset").randrange(2**31)
    data = RatingsDataset(
        n_users=scale.recommend_users,
        n_items=scale.recommend_items,
        n_ratings=scale.recommend_ratings,
        seed=seed,
    )
    # Offline stages: sparse matrix composition + matrix factorization.
    w, h = nmf_factorize(data.utility, data.mask, rank=data.rank, seed=seed + 1)
    completed = complete_matrix(w, h)
    # Observed cells keep their true ratings in the completed matrix.
    completed[data.mask] = data.utility[data.mask]

    n_leaves = scale.topology.n_leaves
    predictors: List[AllKnnPredictor] = []
    for leaf in range(n_leaves):
        rows = np.arange(leaf, data.n_users, n_leaves)
        predictors.append(
            AllKnnPredictor(w[rows], completed[rows], k=10)
        )

    sample_units = [float(p.work_units()) for p in predictors]
    leaf_cost = LinearCost.calibrated(
        scale.target_leaf_service_us["recommend"], sample_units
    )
    forward_cost = LinearCost.calibrated(
        scale.target_midtier_service_us["recommend"] * 0.6, [1.0]
    )
    average_cost = LinearCost.calibrated(
        scale.target_midtier_service_us["recommend"] * 0.4, [float(n_leaves)]
    )

    # Queries come from empty utility-matrix cells only (paper §III-D).
    pairs = data.query_pairs(scale.n_queries, seed=seed + 2)
    query_set = [(pair, _QUERY_BYTES) for pair in pairs]

    return build_three_tier(
        cluster, scale, "recommend", name_prefix,
        leaf_apps={
            f"{name_prefix}-leaf{i}": RecommendLeafApp(predictor, w, leaf_cost)
            for i, predictor in enumerate(predictors)
        },
        mid_app=RecommendMidTierApp(n_leaves, forward_cost, average_cost),
        query_set=query_set,
        extras={"dataset": data, "factors": (w, h), "completed": completed},
        midtier_policy=midtier_policy,
        tail_policy=tail_policy,
    )
