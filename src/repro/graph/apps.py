"""Synthetic service kernels for graph nodes.

Graph queries are ``("gq", qid, units)`` tuples: ``qid`` identifies the
query (the workload cycles a fixed set, so per-node result caches can
hit), and ``units`` is the per-query work multiplier every node's
:class:`~repro.services.costmodel.LinearCost` kernel is charged against.
The same tuple propagates unchanged down every edge, so one query's work
is correlated across tiers — like a large request being large everywhere.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.graph.config import GraphEdge, GraphNode
from repro.rpc import FanoutPlan, LeafApp, LeafResult, MergeResult, MidTierApp
from repro.services.costmodel import LinearCost


class GraphLeafApp(LeafApp):
    """A terminal node: charge the kernel, echo a reply."""

    replicas_share_state = False  # stateless

    def __init__(self, node: GraphNode, cost: LinearCost):
        self.node = node
        self.cost = cost

    def handle(self, request) -> LeafResult:
        _tag, qid, units = request
        return LeafResult(
            compute_us=self.cost(units),
            payload=("gr", self.node.name, qid),
            size_bytes=self.node.response_bytes,
        )


class GraphNodeApp(MidTierApp):
    """An internal node: charge the kernel, fan out along every edge.

    ``children`` pairs each outgoing edge with its index into the
    runtime's ``leaf_addrs`` (the builder wires them in the same order).
    Sync edges become awaited sub-requests; async edges ride the plan's
    fire-and-forget list and never gate the merge.
    """

    replicas_share_state = False  # stateless

    def __init__(
        self,
        node: GraphNode,
        children: Sequence[Tuple[GraphEdge, int]],
        cost: LinearCost,
        merge_cost: LinearCost,
    ):
        self.node = node
        self.children = list(children)
        self.cost = cost
        self.merge_cost = merge_cost

    def fanout(self, query) -> FanoutPlan:
        _tag, qid, units = query
        sync: List[Tuple[int, object, int]] = []
        fire: List[Tuple[int, object, int]] = []
        for edge, child_index in self.children:
            bucket = sync if edge.mode == "sync" else fire
            for _ in range(edge.fanout):
                bucket.append((child_index, query, edge.request_bytes))
        return FanoutPlan(
            compute_us=self.cost(units),
            subrequests=sync,
            fire_and_forget=fire,
        )

    def merge(self, query, responses: Sequence[object]) -> MergeResult:
        _tag, qid, _units = query
        return MergeResult(
            compute_us=self.merge_cost(len(responses)),
            payload=("gr", self.node.name, qid),
            size_bytes=self.node.response_bytes,
        )

    def cache_key(self, query):
        if not self.node.cache.enabled:
            return None
        _tag, qid, _units = query
        return f"g:{self.node.name}:{qid}".encode()


__all__ = ["GraphLeafApp", "GraphNodeApp"]
