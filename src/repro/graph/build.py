"""Instantiate a :class:`~repro.graph.config.GraphConfig` on a cluster.

The builder walks the DAG in reverse topological order (children before
parents) and stands every node up through
:func:`~repro.suite.cluster.build_tier` — the same provisioning path the
suite services use, so a one-hop graph is wired identically to them
(tests/test_graph.py pins this bit-for-bit).  Terminal nodes become
:class:`~repro.rpc.server.LeafRuntime`\\ s, internal nodes become mid-tier
runtimes whose ``leaf_addrs`` are their children's
:attr:`~repro.suite.cluster.Tier.address` — the balancer when the child
is replicated.  What this module adds is the per-node app, the build
order and the names.

Terminal nodes register with ``role="leaf"`` and a ``leaf_index`` equal
to their position in :meth:`GraphConfig.terminal_names`, so a
:class:`~repro.faults.FaultPlan` targets graph leaves the same way it
targets service leaves.  Internal nodes register with ``role="midtier"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.graph.apps import GraphLeafApp, GraphNodeApp
from repro.graph.config import GraphConfig
from repro.loadgen import CyclingSource
from repro.rpc.server import LeafRuntime, RuntimeConfig
from repro.services.costmodel import LinearCost
from repro.suite.cluster import (
    LEAF_PORT,
    ServiceHandle,
    SimCluster,
    Tier,
    build_tier,
    midtier_maker,
)

#: Role defaults when a node declares no explicit runtime config.
DEFAULT_LEAF_RUNTIME = RuntimeConfig(network_threads=1, worker_threads=3)
DEFAULT_NODE_RUNTIME = RuntimeConfig(
    network_threads=2, worker_threads=8, response_threads=4
)


def build_graph(
    cluster: SimCluster,
    graph: GraphConfig,
    name_prefix: Optional[str] = None,
    midtier_policy=None,
    tail_policy=None,
) -> ServiceHandle:
    """Wire one service-graph deployment onto ``cluster``.

    Returns a :class:`~repro.suite.cluster.ServiceHandle` whose ``root``
    is the root node's tier, so ``run_open_loop`` / ``run_closed_loop``
    drive a graph exactly like a one-hop service.  ``extras`` carries the
    graph, the node-name → :class:`~repro.suite.cluster.Tier` map
    (``tiers``), and the terminal-name → fault ``leaf_index`` map.
    """
    prefix = name_prefix or graph.name
    terminals = graph.terminal_names()
    leaf_index = {name: i for i, name in enumerate(terminals)}

    # Synthetic workload: a fixed cycling query set with per-query work
    # units from a named stream (bit-reproducible; the same stream a
    # hand-built equivalent topology would draw).
    workload_rng = cluster.rng.py(f"{prefix}:workload")
    units = [
        workload_rng.uniform(graph.units_low, graph.units_high)
        for _ in range(graph.n_queries)
    ]
    query_set = [
        (("gq", qid, units[qid]), graph.request_bytes)
        for qid in range(graph.n_queries)
    ]

    # Children before parents, so every parent knows its targets.  Among
    # ready nodes, declaration order — so a one-hop graph provisions its
    # machines in exactly the order the suite services do (leaves first).
    outstanding = {node.name: len(graph.children(node.name)) for node in graph.nodes}
    build_order: List[str] = []
    ready = [node.name for node in graph.nodes if outstanding[node.name] == 0]
    while ready:
        built = ready.pop(0)
        build_order.append(built)
        for edge in graph.edges:
            if edge.dst == built:
                outstanding[edge.src] -= 1
                if outstanding[edge.src] == 0:
                    ready.append(edge.src)

    tiers: Dict[str, Tier] = {}
    for name in build_order:
        node = graph.node(name)
        cost = LinearCost.calibrated(node.service_us, units)
        if name in leaf_index:
            app = GraphLeafApp(node, cost)
            placement = {"role": "leaf", "leaf_index": leaf_index[name]}

            def make_runtime(machine):
                return LeafRuntime(
                    machine, port=LEAF_PORT, app=app,
                    config=node.runtime or DEFAULT_LEAF_RUNTIME,
                )
        else:
            edges = graph.children(name)
            app = GraphNodeApp(
                node,
                children=[(edge, i) for i, edge in enumerate(edges)],
                cost=cost,
                merge_cost=LinearCost.calibrated(
                    node.merge_us,
                    [sum(e.fanout for e in edges if e.mode == "sync") or 1],
                ) if node.merge_us > 0 else LinearCost(0.0, 0.0),
            )
            placement = {"policy": midtier_policy, "role": "midtier"}
            make_runtime = midtier_maker(
                node, app, [tiers[edge.dst].address for edge in edges],
                node.runtime or DEFAULT_NODE_RUNTIME, tail_policy,
            )
        tiers[name] = build_tier(
            cluster, node, node.replicas,
            name=f"{prefix}-{name}",
            front=f"{prefix}-{name}",
            cores=node.cores,
            make_runtime=make_runtime,
            # A node's controller watches its own tier's latency: the
            # end-to-end series would blame every node for any node's tail.
            signals=lambda machines: [
                f"midtier_latency:{machine.name}" for machine in machines
            ],
            **placement,
        )

    leaves: List[LeafRuntime] = []
    for name in terminals:
        leaves.extend(tiers[name].runtimes)
    return ServiceHandle(
        name=graph.name,
        root=tiers[graph.root],
        leaves=leaves,
        make_source=lambda: CyclingSource(query_set),
        extras={
            "graph": graph,
            "prefix": prefix,
            "leaf_index": leaf_index,
            "tiers": tiers,
        },
    )


__all__ = [
    "DEFAULT_LEAF_RUNTIME",
    "DEFAULT_NODE_RUNTIME",
    "build_graph",
]
