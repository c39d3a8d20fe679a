"""Instantiate a :class:`~repro.graph.config.GraphConfig` on a cluster.

The builder walks the DAG in reverse topological order (children before
parents): terminal nodes become :class:`~repro.rpc.server.LeafRuntime`\\ s,
internal nodes become mid-tier runtimes whose ``leaf_addrs`` are their
children's front addresses — a child replicated N times sits behind its
own :class:`~repro.rpc.loadbalance.LoadBalancer`, exactly like the PR 3
scale-out path.  Per-node batching and result caching reuse the same
conversion :func:`~repro.suite.cluster.build_midtier_replicas` performs,
so a one-hop graph is wired identically to the existing suite services
(tests/test_graph.py pins this bit-for-bit).

Terminal nodes register with ``role="leaf"`` and a ``leaf_index`` equal
to their position in :meth:`GraphConfig.terminal_names`, so a
:class:`~repro.faults.FaultPlan` targets graph leaves the same way it
targets service leaves.  Internal nodes register with ``role="midtier"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.control import Controller
from repro.control.controller import WINDOW_SERIES
from repro.graph.apps import GraphLeafApp, GraphNodeApp
from repro.graph.config import GraphConfig, GraphError, GraphNode
from repro.loadgen import CyclingSource
from repro.midcache import CacheConfig as MidCacheConfig
from repro.midcache import QueryCache
from repro.rpc.adaptive import make_midtier_runtime
from repro.rpc.batching import BatchConfig as RpcBatchConfig
from repro.rpc.loadbalance import LoadBalancer
from repro.rpc.server import LeafRuntime, RuntimeConfig
from repro.services.costmodel import LinearCost
from repro.suite.cluster import ServiceHandle, SimCluster

#: Role defaults when a node declares no explicit runtime config.
DEFAULT_LEAF_RUNTIME = RuntimeConfig(network_threads=1, worker_threads=3)
DEFAULT_NODE_RUNTIME = RuntimeConfig(
    network_threads=2, worker_threads=8, response_threads=4
)

#: Well-known ports, matching the suite's one-hop services.
MIDTIER_PORT = 40
LEAF_PORT = 50


def _batch_config(node: GraphNode) -> Optional[RpcBatchConfig]:
    if not node.batch.enabled:
        return None
    return RpcBatchConfig(
        max_batch=node.batch.max_batch, max_wait_us=node.batch.max_wait_us
    )


def _make_cache(node: GraphNode) -> Optional[QueryCache]:
    if not node.cache.enabled:
        return None
    return QueryCache(
        MidCacheConfig(
            capacity=node.cache.capacity,
            ttl_us=node.cache.ttl_us,
            policy=node.cache.policy,
        )
    )


def build_graph(
    cluster: SimCluster,
    graph: GraphConfig,
    name_prefix: Optional[str] = None,
    midtier_policy=None,
    tail_policy=None,
) -> ServiceHandle:
    """Wire one service-graph deployment onto ``cluster``.

    Returns a :class:`~repro.suite.cluster.ServiceHandle` whose mid-tier
    fields describe the root tier, so ``run_open_loop`` /
    ``run_closed_loop`` drive a graph exactly like a one-hop service.
    ``extras`` carries the graph, the per-node runtime map, and the
    terminal-name → fault ``leaf_index`` map.
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

    front_address: Dict[str, Tuple[str, int]] = {}
    runtimes: Dict[str, list] = {}
    machines: Dict[str, list] = {}
    frontends: Dict[str, LoadBalancer] = {}
    for name in build_order:
        node = graph.node(name)
        is_terminal = name in leaf_index
        use_control = node.control.enabled
        if use_control and is_terminal:
            raise GraphError(
                f"graph {graph.name!r}: terminal node {name!r} cannot be "
                "controlled (autoscaling actuates mid-tier runtimes only)"
            )
        # Controlled nodes provision the warm pool; the controller decides
        # how many of them admit (see suite.cluster.build_midtier_replicas
        # for the same convention).
        n_replicas = node.control.max_replicas if use_control else node.replicas
        if use_control and cluster.telemetry.windows is None:
            cluster.telemetry.enable_windows(
                node.control.window_us, WINDOW_SERIES
            )
        node_runtimes: list = []
        node_machines: list = []
        for replica in range(n_replicas):
            suffix = name if n_replicas == 1 else f"{name}{replica}"
            if is_terminal:
                machine = cluster.machine(
                    f"{prefix}-{suffix}", cores=node.cores,
                    role="leaf", leaf_index=leaf_index[name],
                )
                app = GraphLeafApp(
                    node, LinearCost.calibrated(node.service_us, units)
                )
                runtime = LeafRuntime(
                    machine, port=LEAF_PORT, app=app,
                    config=node.runtime or DEFAULT_LEAF_RUNTIME,
                )
            else:
                machine = cluster.machine(
                    f"{prefix}-{suffix}", cores=node.cores,
                    policy=midtier_policy, role="midtier",
                )
                edges = graph.children(name)
                app = GraphNodeApp(
                    node,
                    children=[(edge, i) for i, edge in enumerate(edges)],
                    cost=LinearCost.calibrated(node.service_us, units),
                    merge_cost=LinearCost.calibrated(
                        node.merge_us,
                        [sum(e.fanout for e in edges if e.mode == "sync") or 1],
                    ) if node.merge_us > 0 else LinearCost(0.0, 0.0),
                )
                runtime = make_midtier_runtime(
                    machine, port=MIDTIER_PORT, app=app,
                    leaf_addrs=[front_address[edge.dst] for edge in edges],
                    config=node.runtime or DEFAULT_NODE_RUNTIME,
                    tail_policy=tail_policy,
                    batch_config=_batch_config(node),
                    cache=_make_cache(node),
                )
            node_runtimes.append(runtime)
            node_machines.append(machine)
        if n_replicas > 1:
            frontend = LoadBalancer(
                cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
                name=f"{prefix}-{name}-lb",
                replicas=[runtime.address for runtime in node_runtimes],
                policy=node.lb.policy,
                pool_size=node.lb.pool_size,
                initial_active=(
                    node.control.initial_replicas if use_control else None
                ),
            )
            frontends[name] = frontend
            front_address[name] = frontend.address
        else:
            front_address[name] = node_runtimes[0].address
        if use_control:
            controller = Controller(
                cluster.sim,
                cluster.telemetry,
                node.control,
                name=f"{prefix}-{name}-ctrl",
                runtimes=node_runtimes,
                lb=frontends.get(name),
                signals=[
                    f"midtier_latency:{machine.name}"
                    for machine in node_machines
                ],
                runq_machines=[machine.name for machine in node_machines],
            )
            cluster.controllers.append(controller)
            controller.start()
        runtimes[name] = node_runtimes
        machines[name] = node_machines

    leaves: List[LeafRuntime] = []
    for name in terminals:
        leaves.extend(runtimes[name])
    root_runtimes = runtimes[graph.root]
    return ServiceHandle(
        name=graph.name,
        midtier=root_runtimes[0],
        midtier_machine=machines[graph.root][0],
        leaves=leaves,
        make_source=lambda: CyclingSource(query_set),
        extras={
            "graph": graph,
            "prefix": prefix,
            "leaf_index": leaf_index,
            "runtimes": runtimes,
            "machines": machines,
            "frontends": frontends,
        },
        midtiers=root_runtimes,
        midtier_machines=machines[graph.root],
        frontend=frontends.get(graph.root),
    )


__all__ = [
    "DEFAULT_LEAF_RUNTIME",
    "DEFAULT_NODE_RUNTIME",
    "LEAF_PORT",
    "MIDTIER_PORT",
    "build_graph",
]
