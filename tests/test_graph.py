"""Service-graph construction, validation, and execution tests.

Three layers:

* :class:`~repro.graph.GraphConfig` validation — cycles (with the path
  named in the error), dangling/self/duplicate edges, unreachable nodes, controlled terminals —
  plus property-based checks that ``topological_order`` really is
  topological on arbitrary random DAGs;
* the builder — the committed exemplars instantiate, run, and complete;
  async edges fire without gating replies; per-node knobs (replicas,
  cache, batch) wire the same runtime machinery the suite services use;
* bit-identity — a one-hop ``repro.graph`` topology produces the exact
  same per-request latencies as the same machines wired by hand through
  the suite's leaf/mid-tier path, so the graph layer adds *zero*
  behavior of its own.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.config import ControlConfig
from repro.graph import (
    GraphConfig,
    GraphEdge,
    GraphError,
    GraphNode,
    build_graph,
    exemplar_graph,
    onehop_graph,
)
from repro.graph.apps import GraphLeafApp, GraphNodeApp
from repro.graph.build import DEFAULT_LEAF_RUNTIME, DEFAULT_NODE_RUNTIME
from repro.loadgen import CyclingSource
from repro.rpc.adaptive import make_midtier_runtime
from repro.rpc.server import LeafRuntime
from repro.services.costmodel import LinearCost
from repro.suite.cluster import (
    LEAF_PORT,
    MIDTIER_PORT,
    ServiceHandle,
    SimCluster,
    Tier,
    run_open_loop,
)


def _nodes(*names):
    return tuple(GraphNode(name=name) for name in names)


# -- validation --------------------------------------------------------------

def test_cycle_rejected_with_path_in_error():
    with pytest.raises(GraphError, match=r"cycle: a -> b -> c -> a"):
        GraphConfig(
            name="g", root="a", nodes=_nodes("a", "b", "c"),
            edges=(
                GraphEdge(src="a", dst="b"),
                GraphEdge(src="b", dst="c"),
                GraphEdge(src="c", dst="a"),
            ),
        )


def test_two_node_cycle_rejected():
    with pytest.raises(GraphError, match="cycle"):
        GraphConfig(
            name="g", root="a", nodes=_nodes("a", "b"),
            edges=(GraphEdge(src="a", dst="b"), GraphEdge(src="b", dst="a")),
        )


def test_self_edge_rejected():
    with pytest.raises(GraphError, match="self-edge"):
        GraphConfig(
            name="g", root="a", nodes=_nodes("a"),
            edges=(GraphEdge(src="a", dst="a"),),
        )


def test_dangling_edge_rejected():
    with pytest.raises(GraphError, match="unknown node 'ghost'"):
        GraphConfig(
            name="g", root="a", nodes=_nodes("a"),
            edges=(GraphEdge(src="a", dst="ghost"),),
        )


def test_duplicate_node_rejected():
    with pytest.raises(GraphError, match="duplicate node"):
        GraphConfig(name="g", root="a", nodes=_nodes("a", "a"), edges=())


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError, match="duplicate edge"):
        GraphConfig(
            name="g", root="a", nodes=_nodes("a", "b"),
            edges=(GraphEdge(src="a", dst="b"), GraphEdge(src="a", dst="b")),
        )


def test_unreachable_node_rejected():
    with pytest.raises(GraphError, match="unreachable from root"):
        GraphConfig(
            name="g", root="a", nodes=_nodes("a", "b", "island"),
            edges=(GraphEdge(src="a", dst="b"),),
        )


def test_unknown_root_rejected():
    with pytest.raises(GraphError, match="root 'z' is not a node"):
        GraphConfig(name="g", root="z", nodes=_nodes("a"), edges=())


def test_bad_edge_mode_and_fanout_rejected():
    with pytest.raises(GraphError, match="mode"):
        GraphEdge(src="a", dst="b", mode="maybe")
    with pytest.raises(GraphError, match="fanout"):
        GraphEdge(src="a", dst="b", fanout=0)


def test_bad_node_knobs_rejected():
    with pytest.raises(GraphError, match="service_us"):
        GraphNode(name="a", service_us=0.0)
    with pytest.raises(GraphError, match="replicas"):
        GraphNode(name="a", replicas=0)


def test_controlled_terminal_rejected_at_construction():
    controlled = ControlConfig(enabled=True, max_replicas=2)
    with pytest.raises(GraphError, match="terminal node 'b' cannot be controlled"):
        GraphConfig(
            name="g", root="a",
            nodes=(GraphNode(name="a"), GraphNode(name="b", control=controlled)),
            edges=(GraphEdge(src="a", dst="b"),),
        )
    # The serialized form is rejected by the same check.
    data = GraphConfig(
        name="g", root="a", nodes=_nodes("a", "b"),
        edges=(GraphEdge(src="a", dst="b"),),
    ).to_dict()
    data["nodes"][1]["control"] = asdict(controlled)
    with pytest.raises(GraphError, match="cannot be controlled"):
        GraphConfig.from_dict(data)


# -- topology properties -----------------------------------------------------

@st.composite
def random_dags(draw):
    """A valid GraphConfig: random forward edges on n nodes, restricted
    to the subgraph reachable from node 0 (the root)."""
    n = draw(st.integers(min_value=2, max_value=7))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    reachable = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for src, dst in edges:
            if src == node and dst not in reachable:
                reachable.add(dst)
                frontier.append(dst)
    names = [f"n{i}" for i in sorted(reachable)]
    kept = [
        GraphEdge(src=f"n{src}", dst=f"n{dst}")
        for src, dst in edges
        if src in reachable and dst in reachable
    ]
    return GraphConfig(
        name="rand", root="n0",
        nodes=tuple(GraphNode(name=name) for name in names),
        edges=tuple(kept),
    )


@given(graph=random_dags())
@settings(max_examples=100, deadline=None)
def test_topological_order_is_topological(graph):
    order = graph.topological_order()
    assert sorted(order) == sorted(node.name for node in graph.nodes)
    position = {name: i for i, name in enumerate(order)}
    for edge in graph.edges:
        assert position[edge.src] < position[edge.dst]


@given(graph=random_dags())
@settings(max_examples=100, deadline=None)
def test_terminals_and_visits_consistent(graph):
    terminals = graph.terminal_names()
    assert terminals, "a finite DAG always has at least one sink"
    for name in terminals:
        assert not graph.children(name)
    visits = graph.visits_per_query()
    assert visits[graph.root] == 1.0
    # Flow conservation: a node's visits equal the fanout-weighted sum
    # over its incoming edges (plus the root's injected 1).
    for node in graph.nodes:
        inbound = sum(
            visits[edge.src] * edge.fanout
            for edge in graph.edges
            if edge.dst == node.name
        )
        expected = inbound + (1.0 if node.name == graph.root else 0.0)
        assert visits[node.name] == pytest.approx(expected)


@given(graph=random_dags())
@settings(max_examples=50, deadline=None)
def test_round_trip_serialization(graph):
    assert GraphConfig.from_dict(graph.to_dict()) == graph


# -- the committed exemplars -------------------------------------------------

def test_exemplar_shape():
    deep = exemplar_graph()
    assert deep.depth() == 5
    assert deep.terminal_names()[0] == "store"
    visits = deep.visits_per_query()
    assert visits["store"] == 16.0
    assert visits["analytics"] == 1.0
    base = onehop_graph()
    assert base.depth() == 2
    assert base.terminal_names() == ["store"]
    assert base.visits_per_query()["store"] == 4.0


def test_exemplar_runs_and_completes():
    cluster = SimCluster(seed=0)
    handle = build_graph(cluster, exemplar_graph(n_queries=50))
    result = run_open_loop(
        cluster, handle, qps=800.0, duration_us=150_000.0, warmup_us=50_000.0
    )
    assert result.completed > 0
    # The histogram may additionally hold drain-time completions from
    # requests still in flight at the window edge.
    assert result.e2e.count >= result.completed
    # The async analytics edge fired but never gated a reply.
    root = handle.midtier
    assert root.async_subs_sent > 0
    assert root.late_responses == 0
    cluster.shutdown()


def test_async_only_node_replies_immediately():
    graph = GraphConfig(
        name="fnf", root="a", nodes=_nodes("a", "b"),
        edges=(GraphEdge(src="a", dst="b", mode="async"),), n_queries=10,
    )
    cluster = SimCluster(seed=0)
    handle = build_graph(cluster, graph)
    result = run_open_loop(
        cluster, handle, qps=500.0, duration_us=100_000.0, warmup_us=20_000.0
    )
    assert result.completed > 0
    assert handle.midtier.async_subs_sent >= result.completed
    cluster.shutdown()


def test_replicated_node_gets_balancer():
    graph = GraphConfig(
        name="rep", root="a", nodes=(
            GraphNode(name="a"),
            GraphNode(name="b", replicas=2),
        ),
        edges=(GraphEdge(src="a", dst="b"),), n_queries=10,
    )
    cluster = SimCluster(seed=0)
    handle = build_graph(cluster, graph)
    names = [machine.name for machine in cluster.machines]
    assert names == ["rep-b0", "rep-b1", "rep-a"]
    balancer = handle.extras["tiers"]["b"].frontend
    assert balancer is not None
    # The mid-tier fans out to the balancer, not to a replica directly.
    assert handle.midtier.leaf_addrs == [balancer.address]
    cluster.shutdown()


def _two_controlled(window_a, window_b):
    return GraphConfig(
        name="two", root="a", n_queries=10,
        nodes=(
            GraphNode(name="a", control=ControlConfig(enabled=True, window_us=window_a)),
            GraphNode(name="b", control=ControlConfig(enabled=True, window_us=window_b)),
            GraphNode(name="c"),
        ),
        edges=(GraphEdge(src="a", dst="b"), GraphEdge(src="b", dst="c")),
    )


def test_controllers_on_one_cluster_must_share_a_window_width():
    # One cluster has one telemetry window grid; the second controller
    # used to be handed the first one's grid silently.
    cluster = SimCluster(seed=0)
    with pytest.raises(ValueError, match="two-a-ctrl: control.window_us=25000.0"):
        build_graph(cluster, _two_controlled(25_000.0, 10_000.0))
    cluster.shutdown()
    cluster = SimCluster(seed=0)
    build_graph(cluster, _two_controlled(10_000.0, 10_000.0))
    assert [ctrl.name for ctrl in cluster.controllers] == ["two-b-ctrl", "two-a-ctrl"]
    cluster.shutdown()


def test_per_node_cache_and_batch_knobs_wire_runtime():
    from repro.suite.config import BatchConfig, CacheConfig

    graph = GraphConfig(
        name="knobs", root="a", nodes=(
            GraphNode(
                name="a",
                cache=CacheConfig(enabled=True, capacity=64),
                batch=BatchConfig(enabled=True, max_batch=4),
            ),
            GraphNode(name="b"),
        ),
        edges=(GraphEdge(src="a", dst="b"),), n_queries=10,
    )
    cluster = SimCluster(seed=0)
    handle = build_graph(cluster, graph)
    assert handle.midtier.cache is not None
    assert handle.midtier.batcher is not None
    plain = build_graph(SimCluster(seed=0), onehop_graph(n_queries=10))
    assert plain.midtier.cache is None
    assert plain.midtier.batcher is None
    cluster.shutdown()


# -- bit-identity against the hand-built suite path --------------------------

def _hand_built_onehop(cluster, graph):
    """Wire onehop_graph's machines exactly as a suite service builder
    would — same stream names, same construction order, same runtimes —
    without going through repro.graph.build."""
    workload_rng = cluster.rng.py(f"{graph.name}:workload")
    units = [
        workload_rng.uniform(graph.units_low, graph.units_high)
        for _ in range(graph.n_queries)
    ]
    query_set = [
        (("gq", qid, units[qid]), graph.request_bytes)
        for qid in range(graph.n_queries)
    ]
    store = graph.node("store")
    gateway = graph.node("gateway")
    edge = graph.children("gateway")[0]
    leaf_machine = cluster.machine(
        f"{graph.name}-store", cores=store.cores, role="leaf", leaf_index=0
    )
    leaf = LeafRuntime(
        leaf_machine, port=LEAF_PORT,
        app=GraphLeafApp(store, LinearCost.calibrated(store.service_us, units)),
        config=DEFAULT_LEAF_RUNTIME,
    )
    mid_machine = cluster.machine(
        f"{graph.name}-gateway", cores=gateway.cores, role="midtier"
    )
    mid = make_midtier_runtime(
        mid_machine, port=MIDTIER_PORT,
        app=GraphNodeApp(
            gateway, children=[(edge, 0)],
            cost=LinearCost.calibrated(gateway.service_us, units),
            merge_cost=LinearCost.calibrated(gateway.merge_us, [edge.fanout]),
        ),
        leaf_addrs=[leaf.address], config=DEFAULT_NODE_RUNTIME,
    )
    return ServiceHandle(
        name=graph.name, root=Tier([mid], [mid_machine], None),
        leaves=[leaf], make_source=lambda: CyclingSource(query_set),
    )


def test_onehop_graph_bit_identical_to_hand_built_cluster():
    graph = onehop_graph(n_queries=40)
    results = []
    for build in (build_graph, _hand_built_onehop):
        cluster = SimCluster(seed=7)
        handle = build(cluster, graph)
        result = run_open_loop(
            cluster, handle, qps=1_000.0, duration_us=200_000.0,
            warmup_us=50_000.0,
        )
        results.append(result)
        cluster.shutdown()
    via_graph, by_hand = results
    assert via_graph.sent == by_hand.sent
    assert via_graph.completed == by_hand.completed
    # The strong claim: every individual end-to-end latency matches.
    assert via_graph.e2e.samples() == by_hand.e2e.samples()
    assert (
        via_graph.telemetry.syscall_counts("onehop-gateway")
        == by_hand.telemetry.syscall_counts("onehop-gateway")
    )
