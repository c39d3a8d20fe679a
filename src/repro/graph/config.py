"""Frozen declarative configuration for service-graph DAGs.

A :class:`GraphConfig` names a DAG of RPC tiers: each :class:`GraphNode`
is one microserver (its synthetic service kernel, core count, replica
count, and the per-node batching / caching / load-balancing knobs from
the typed config tree), and each :class:`GraphEdge` is an RPC dependency
with a fan-out count and a sync vs. async (fire-and-forget) mode.
Validation happens at construction: duplicate nodes, dangling edge
endpoints, unreachable nodes, controlled terminal nodes, and — most
importantly — cycles are all rejected with errors that name the
offending elements, so a bad graph never reaches the builder.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.control.config import ControlConfig
from repro.rpc.server import RuntimeConfig
from repro.suite.config import BatchConfig, CacheConfig, LbConfig

#: Valid edge modes: "sync" edges are awaited and merged; "async" edges
#: are fire-and-forget side effects whose replies are dropped.
EDGE_MODES = ("sync", "async")


class GraphError(ValueError):
    """An invalid service graph (cycle, dangling edge, bad knob, ...)."""


@dataclass(frozen=True)
class GraphNode:
    """One tier of the graph: a microserver and its per-node knobs.

    Terminal nodes (no outgoing edges) become
    :class:`~repro.rpc.server.LeafRuntime`\\ s; internal nodes become
    :class:`~repro.rpc.server.MidTierRuntime`\\ s.  ``service_us`` is the
    mean request-path compute per visit (the synthetic kernel is a
    :class:`~repro.services.costmodel.LinearCost` calibrated against the
    workload's per-query work units); ``merge_us`` is the mean
    response-path merge compute, charged by internal nodes only.
    """

    name: str
    service_us: float = 50.0
    merge_us: float = 5.0
    cores: int = 2
    replicas: int = 1
    response_bytes: int = 64
    lb: LbConfig = field(default_factory=LbConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    # Closed-loop control for this node (internal nodes only); off by
    # default, constructing nothing.
    control: ControlConfig = field(default_factory=ControlConfig)
    # None picks the builder's role default (leaf vs. mid-tier pools).
    runtime: Optional[RuntimeConfig] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("graph node needs a non-empty name")
        if self.service_us <= 0:
            raise GraphError(
                f"node {self.name!r}: service_us must be positive: {self.service_us}"
            )
        if self.merge_us < 0:
            raise GraphError(
                f"node {self.name!r}: merge_us must be >= 0: {self.merge_us}"
            )
        if self.cores < 1:
            raise GraphError(f"node {self.name!r}: cores must be >= 1: {self.cores}")
        if self.replicas < 1:
            raise GraphError(
                f"node {self.name!r}: replicas must be >= 1: {self.replicas}"
            )


@dataclass(frozen=True)
class GraphEdge:
    """One RPC dependency: ``src`` calls ``dst`` ``fanout`` times."""

    src: str
    dst: str
    fanout: int = 1
    mode: str = "sync"
    request_bytes: int = 96

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise GraphError(
                f"edge {self.src}->{self.dst}: fanout must be >= 1: {self.fanout}"
            )
        if self.mode not in EDGE_MODES:
            raise GraphError(
                f"edge {self.src}->{self.dst}: mode must be one of "
                f"{'/'.join(EDGE_MODES)}: {self.mode!r}"
            )


@dataclass(frozen=True)
class GraphConfig:
    """A validated service DAG plus its synthetic workload parameters.

    ``root`` is where clients send queries.  The workload is a cycling
    set of ``n_queries`` synthetic queries whose per-query work units are
    drawn uniformly from ``[units_low, units_high)`` on a named
    ``sim.rng`` stream, so every node's kernel sees genuine per-request
    variation while runs stay bit-reproducible.
    """

    name: str
    nodes: Tuple[GraphNode, ...]
    edges: Tuple[GraphEdge, ...]
    root: str
    request_bytes: int = 96
    n_queries: int = 2000
    units_low: float = 0.5
    units_high: float = 1.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.name:
            raise GraphError("graph needs a non-empty name")
        if self.n_queries < 1:
            raise GraphError(f"n_queries must be >= 1: {self.n_queries}")
        if not 0 < self.units_low <= self.units_high:
            raise GraphError(
                f"bad units range: [{self.units_low}, {self.units_high})"
            )
        self._validate_shape()

    # -- validation --------------------------------------------------------
    def _validate_shape(self) -> None:
        if not self.nodes:
            raise GraphError(f"graph {self.name!r} has no nodes")
        names = [node.name for node in self.nodes]
        seen: set = set()
        for name in names:
            if name in seen:
                raise GraphError(f"graph {self.name!r}: duplicate node {name!r}")
            seen.add(name)
        if self.root not in seen:
            raise GraphError(
                f"graph {self.name!r}: root {self.root!r} is not a node"
            )
        pairs: set = set()
        for edge in self.edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in seen:
                    raise GraphError(
                        f"graph {self.name!r}: edge {edge.src}->{edge.dst} "
                        f"references unknown node {endpoint!r}"
                    )
            if edge.src == edge.dst:
                raise GraphError(
                    f"graph {self.name!r}: self-edge on {edge.src!r}"
                )
            if (edge.src, edge.dst) in pairs:
                raise GraphError(
                    f"graph {self.name!r}: duplicate edge {edge.src}->{edge.dst} "
                    "(merge into one edge with a larger fanout)"
                )
            pairs.add((edge.src, edge.dst))
        cycle = self._find_cycle()
        if cycle is not None:
            raise GraphError(
                f"graph {self.name!r} has a cycle: {' -> '.join(cycle)} "
                "(service graphs must be DAGs)"
            )
        unreachable = [name for name in names if name not in self._reachable()]
        if unreachable:
            raise GraphError(
                f"graph {self.name!r}: node(s) unreachable from root "
                f"{self.root!r}: {', '.join(unreachable)}"
            )
        terminals = set(self.terminal_names())
        for node in self.nodes:
            if node.control.enabled and node.name in terminals:
                raise GraphError(
                    f"graph {self.name!r}: terminal node {node.name!r} cannot be "
                    "controlled (autoscaling actuates mid-tier runtimes only)"
                )

    def _adjacency(self) -> Dict[str, List[GraphEdge]]:
        out: Dict[str, List[GraphEdge]] = {node.name: [] for node in self.nodes}
        for edge in self.edges:
            out[edge.src].append(edge)
        return out

    def _find_cycle(self) -> Optional[List[str]]:
        """A cycle as a node path (closed: first == last), or None."""
        adjacency = self._adjacency()
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node.name: WHITE for node in self.nodes}
        stack: List[str] = []

        def visit(name: str) -> Optional[List[str]]:
            color[name] = GRAY
            stack.append(name)
            for edge in adjacency[name]:
                if color[edge.dst] == GRAY:
                    start = stack.index(edge.dst)
                    return stack[start:] + [edge.dst]
                if color[edge.dst] == WHITE:
                    found = visit(edge.dst)
                    if found is not None:
                        return found
            stack.pop()
            color[name] = BLACK
            return None

        for node in self.nodes:
            if color[node.name] == WHITE:
                found = visit(node.name)
                if found is not None:
                    return found
        return None

    def _reachable(self) -> set:
        adjacency = self._adjacency()
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            name = frontier.pop()
            for edge in adjacency[name]:
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    frontier.append(edge.dst)
        return seen

    # -- queries -----------------------------------------------------------
    def node(self, name: str) -> GraphNode:
        """The node named ``name``."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def children(self, name: str) -> List[GraphEdge]:
        """Outgoing edges of ``name``, in declaration order."""
        return [edge for edge in self.edges if edge.src == name]

    def terminal_names(self) -> List[str]:
        """Nodes with no outgoing edges (the graph's leaves), in
        declaration order — the order fault plans index leaves by."""
        has_out = {edge.src for edge in self.edges}
        return [node.name for node in self.nodes if node.name not in has_out]

    def topological_order(self) -> List[str]:
        """Every node, parents strictly before children (Kahn's
        algorithm, declaration order among ready nodes)."""
        indegree = {node.name: 0 for node in self.nodes}
        for edge in self.edges:
            indegree[edge.dst] += 1
        order: List[str] = []
        ready = [name for name in indegree if indegree[name] == 0]
        adjacency = self._adjacency()
        while ready:
            name = ready.pop(0)
            order.append(name)
            for edge in adjacency[name]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        return order

    def depth(self) -> int:
        """Number of tiers: the longest root-to-leaf path, in nodes."""
        longest = {name: 1 for name in (node.name for node in self.nodes)}
        adjacency = self._adjacency()
        for name in self.topological_order():
            for edge in adjacency[name]:
                longest[edge.dst] = max(longest[edge.dst], longest[name] + 1)
        return max(longest[name] for name in self._reachable())

    def visits_per_query(self) -> Dict[str, float]:
        """Expected RPC visits per client query for every node — the
        product of edge fan-outs along each path, summed over paths."""
        visits = {node.name: 0.0 for node in self.nodes}
        visits[self.root] = 1.0
        adjacency = self._adjacency()
        for name in self.topological_order():
            for edge in adjacency[name]:
                visits[edge.dst] += visits[name] * edge.fanout
        return visits

    # -- round-trip serialization ------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-data dict that :meth:`from_dict` reconstructs exactly."""
        nodes = []
        for node in self.nodes:
            entry = asdict(node)
            if node.runtime is None:
                del entry["runtime"]
            if node.control == ControlConfig():
                # Default (disabled) control serializes as absence, keeping
                # pre-control graph dicts — and the committed artifacts
                # embedding them — byte-identical.
                del entry["control"]
            nodes.append(entry)
        return {
            "name": self.name,
            "root": self.root,
            "request_bytes": self.request_bytes,
            "n_queries": self.n_queries,
            "units_low": self.units_low,
            "units_high": self.units_high,
            "nodes": nodes,
            "edges": [asdict(edge) for edge in self.edges],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GraphConfig":
        """Rebuild a :class:`GraphConfig` from :meth:`to_dict` output."""
        nodes = []
        for entry in data["nodes"]:
            kwargs = dict(entry)
            for key, sub_type in (
                ("lb", LbConfig), ("batch", BatchConfig), ("cache", CacheConfig),
                ("control", ControlConfig), ("runtime", RuntimeConfig),
            ):
                if isinstance(kwargs.get(key), Mapping):
                    kwargs[key] = sub_type(**kwargs[key])
            nodes.append(GraphNode(**kwargs))
        edges = tuple(GraphEdge(**dict(entry)) for entry in data["edges"])
        return cls(
            name=data["name"],
            nodes=tuple(nodes),
            edges=edges,
            root=data["root"],
            request_bytes=data.get("request_bytes", 96),
            n_queries=data.get("n_queries", 2000),
            units_low=data.get("units_low", 0.5),
            units_high=data.get("units_high", 1.5),
        )


__all__ = [
    "EDGE_MODES",
    "GraphConfig",
    "GraphEdge",
    "GraphError",
    "GraphNode",
]
