"""Application interfaces the four µSuite services implement.

The RPC runtimes are service-agnostic: a service plugs in a
:class:`MidTierApp` (query → leaf fan-out plan, responses → merged reply)
and a :class:`LeafApp` (sub-request → result).  The real algorithms (LSH
lookup, SpookyHash routing, posting-list intersection, collaborative
filtering) run natively inside these callbacks; each returns the modeled
CPU time the runtime charges to the simulated core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple


@dataclass
class FanoutPlan:
    """Mid-tier request path: compute charge plus per-leaf sub-requests."""

    compute_us: float
    # (leaf index, sub-request payload, wire size in bytes) triples.
    subrequests: List[Tuple[int, Any, int]]
    # Fire-and-forget sub-requests (same triples): sent on the request
    # path but never awaited — the merge runs without them and their
    # replies are dropped on arrival.  Models async side-effect edges
    # (logging, analytics, cache warming) in service graphs.  Empty by
    # default: nothing extra is sent and pre-existing goldens stay
    # bit-identical.
    fire_and_forget: List[Tuple[int, Any, int]] = field(default_factory=list)


@dataclass
class MergeResult:
    """Mid-tier response path: compute charge plus the merged reply."""

    compute_us: float
    payload: Any
    size_bytes: int


@dataclass
class LeafResult:
    """Leaf handler outcome: compute charge plus the reply."""

    compute_us: float
    payload: Any
    size_bytes: int


class MidTierApp:
    """Service logic hosted by a :class:`~repro.rpc.server.MidTierRuntime`."""

    #: Whether the replicas of a tier that host this one app object hold
    #: order-sensitive state through it (an RNG stream, mutable routing
    #: state): their machines then share one calendar lane, so none runs
    #: ahead of another's work.  The default keeps an undeclared app exact;
    #: an app whose state is read-only or a pure memo sets False.
    replicas_share_state = True

    def fanout(self, query: Any) -> FanoutPlan:
        """Process one query and plan its leaf fan-out."""
        raise NotImplementedError

    def merge(self, query: Any, responses: Sequence[Any]) -> MergeResult:
        """Merge leaf responses into the final reply."""
        raise NotImplementedError

    # -- result-cache hooks (repro.midcache) -------------------------------
    def cache_key(self, query: Any) -> Optional[bytes]:
        """Canonicalized query bytes for the mid-tier result cache.

        Return None (the default) for queries that must not be cached —
        e.g. writes, or services that opt out entirely.  Two queries with
        the same key MUST produce semantically identical merged replies;
        the differential-equivalence tests enforce this per service.
        """
        return None

    def cache_invalidates(self, query: Any) -> Optional[bytes]:
        """Cache key shadowed by this query (writes), or None.

        Router's ``set`` ops return the corresponding ``get`` key here so
        cached reads never survive a write to the same key.
        """
        return None


class LeafApp:
    """Service logic hosted by a :class:`~repro.rpc.server.LeafRuntime`."""

    #: As :attr:`MidTierApp.replicas_share_state`, for a replicated leaf tier.
    replicas_share_state = True

    def handle(self, request: Any) -> LeafResult:
        """Serve one leaf sub-request."""
        raise NotImplementedError
