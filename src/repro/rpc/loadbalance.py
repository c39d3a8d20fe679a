"""Front-end load balancing across replicated mid-tiers.

µSuite as measured by the paper runs exactly one mid-tier per service —
the tier whose runqueue wait dominates the tails (Figs. 15-18) and whose
saturation caps every service at the Fig. 9 throughput.  Real OLDI
deployments push past that wall horizontally: N mid-tier replicas behind
a front-end load balancer, all fanning out to the *same* leaf shards.
This module is that front end.

The :class:`LoadBalancer` is an L7 proxy and, like the load generators,
an *ideal* fabric endpoint: the paper's methodology runs client-side
infrastructure on dedicated, validated-uncontended hardware, so the LB
contributes a fixed forwarding delay but no queueing of its own.  What it
does model:

* **pluggable balancing policies** — round-robin, uniform random,
  least-outstanding-requests, and power-of-two-choices (Mitzenmacher's
  "power of two choices": sample two replicas, route to the one with
  fewer requests in flight);
* **per-replica connection pools** — at most ``pool_size`` requests in
  flight per replica; when every pool is exhausted the request waits in a
  FIFO backlog (counted in ``backlogged``), exactly like a
  proxy that has run out of backend connections;
* **response proxying** — replies return through the balancer, which is
  what lets it observe per-replica outstanding counts at all (a
  direct-server-return design would be blind to them).

Determinism: the stochastic policies draw from the named stream
``lb:<name>``, so a fixed master seed gives bit-identical balancing
decisions, and a cluster built without a balancer draws nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

from repro.net.fabric import Fabric, Packet
from repro.rpc.message import RpcRequest, RpcResponse
from repro.sim.core import Simulation
from repro.sim.rng import RngStreams

Address = Tuple[str, int]

#: The balancer's fixed forwarding delay, each way (an ideal endpoint:
#: no queueing of its own, see the module docstring).
FORWARD_DELAY_US = 2.0


class BalancingPolicy:
    """Picks a replica index given per-replica outstanding counts."""

    name = "abstract"

    def choose(self, candidates: Sequence[int], outstanding: Sequence[int]) -> int:
        """Return one of ``candidates`` (indices into the replica list)."""
        raise NotImplementedError


class RoundRobinPolicy(BalancingPolicy):
    """Cycle through replicas in order, skipping exhausted pools."""

    name = "round-robin"

    def __init__(self, n_replicas: int):
        self._next = 0
        self._n = n_replicas

    def choose(self, candidates: Sequence[int], outstanding: Sequence[int]) -> int:
        allowed = set(candidates)
        for _ in range(self._n):
            index = self._next
            self._next = (self._next + 1) % self._n
            if index in allowed:
                return index
        return candidates[0]  # unreachable: candidates is never empty


class RandomPolicy(BalancingPolicy):
    """Uniform random choice — the baseline the power-of-two result beats."""

    name = "random"

    def __init__(self, rng):
        self._rng = rng

    def choose(self, candidates: Sequence[int], outstanding: Sequence[int]) -> int:
        return candidates[self._rng.randrange(len(candidates))]


class LeastOutstandingPolicy(BalancingPolicy):
    """Route to the replica with the fewest requests in flight."""

    name = "least-outstanding"

    def choose(self, candidates: Sequence[int], outstanding: Sequence[int]) -> int:
        best = candidates[0]
        best_load = outstanding[best]
        for index in candidates[1:]:
            load = outstanding[index]
            if load < best_load:
                best, best_load = index, load
        return best


class PowerOfTwoPolicy(BalancingPolicy):
    """Sample two replicas uniformly, keep the less loaded one."""

    name = "power-of-two"

    def __init__(self, rng):
        self._rng = rng

    def choose(self, candidates: Sequence[int], outstanding: Sequence[int]) -> int:
        n = len(candidates)
        if n == 1:
            return candidates[0]
        first = candidates[self._rng.randrange(n)]
        second = candidates[self._rng.randrange(n)]
        return second if outstanding[second] < outstanding[first] else first


#: Canonical policy names, in documentation order.
POLICY_NAMES = ("round-robin", "random", "least-outstanding", "power-of-two")

_ALIASES = {
    "rr": "round-robin",
    "p2c": "power-of-two",
    "pow2": "power-of-two",
    "least": "least-outstanding",
}


def canonical_policy(name: str) -> str:
    """Resolve a policy name or alias; raises ValueError when unknown."""
    resolved = _ALIASES.get(name, name)
    if resolved not in POLICY_NAMES:
        raise ValueError(
            f"unknown load-balancing policy {name!r} "
            f"(choose from: {', '.join(POLICY_NAMES)})"
        )
    return resolved


def make_policy(name: str, n_replicas: int, rng) -> BalancingPolicy:
    """Construct the named policy (``rng`` is only consulted by the
    stochastic ones, so deterministic policies draw nothing)."""
    resolved = canonical_policy(name)
    if resolved == "round-robin":
        return RoundRobinPolicy(n_replicas)
    if resolved == "random":
        return RandomPolicy(rng)
    if resolved == "least-outstanding":
        return LeastOutstandingPolicy()
    return PowerOfTwoPolicy(rng)


class LoadBalancer:
    """An L7 front-end proxy over a set of mid-tier replicas."""

    def __init__(
        self,
        sim: Simulation,
        fabric: Fabric,
        rng: RngStreams,
        name: str,
        replicas: Sequence[Address],
        policy: str = "round-robin",
        pool_size: int = 128,
        initial_active: int = None,
    ):
        if not replicas:
            raise ValueError("a LoadBalancer needs at least one replica")
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive: {pool_size}")
        if initial_active is not None and not (1 <= initial_active <= len(replicas)):
            raise ValueError(
                f"initial_active must be in [1, {len(replicas)}]: {initial_active}"
            )
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.address: Address = (name, 0)
        self.replicas: List[Address] = [tuple(addr) for addr in replicas]
        self.policy_name = canonical_policy(policy)
        self.policy = make_policy(policy, len(self.replicas), rng.py(f"lb:{name}"))
        self.pool_size = pool_size
        # request_id -> (original reply_to, replica index).
        self._inflight: Dict[int, Tuple[Address, int]] = {}
        self.outstanding: List[int] = [0] * len(self.replicas)
        # Requests waiting for any replica connection, FIFO.
        self._backlog: Deque[Tuple[RpcRequest, float]] = deque()
        self.forwarded = 0
        self.completed = 0
        self.backlogged = 0
        self.per_replica_forwarded: List[int] = [0] * len(self.replicas)
        # Autoscaling state: only admitting replicas receive new requests.
        # Replicas beyond initial_active start parked (a warm pool the
        # controller can activate); initial_active=None means all admit —
        # the pre-autoscale behavior, byte-for-byte.
        n_active = len(self.replicas) if initial_active is None else initial_active
        self.active: List[bool] = [i < n_active for i in range(len(self.replicas))]
        # replica index -> optional on_retired callback, set while the
        # replica has stopped admitting but still has requests in flight.
        self._draining: Dict[int, object] = {}
        fabric.register(name, self._on_packet)

    # -- forward path ------------------------------------------------------
    def _free_replicas(self) -> List[int]:
        pool = self.pool_size
        active = self.active
        return [
            i for i, n in enumerate(self.outstanding) if n < pool and active[i]
        ]

    # -- autoscaling (repro.control) ---------------------------------------
    @property
    def backlog_depth(self) -> int:
        """Requests waiting in the FIFO backlog right now."""
        return len(self._backlog)

    @property
    def admitting_count(self) -> int:
        """Replicas currently eligible for new requests."""
        return sum(self.active)

    @property
    def draining_count(self) -> int:
        """Replicas that stopped admitting but still have requests out."""
        return len(self._draining)

    def activate_replica(self, index: int) -> None:
        """Open a parked (or draining) replica for admission.

        Reactivating a draining replica cancels the drain — its pending
        retire callback is discarded, not fired.
        """
        if not 0 <= index < len(self.replicas):
            raise IndexError(f"replica index out of range: {index}")
        self._draining.pop(index, None)
        if not self.active[index]:
            self.active[index] = True
            # A fresh admission slot may unblock backlogged requests.
            self._drain_backlog()

    def drain_replica(self, index: int, on_retired=None) -> bool:
        """Stop admitting to a replica, then retire it once drained.

        Outstanding requests keep their replica and complete normally —
        nothing is dropped or re-sent.  Returns True when the replica was
        already idle (retired immediately, ``on_retired`` fired inline);
        otherwise the callback fires from the completion path when the
        last outstanding response returns.
        """
        if not 0 <= index < len(self.replicas):
            raise IndexError(f"replica index out of range: {index}")
        self.active[index] = False
        if self.outstanding[index] == 0:
            self._draining.pop(index, None)
            if on_retired is not None:
                on_retired(index)
            return True
        self._draining[index] = on_retired
        return False

    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, RpcRequest):
            self._admit(payload)
        elif isinstance(payload, RpcResponse):
            self._complete(payload)

    def _admit(self, request: RpcRequest) -> None:
        candidates = self._free_replicas()
        if not candidates:
            # Every connection pool is exhausted: FIFO backlog until a
            # response frees a slot (proxy-side queueing, which a traced
            # request shows as a queue_dwell segment on the balancer).
            self.backlogged += 1
            self._backlog.append((request, self.sim.now))
            return
        self._dispatch(request, candidates)

    def _dispatch(self, request: RpcRequest, candidates: Sequence[int]) -> None:
        index = self.policy.choose(candidates, self.outstanding)
        self.outstanding[index] += 1
        self.forwarded += 1
        self.per_replica_forwarded[index] += 1
        replica = self.replicas[index]
        self._inflight[request.request_id] = (request.reply_to, index)
        # Rewrite the reply path through the balancer so completions are
        # observable (least-outstanding and power-of-two depend on it).
        request.reply_to = self.address
        self.fabric.send(
            self.address, replica, request, request.size_bytes,
            extra_delay_us=FORWARD_DELAY_US,
        )

    # -- response path -----------------------------------------------------
    def _complete(self, response: RpcResponse) -> None:
        entry = self._inflight.pop(response.request_id, None)
        if entry is None:
            return  # a reply for a request this balancer never forwarded
        reply_to, index = entry
        self.outstanding[index] -= 1
        self.completed += 1
        if self.fabric.has_endpoint(reply_to[0]):
            self.fabric.send(
                self.address, reply_to, response, response.size_bytes,
                extra_delay_us=FORWARD_DELAY_US,
            )
        if index in self._draining and self.outstanding[index] == 0:
            # Last outstanding response for a draining replica: retire.
            on_retired = self._draining.pop(index)
            if on_retired is not None:
                on_retired(index)
        self._drain_backlog()

    def _drain_backlog(self) -> None:
        """Dispatch backlogged requests while any admitting pool has room.

        Guarded on both sides: a completion on a *draining* replica frees
        no admission slot, so popping unconditionally (the pre-autoscale
        code path) would hand ``policy.choose`` an empty candidate list.
        """
        while self._backlog:
            candidates = self._free_replicas()
            if not candidates:
                return
            request, queued_at = self._backlog.popleft()
            if request.trace is not None:
                # Proxy-side queueing is task-queue dwell on the critical
                # path, attributed to the balancer as its own hop.
                request.trace.add_segment(
                    "queue_dwell", self.name, queued_at, self.sim.now,
                    request.request_id,
                )
            self._dispatch(request, candidates)

    # -- reporting ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Balancing accounting for experiment reports."""
        return {
            "policy": self.policy_name,
            "replicas": len(self.replicas),
            "pool_size": self.pool_size,
            "forwarded": self.forwarded,
            "completed": self.completed,
            "backlogged": self.backlogged,
            "per_replica_forwarded": list(self.per_replica_forwarded),
            "outstanding": list(self.outstanding),
            "active": list(self.active),
            "draining": sorted(self._draining),
        }


def replica_imbalance(per_replica: Sequence[int]) -> float:
    """Max/mean forwarded-count ratio: 1.0 is a perfectly even spread."""
    total = sum(per_replica)
    if total <= 0:
        return 0.0
    mean = total / len(per_replica)
    return max(per_replica) / mean


__all__ = [
    "BalancingPolicy",
    "FORWARD_DELAY_US",
    "LeastOutstandingPolicy",
    "LoadBalancer",
    "POLICY_NAMES",
    "PowerOfTwoPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "canonical_policy",
    "make_policy",
    "replica_imbalance",
]
