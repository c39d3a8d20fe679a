"""The leaf and mid-tier RPC runtimes (paper §IV, Fig. 8).

Both runtimes are thread-pool based.  The mid-tier runtime is the paper's
object of study: it is simultaneously an RPC server (to the front-end) and
an RPC client (to every leaf), with three thread pools:

``network pollers``  block on (or poll) the front-end socket, then
                     dispatch requests onto the task queue;
``workers``          park on the task-queue condvar, run the service's
                     request path (e.g. the LSH lookup), and launch the
                     asynchronous leaf fan-out;
``response threads`` block on the leaf-response socket, count-down merge
                     responses; the last one runs the service's merge and
                     replies to the front-end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernel.machine import Machine
from repro.kernel.ops import Compute, EpollWait, Nanosleep, SockRecv, SockSend
from repro.kernel.futex import Mutex
from repro.midcache import HIT_COMPUTE_US, QueryCache
from repro.rpc.apps import LeafApp, MidTierApp
from repro.rpc.batching import BATCH_HEADER_BYTES, BatchConfig, BatchEnvelope, BatchReply, LeafBatcher
from repro.rpc.message import RpcRequest, RpcResponse
from repro.rpc.policy import TailPolicy
from repro.rpc.queue import TaskQueue

Address = Tuple[str, int]

#: Observed leaf latencies kept for the auto-hedge percentile estimate.
_HEDGE_WINDOW = 512
#: Parked (deactivated) workers re-check activation on this period.
PARK_CHECK_US = 4_000.0
#: Spin granularity charged per empty poll in polling mode (coarse
#: relative to a real poll loop, to bound simulator event counts; the
#: latency effect — readiness noticed within one interval rather than
#: after a thread wakeup — is preserved).
POLL_INTERVAL_US = 5.0
#: gRPC-style deadline waits: blocked epoll_pwait and condvar waits
#: re-wake on these timeouts even with no work, which is why the paper
#: measures the highest futex/epoll counts *per query* at low load.
RECEPTION_TIMEOUT_US = 5000.0
WORKER_WAIT_TIMEOUT_US = 2000.0


@dataclass(frozen=True)
class RuntimeConfig:
    """Thread-pool sizing and the §VII design-space knobs."""

    network_threads: int = 2
    worker_threads: int = 8
    response_threads: int = 4
    # "blocking" parks pollers in epoll_pwait; "polling" spins (§VII).
    reception_mode: str = "blocking"
    # "dispatch" hands requests to workers; "inline" runs them in the
    # network thread (§VII in-line vs dispatch trade-off).
    processing_mode: str = "dispatch"
    # Run the request-path compute (parse + route) in the network thread
    # *under the completion-queue lock*, McRouter-style.  The lock then
    # bounds throughput, and contention on it floods futex at high load —
    # Router's configuration.
    parse_in_network_thread: bool = False
    # Enable the §VII adaptation the paper proposes as future work: a
    # monitor switches reception between blocking and polling and resizes
    # the active worker pool as offered load moves (see repro.rpc.adaptive).
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.reception_mode not in ("blocking", "polling"):
            raise ValueError(f"bad reception_mode: {self.reception_mode}")
        if self.processing_mode not in ("dispatch", "inline"):
            raise ValueError(f"bad processing_mode: {self.processing_mode}")
        # A zero-sized pool answers nothing; in-line mode needs no
        # workers (the network threads serve).
        pools = ["network_threads", "response_threads"]
        if self.processing_mode == "dispatch":
            pools.append("worker_threads")
        for name in pools:
            count = getattr(self, name)
            if count < 1:
                raise ValueError(f"{name} must be >= 1: {count}")


class _RuntimeBase:
    """The thread-pool skeleton shared by leaf and mid-tier runtimes:
    server socket, network pollers, task queue, workers (Fig. 8).  A
    subclass supplies :meth:`_handle`, the work done per received item."""

    def __init__(self, machine: Machine, port: int, config: RuntimeConfig, queue: str):
        self.machine = machine
        self.config = config
        self.server_sock = machine.socket(port)
        self.server_epoll = machine.epoll()
        self.server_epoll.add(self.server_sock)
        self._timeout_rng = machine.rng.py(f"rpc:{port}:timeouts")
        # Requests received off the front-end socket (adaptation signal).
        self.received = 0
        self.task_queue = TaskQueue(machine, name=f"{machine.name}.{queue}")
        # Workers with an index at or above this park off the task queue;
        # only the §VII monitor (repro.rpc.adaptive) ever lowers it.
        self.active_workers = config.worker_threads
        for i in range(config.network_threads):
            machine.spawn(f"netpoll{i}", self._poller_loop())
        if config.processing_mode == "dispatch":
            for i in range(config.worker_threads):
                machine.spawn(f"worker{i}", self._worker_loop(i))

    def _jittered(self, timeout_us: float) -> float:
        """Jitter deadline waits so pool re-wakes don't synchronize."""
        return timeout_us * (0.5 + self._timeout_rng.random())

    @property
    def address(self) -> Address:
        """The address front-ends / mid-tiers send requests to."""
        return self.server_sock.address

    def _reception_wait(self):
        """Generator: one blocking or polling wait on the server epoll."""
        if self.config.reception_mode == "blocking":
            ready = yield EpollWait(
                self.server_epoll, timeout_us=self._jittered(RECEPTION_TIMEOUT_US)
            )
        else:
            ready = yield EpollWait(self.server_epoll, timeout_us=0)
            if not ready:
                # Burn CPU for one spin interval, as a poll loop would.
                yield Compute(POLL_INTERVAL_US, tag="spin")
        return ready

    def _poller_loop(self):
        """Network thread: receive requests and dispatch or serve them.

        Like a gRPC completion-queue poller, each thread takes *one*
        message per poll round and loops back to epoll (level-triggered),
        so bursts spread across the pool instead of serializing behind
        whichever thread woke first.  The socket lock (gRPC's
        completion-queue mutex) is held through work distribution, as in
        gRPC — under load, contention on it is a major futex source.
        """
        while True:
            ready = yield from self._reception_wait()
            for sock in ready:
                yield from sock.lock.acquire()
                message = yield SockRecv(sock)
                if message is not None:
                    self.received += 1
                    if self.config.processing_mode == "dispatch":
                        yield from self._enqueue(message)
                yield from sock.lock.release()
                if message is not None and self.config.processing_mode == "inline":
                    # In-line mode: the network thread is the worker.
                    yield from self._handle(message)

    def _enqueue(self, request: RpcRequest):
        """Dispatch mode: hand the request to the worker pool."""
        yield from self.task_queue.put(request)

    def _worker_loop(self, index: int):
        """Worker thread: park on the task queue, handle what it yields."""
        while True:
            if index >= self.active_workers:
                # Deactivated: parked entirely off the task-queue condvar,
                # so it adds no lock contention while idle.
                yield Nanosleep(PARK_CHECK_US)
                continue
            item = yield from self.task_queue.get(wait_timeout_us=WORKER_WAIT_TIMEOUT_US)
            yield from self._handle(item)

    def _handle(self, item):
        """Generator: serve one received (or dequeued) item."""
        raise NotImplementedError
        yield  # pragma: no cover


class LeafRuntime(_RuntimeBase):
    """A leaf microserver: serves sub-requests from mid-tiers."""

    def __init__(self, machine: Machine, port: int, app: LeafApp, config: RuntimeConfig):
        super().__init__(machine, port, config, queue="leafq")
        self.app = app
        # Optional fault injector installed by the cluster (repro.faults);
        # None on the default path, which stays byte-for-byte identical.
        self.fault = getattr(machine, "fault_injector", None)

    def _handle(self, request: RpcRequest):
        """Serve a sub-request — or a coalesced batch of them: every
        sub-request, one compute charge, one reply message, so the
        per-message softirq/wakeup costs are paid once per batch instead
        of once per sub-request.  A plain request is a batch of one whose
        reply goes back bare."""
        fault = self.fault
        if fault is not None:
            decision, stall_us = fault.pre_serve(self.machine.sim.now)
            if decision == "drop":
                # Crashed: the request (a whole batch, if coalesced) is
                # lost like a dropped message; the mid-tier's hedges,
                # retries, or deadline recover (or degrade) the query.
                return
            if decision == "stall":
                yield Nanosleep(stall_us)  # parked until timed recovery
        batched = isinstance(request.payload, BatchEnvelope)
        serve_start = request.arrive_time or self.machine.sim.now
        now = self.machine.sim.now
        total_compute = 0.0
        replies: List[RpcResponse] = []
        for sub in request.payload.subrequests if batched else (request,):
            if sub.deadline is not None and now > sub.deadline:
                # The mid-tier already gave up on this sub-request: shed
                # the work instead of computing a reply nobody will merge.
                self.machine.telemetry.incr(f"leaf_deadline_drops:{self.machine.name}")
                continue
            self.machine.alloc_tick()
            result = self.app.handle(sub.payload)
            compute_us = result.compute_us
            if fault is not None:
                compute_us = fault.inflate(compute_us)
            total_compute += compute_us
            reply = RpcResponse(
                request_id=sub.request_id,
                payload=result.payload,
                size_bytes=result.size_bytes,
                parent_id=sub.parent_id,
                client_start=sub.client_start,
            )
            # Ride the trace back so the mid-tier's response-path kernel
            # events (softirq, wakeup runqueue wait) attribute to it.
            reply.trace = sub.trace
            replies.append(reply)
        if not replies:
            return  # every sub-request was shed past its deadline
        yield Compute(total_compute, tag="leaf-compute")
        for reply in replies:  # served sub-requests only: a shed one has no segment
            if reply.trace is not None:
                reply.trace.add_segment(
                    "leaf_compute", self.machine.name,
                    serve_start, self.machine.sim.now, reply.request_id,
                )
        if batched:
            size = BATCH_HEADER_BYTES + sum(r.size_bytes for r in replies)
            reply = RpcResponse(
                request_id=request.request_id,
                payload=BatchReply(replies),
                size_bytes=size,
            )
        else:
            (reply,) = replies
            size = reply.size_bytes
        # Carry the downstream hop's wire time back for Net accounting.
        reply.upstream_net_us = request.net_us
        yield SockSend(self.server_sock, request.reply_to, reply, size)


class _PendingRequest:
    """Fan-out bookkeeping for one in-flight mid-tier request.

    Every entry tracks per-slot sub-request identity, so each response is
    matched to its fan-out slot and a hedged duplicate cannot be
    double-counted.  Only a :class:`~repro.rpc.policy.TailPolicy` arms
    slot timers or sets a deadline.
    """

    __slots__ = (
        "request", "expected", "responses", "arrival", "request_path_us",
        "sub_slot", "slot_info", "sent_at", "responded_slots", "dup_ids",
        "slot_timers", "deadline_at", "deadline_call", "finished", "partial",
        "cache_key",
    )

    def __init__(
        self, request: RpcRequest, expected: int, arrival: float,
        cache_key: Optional[bytes],
    ):
        self.request = request
        self.expected = expected
        self.responses: List[RpcResponse] = []
        self.arrival = arrival
        # Mid-tier request-path latency: query arrival → fan-out sent.
        self.request_path_us = 0.0
        self.finished = False
        self.partial = False
        self.deadline_at: Optional[float] = None
        self.deadline_call = None
        # repro.midcache: the key this query's merge will be stored under
        # (and whose single-flight followers it will answer); None when
        # caching is off or the query is uncacheable.
        self.cache_key = cache_key
        # sub-request id → fan-out slot; slot → (leaf, payload, size).
        self.sub_slot: Dict[int, int] = {}
        self.slot_info: Dict[int, tuple] = {}
        self.sent_at: Dict[int, float] = {}
        self.responded_slots: set = set()
        self.dup_ids: set = set()
        self.slot_timers: Dict[int, list] = {}

    def cancel_slot_timers(self, slot: int) -> None:
        """First-response-wins: kill the slot's hedge/retry timers."""
        timers = self.slot_timers.pop(slot, None)
        if timers:
            for timer in timers:
                timer.cancel()

    def close(self) -> None:
        """Mark finished and cancel every outstanding timer."""
        self.finished = True
        if self.deadline_call is not None:
            self.deadline_call.cancel()
            self.deadline_call = None
        for timers in self.slot_timers.values():
            for timer in timers:
                timer.cancel()
        self.slot_timers.clear()


class MidTierRuntime(_RuntimeBase):
    """The mid-tier microserver: RPC server and fan-out RPC client at once."""

    def __init__(
        self,
        machine: Machine,
        port: int,
        app: MidTierApp,
        leaf_addrs: Sequence[Address],
        config: RuntimeConfig,
        tail_policy: Optional[TailPolicy] = None,
        batch_config: Optional[BatchConfig] = None,
        cache: Optional[QueryCache] = None,
    ):
        super().__init__(machine, port, config, queue="midq")
        self.app = app
        self.leaf_addrs = list(leaf_addrs)
        # Tail-tolerance layer; None (the default) arms nothing, draws no
        # randomness, and keeps the runtime bit-identical to the policy-
        # free engine (guarded by tests/test_golden_determinism.py).
        self.tail_policy = tail_policy
        # Leaf-request coalescer and query-result cache (both None by
        # default: the off path constructs nothing, arms no timers, and
        # stays bit-identical to the batch/cache-free goldens).
        self.batcher = LeafBatcher(self, batch_config) if batch_config else None
        self.cache = cache
        self.subrequests_sent = 0
        self.hedges_sent = 0
        self.hedges_denied = 0
        self.hedge_wins = 0
        self.hedges_wasted = 0
        self.retries_sent = 0
        self.partial_replies = 0
        self.late_responses = 0
        self.async_subs_sent = 0
        self._leaf_lat: deque = deque(maxlen=_HEDGE_WINDOW)
        self._leaf_obs = 0
        self._hedge_delay_cache: Optional[float] = None
        # Client side: one socket receiving every leaf response.
        self.client_sock = machine.socket(port + 1)
        self.client_epoll = machine.epoll()
        self.client_epoll.add(self.client_sock)
        # Connection setup to each leaf (openat per channel, like a TCP connect).
        for _ in self.leaf_addrs:
            machine.count_syscall("openat")
        self.pending: Dict[int, _PendingRequest] = {}
        self.pending_mutex = Mutex(f"{machine.name}.pending")
        self.completed = 0
        for i in range(config.response_threads):
            machine.spawn(f"resp{i}", self._response_loop())

    # -- request path ------------------------------------------------------
    def _enqueue(self, request: RpcRequest):
        if request.trace is not None:
            request.trace.add_segment(
                "queue_dwell", self.machine.name, self.machine.sim.now
            )
        if self.config.parse_in_network_thread:
            # McRouter-style: parse + route computation runs right here,
            # under the completion-queue lock the caller holds — and so
            # does the cache probe, which on a hit replaces the route
            # computation entirely (the McRouter-local-cache fast path).
            planned = yield from self._plan(request)
            if planned is None:
                return
            yield from self.task_queue.put((request, planned))
        else:
            yield from self.task_queue.put(request)

    def _plan(self, request: RpcRequest):
        """Generator: cache probe, allocator tick, the service's fan-out
        plan and its request-path compute — run by the worker, or by the
        network thread when ``parse_in_network_thread`` is set.

        Returns ``(plan, cache_key)``, or None when the request needs no
        fan-out (see :meth:`_cache_check`).
        """
        cache_key = None
        if self.cache is not None:
            outcome, cache_key = yield from self._cache_check(request)
            if outcome == "done":
                return None
        self.machine.alloc_tick()
        plan = self.app.fanout(request.payload)
        yield Compute(plan.compute_us, tag="midtier-request")
        return plan, cache_key

    def _cache_check(self, request: RpcRequest):
        """Generator: probe the result cache for one query.

        Returns ``("done", None)`` when the request needs no fan-out (it
        was answered from the cache, or parked behind a single-flight
        leader), else ``("miss", key)`` where ``key`` is the cache key the
        eventual merge must be stored under (None if uncacheable).
        """
        cache = self.cache
        invalidates = self.app.cache_invalidates(request.payload)
        if invalidates is not None and cache.invalidate(invalidates):
            self.machine.telemetry.incr(f"midcache_invalidations:{self.machine.name}")
        key = self.app.cache_key(request.payload)
        if key is None:
            return "miss", None
        hit, value = cache.lookup(key, self.machine.sim.now)
        if hit:
            self.machine.telemetry.incr(f"midcache_hits:{self.machine.name}")
            payload, size_bytes = value
            yield Compute(HIT_COMPUTE_US, tag="midcache-hit")
            arrival = request.arrive_time or self.machine.sim.now
            yield from self._reply(
                request, payload, size_bytes, False,
                arrival, arrival, request.net_us,
            )
            return "done", None
        self.machine.telemetry.incr(f"midcache_misses:{self.machine.name}")
        if cache.join_flight(key, request):
            # An identical query is already fanning out; its merge will
            # answer this one too.  No second fan-out is issued.
            self.machine.telemetry.incr(f"midcache_coalesced:{self.machine.name}")
            return "done", None
        return "miss", key

    def _handle(self, item):
        """Request path: service compute (unless the network thread already
        planned it), then asynchronous leaf fan-out.  ``item`` is a request,
        or the network thread's ``(request, (plan, cache_key))``."""
        request, planned = item if isinstance(item, tuple) else (item, None)
        if request.trace is not None:
            request.trace.end_last("queue_dwell", self.machine.sim.now)
        if planned is None:
            planned = yield from self._plan(request)
            if planned is None:
                return
        plan, cache_key = planned
        arrival = request.arrive_time or self.machine.sim.now
        entry = _PendingRequest(request, len(plan.subrequests), arrival, cache_key)
        if not plan.subrequests:
            # Degenerate fan-out (e.g. LSH found no candidates): merge empty.
            yield from self._send_async(plan)
            entry.request_path_us = self.machine.sim.now - arrival
            yield from self._finish(entry, last_arrival=self.machine.sim.now)
            return
        policy = self.tail_policy
        if policy is not None and policy.deadline_us is not None:
            entry.deadline_at = arrival + policy.deadline_us
        yield from self.pending_mutex.acquire()
        self.pending[request.request_id] = entry
        yield from self.pending_mutex.release()
        for slot, (leaf_index, payload, size_bytes) in enumerate(plan.subrequests):
            entry.slot_info[slot] = (leaf_index, payload, size_bytes)
            entry.sent_at[slot] = self.machine.sim.now
            self.subrequests_sent += 1
            sub = self._leaf_request(payload, size_bytes, entry, slot)
            yield from self._send_sub(leaf_index, sub, size_bytes)
        yield from self._send_async(plan)
        # Responses may already have arrived (sends advance time), so arm
        # timers only for still-unanswered slots, and never after finish.
        if policy is not None and not entry.finished:
            self._arm_tail_timers(entry)
        entry.request_path_us = self.machine.sim.now - arrival
        if request.trace is not None:
            request.trace.add_segment(
                "app_compute", self.machine.name, arrival, self.machine.sim.now
            )

    # -- response path -----------------------------------------------------
    def _response_loop(self):
        while True:
            ready = yield EpollWait(
                self.client_epoll, timeout_us=self._jittered(RECEPTION_TIMEOUT_US)
            )
            for sock in ready:
                # One response per poll round (see _poller_loop): the
                # count-down stashes spread across the response pool and
                # only the last response thread does the merge — which runs
                # *outside* the socket lock so merges never serialize.
                yield from sock.lock.acquire()
                message = yield SockRecv(sock)
                completed: List[tuple] = []
                if message is not None:
                    if isinstance(message.payload, BatchReply):
                        # Fan-in demux: one fabric message, many
                        # sub-responses — possibly completing several
                        # pending queries in one softirq's worth of work.
                        for sub in message.payload.responses:
                            sub.arrive_time = message.arrive_time
                            sub.net_us = message.net_us
                            sub.upstream_net_us = message.upstream_net_us
                            done = yield from self._countdown(sub)
                            if done is not None:
                                completed.append(done)
                    else:
                        done = yield from self._countdown(message)
                        if done is not None:
                            completed.append(done)
                yield from sock.lock.release()
                for entry, last_arrival in completed:
                    yield from self._finish(entry, last_arrival)

    def _countdown(self, response: RpcResponse):
        """Stash one leaf response; returns (entry, arrival) when last.

        Responses are matched to fan-out *slots*: the first response for a
        slot wins (and cancels the slot's hedge and retry timers); a
        duplicate that lost its race is dropped without being counted, so
        hedging can never double-count a leaf.
        """
        yield from self.pending_mutex.acquire()
        entry = self.pending.get(response.parent_id)
        is_last = False
        if entry is None:
            # Completed (or deadline-degraded) parent: a late original or a
            # losing hedge/retry duplicate.  Dropped, never merged twice.
            # (A parent-less reply is a fire-and-forget ack, not late.)
            if response.parent_id is not None:
                self.late_responses += 1
        else:
            slot = entry.sub_slot.get(response.request_id)
            if slot is None or slot in entry.responded_slots:
                # The slot was already answered by the other copy.
                self.hedges_wasted += 1
                entry = None
            else:
                entry.responded_slots.add(slot)
                entry.cancel_slot_timers(slot)
                if response.request_id in entry.dup_ids:
                    self.hedge_wins += 1
                if self.tail_policy is not None:
                    self._observe_leaf_latency(self.machine.sim.now - entry.sent_at[slot])
        if entry is not None:
            entry.responses.append(response)
            trace = entry.request.trace
            if trace is not None:
                # This copy's response got merged: its path is the
                # critical one; the losing duplicate's events drop.
                trace.note_winner(response.request_id)
            # One merged response per slot, so this counts answered slots.
            is_last = len(entry.responses) >= entry.expected
            if is_last:
                entry.close()
                del self.pending[response.parent_id]
        yield from self.pending_mutex.release()
        if entry is None or not is_last:
            return None
        return entry, response.arrive_time or self.machine.sim.now

    # -- control-plane actuation (repro.control) ---------------------------
    def set_tail_policy(self, policy: "TailPolicy") -> None:
        """Swap the tail policy live — re-thresholding only.

        The controller may retune hedge percentiles mid-run, but turning
        the tail-tolerance layer on or off changes which timers exist and
        is forbidden: the off path's bit-identity guarantee depends on no
        policy ever appearing.
        """
        if (policy is None) != (self.tail_policy is None):
            raise ValueError(
                "set_tail_policy may re-threshold an existing policy, not "
                "toggle the tail-tolerance layer on/off"
            )
        self.tail_policy = policy
        self._hedge_delay_cache = None  # recompute against the new percentile

    def set_batch_max(self, max_batch: int) -> None:
        """Re-size the leaf coalescer's flush threshold live."""
        if self.batcher is None:
            raise ValueError("runtime has no batcher to re-size")
        self.batcher.set_max_batch(max_batch)

    # -- tail tolerance ----------------------------------------------------
    def _observe_leaf_latency(self, latency_us: float) -> None:
        """Feed the auto-hedge percentile estimate (policy runs only)."""
        self._leaf_lat.append(latency_us)
        self._leaf_obs += 1
        if self._leaf_obs % 32 == 0:
            self._hedge_delay_cache = None  # recompute lazily

    def _hedge_delay(self) -> Optional[float]:
        """Current hedge trigger delay, or None while auto mode is unarmed."""
        policy = self.tail_policy
        if policy.hedge_after_us is not None:
            return policy.hedge_after_us
        if self._leaf_obs < policy.hedge_min_samples:
            return None
        cached = self._hedge_delay_cache
        if cached is None:
            data = sorted(self._leaf_lat)
            index = min(len(data) - 1, int(len(data) * policy.hedge_percentile / 100.0))
            cached = self._hedge_delay_cache = data[index]
        return cached

    def _arm_tail_timers(self, entry: _PendingRequest) -> None:
        """Arm per-slot hedge/retry timers and the request deadline."""
        policy = self.tail_policy
        sim = self.machine.sim
        hedge_delay = self._hedge_delay() if policy.wants_hedging else None
        for slot in range(entry.expected):
            if slot in entry.responded_slots:
                continue
            timers = []
            if hedge_delay is not None:
                timers.append(sim.call_in(hedge_delay, self._hedge_fire, entry, slot))
            if policy.max_retries > 0:
                timers.append(
                    sim.call_in(policy.retry_timeout_us, self._retry_fire, entry, slot, 1)
                )
            if timers:
                entry.slot_timers[slot] = timers
        if entry.deadline_at is not None and policy.degrade_partial:
            entry.deadline_call = sim.call_at(
                max(sim.now, entry.deadline_at), self._deadline_fire, entry
            )

    def _hedge_fire(self, entry: _PendingRequest, slot: int) -> None:
        """Hedge timer: the slot is still unanswered past the trigger delay."""
        if entry.finished or slot in entry.responded_slots:
            return
        policy = self.tail_policy
        if self.hedges_sent + 1 > policy.hedge_max_fraction * max(self.subrequests_sent, 1):
            self.hedges_denied += 1  # hedge budget exhausted
            return
        self.hedges_sent += 1
        self.machine.telemetry.incr(f"hedges_sent:{self.machine.name}")
        self.machine.spawn(
            f"hedge{entry.request.request_id}.{slot}", self._send_duplicate(entry, slot)
        )

    def _retry_fire(self, entry: _PendingRequest, slot: int, attempt: int) -> None:
        """Retry timer: capped exponential backoff re-send for a dead slot."""
        if entry.finished or slot in entry.responded_slots:
            return
        policy = self.tail_policy
        self.retries_sent += 1
        self.machine.spawn(
            f"retry{entry.request.request_id}.{slot}.{attempt}",
            self._send_duplicate(entry, slot),
        )
        if attempt < policy.max_retries:
            delay = min(
                policy.retry_timeout_us * policy.retry_backoff ** attempt,
                policy.retry_max_backoff_us,
            )
            timer = self.machine.sim.call_in(delay, self._retry_fire, entry, slot, attempt + 1)
            entry.slot_timers.setdefault(slot, []).append(timer)

    def _send_duplicate(self, entry: _PendingRequest, slot: int):
        """Thread body: send one hedge/retry duplicate for a fan-out slot."""
        if entry.finished or slot in entry.responded_slots:
            return
        leaf_index, payload, size_bytes = entry.slot_info[slot]
        sub = self._leaf_request(payload, size_bytes, entry, slot)
        entry.dup_ids.add(sub.request_id)
        yield from self._send_sub(leaf_index, sub, size_bytes)

    def _send_async(self, plan):
        """Generator: the plan's fire-and-forget sub-requests, if any.
        The default empty list sends nothing and schedules nothing."""
        for leaf_index, payload, size_bytes in plan.fire_and_forget:
            self.async_subs_sent += 1
            sub = self._leaf_request(payload, size_bytes)
            yield from self._send_sub(leaf_index, sub, size_bytes)

    def _leaf_request(
        self, payload, size_bytes: int,
        entry: Optional[_PendingRequest] = None, slot: int = 0,
    ) -> RpcRequest:
        """One leaf sub-request: with ``entry``, an original or a hedge/retry
        duplicate for fan-out ``slot`` — it carries the query's id, start,
        trace and deadline, and is registered to the slot its response will
        count against.  Without, a fire-and-forget sub: no parent id (its
        reply drops in :meth:`_countdown`), no deadline and no trace, so a
        side-effect branch is off the critical path by construction."""
        parent = entry.request if entry is not None else None
        sub = RpcRequest(
            method="leaf",
            payload=payload,
            size_bytes=size_bytes,
            reply_to=self.client_sock.address,
            request_id=next(self.machine.sim.request_ids),
            parent_id=parent.request_id if parent is not None else None,
            client_start=parent.client_start if parent is not None else None,
        )
        if parent is not None:
            sub.trace = parent.trace  # propagate the sampled trace
            sub.deadline = entry.deadline_at
            entry.sub_slot[sub.request_id] = slot
        return sub

    def _send_sub(self, leaf_index: int, sub: RpcRequest, size_bytes: int):
        """Generator: one leaf sub-request, coalesced when batching is on.

        Every fan-out send — originals, hedges, and retries — funnels
        through here, so duplicates ride the same coalescing path and a
        batch flush pays the per-message softirq/wakeup cost once.
        """
        if self.batcher is not None:
            yield from self.batcher.add(leaf_index, sub, size_bytes)
        else:
            yield SockSend(self.client_sock, self.leaf_addrs[leaf_index], sub, size_bytes)

    def _deadline_fire(self, entry: _PendingRequest) -> None:
        """Deadline timer: degrade to whatever responses arrived in time."""
        if entry.finished:
            return
        self.machine.spawn(
            f"deadline{entry.request.request_id}", self._finish_partial(entry)
        )

    def _finish_partial(self, entry: _PendingRequest):
        """Thread body: remove the entry and reply with the partial merge."""
        yield from self.pending_mutex.acquire()
        live = (
            self.pending.pop(entry.request.request_id, None) is not None
            and not entry.finished
        )
        if live:
            entry.partial = True
            entry.close()
        yield from self.pending_mutex.release()
        if not live:
            return  # completed between the timer firing and this thread running
        yield from self._finish(entry, last_arrival=self.machine.sim.now)

    def _finish(self, entry: _PendingRequest, last_arrival: float):
        """Generator: merge what arrived, answer the query, then close its
        single-flight (store the merge, answer the queries behind it)."""
        request = entry.request
        merged = self.app.merge(request.payload, [r.payload for r in entry.responses])
        yield Compute(merged.compute_us, tag="midtier-merge")
        if entry.partial:
            # Graceful degradation: surface the partial merge to telemetry
            # and to the client (repro.loadgen counts these separately).
            self.partial_replies += 1
        net_us = request.net_us + sum(r.net_us + r.upstream_net_us for r in entry.responses)
        yield from self._reply(
            request, merged.payload, merged.size_bytes, entry.partial,
            entry.arrival, last_arrival, net_us, entry.request_path_us,
        )
        if self.cache is not None and entry.cache_key is not None:
            # Close the single-flight: store the merge (never a partial
            # one — a degraded reply must not shadow future full merges)
            # and answer every query that coalesced behind this fan-out.
            followers = self.cache.end_flight(entry.cache_key)
            if not entry.partial:
                self.cache.insert(
                    entry.cache_key,
                    (merged.payload, merged.size_bytes),
                    self.machine.sim.now,
                )
            for follower in followers:
                arrival = follower.arrive_time or self.machine.sim.now
                yield from self._reply(
                    follower, merged.payload, merged.size_bytes,
                    entry.partial, arrival, arrival, follower.net_us,
                )

    def _reply(
        self, request: RpcRequest, payload, size_bytes: int, partial: bool,
        arrival: float, since: float, net_us: float,
        request_path_us: Optional[float] = None,
    ):
        """Generator: build and send one query's reply, record its mid-tier
        series and its ``app_compute`` trace segment (``since`` → now).

        ``request_path_us`` is given for a fan-out's merge only: its
        mid-tier latency is then request path plus response path (``since``
        is the final leaf response), each also recorded on its own.  A cache
        hit or single-flight follower had no fan-out, so ``since`` is its
        arrival and its whole dwell is mid-tier time.
        """
        now = self.machine.sim.now
        reply = RpcResponse(
            request_id=request.request_id,
            payload=payload,
            size_bytes=size_bytes,
            # Echoed so a *parent* mid-tier (repro.graph nests runtimes)
            # can match this reply to its fan-out slot; None for requests
            # that came straight from a load generator.
            parent_id=request.parent_id,
            client_start=request.client_start,
        )
        reply.partial = partial
        reply.upstream_net_us = net_us
        name = self.machine.name
        telemetry = self.machine.telemetry
        telemetry.record(f"net_rpc:{name}", net_us)
        latency_us = now - arrival
        if request_path_us is not None:
            # The paper's "Net mid-tier latency" (Figs. 15-18, category 8):
            # the mid-tier server's own contribution — request path (arrival
            # → fan-out sent) plus response path (final leaf response
            # arrival → reply sent) — excluding time spent waiting on leaves.
            response_path_us = now - since
            telemetry.record(f"midtier_reqpath:{name}", request_path_us)
            telemetry.record(f"midtier_resppath:{name}", response_path_us)
            latency_us = request_path_us + response_path_us
        telemetry.record(f"midtier_latency:{name}", latency_us)
        if request.trace is not None:
            request.trace.add_segment("app_compute", name, since, now)
            reply.trace = request.trace  # carried back to the client
        self.completed += 1
        yield SockSend(self.server_sock, request.reply_to, reply, size_bytes)

    def tail_stats(self) -> Dict[str, float]:
        """Tail-tolerance accounting for experiment reports."""
        subs = self.subrequests_sent
        extra = self.hedges_sent + self.retries_sent
        return {
            "subrequests_sent": subs,
            "hedges_sent": self.hedges_sent,
            "hedges_denied": self.hedges_denied,
            "hedge_wins": self.hedge_wins,
            "hedges_wasted": self.hedges_wasted,
            "retries_sent": self.retries_sent,
            "partial_replies": self.partial_replies,
            "late_responses": self.late_responses,
            "extra_leaf_load": extra / subs if subs else 0.0,
        }
