"""CFS-like multicore scheduler with pluggable wakeup placement policies.

The paper's primary finding is that *non-optimal OS scheduler decisions can
degrade microservice tail latency by up to ~87 %*, with the dominant
overhead being Active→Exe time (the ``runqlat`` wait between a thread
becoming runnable and actually executing).  This scheduler reproduces the
mechanisms behind that finding:

* per-core run queues ordered by virtual runtime, with timeslice
  preemption and context-switch costs;
* a C-state idle model: the longer a core idled, the more expensive the
  wakeup — which is why the paper sees *higher median latency at 100 QPS
  than at 1 000 QPS* (Fig. 10);
* pluggable placement policies: :class:`WakeAffinityPlacement` models a
  well-behaved scheduler, while :class:`RandomPlacement` and
  :class:`WorstFitPlacement` model the non-optimal decisions the paper
  blames for tail degradation (queueing a woken thread behind busy cores).

The scheduler is also the kernel-op interpreter: it pulls operations from
thread generators, charges their costs against core time, and implements
their semantics (futex queues, epoll readiness, eventfd counters).

This module is the hottest Python in the simulator (every kernel op of
every thread flows through it), so the interpreter paths avoid per-op
closures and allocations: core occupancy uses an epoch counter instead of
cancellable timers, blocking-op timeout cleanup passes the wait list
instead of capturing it in a closure, and the placement policies track
their minima inline rather than through ``min(key=...)`` lambdas.

A core runs its thread until something else is due: the handlers that
enter a core run each op completion in place while no other calendar
entry could come first (:meth:`Simulation.advance_to`), and file one
``_occupy_done`` only when one could.  A wait timer's wake dispatches the
thread in place under the same guard, so a re-wake on an idle core costs
one calendar entry, not two.  Every entry the scheduler files goes into
its machine's :class:`~repro.sim.core.Lane`, and "something else" is only
what could reach this machine first: its own entries, global ones, and
other machines' entries more than a fabric latency back.  An op that
sends keeps the strict rule, because the send draws the fabric's shared
RNG stream.

An idle task-queue worker whose timed wait expires re-arms it in one
step (:meth:`Scheduler._rearm`): with the queue mutex word 0, the queue
empty, the timeslice still open as the release ends or no other thread
queued on the core, and ``advance_to`` accepting all four op boundaries
of ``TaskQueue.get``'s empty iteration (A(mutex) CAS, A(cond), A(mutex)
release, futex(WAIT) entry; the clock goes back on a refusal),
the scheduler applies their effects at their times and in their order and
blocks the thread again.  The body stays parked in the old wait, which is
equivalent: ``CondVar.wait``'s ``seq`` and ``get``'s ``timeout`` are never
read after the ``FutexWait`` returns.  Not covered: the wake prefix
(``make_runnable`` → ``_begin_run``) and epoll expiries (pollers,
response threads), which still resume their bodies.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from repro.kernel.config import OsCosts
from repro.kernel.futex import AtomicAccess, WAKE_ALL
from repro.kernel.ops import (
    Compute,
    EpollWait,
    EventfdRead,
    EventfdWrite,
    FutexWait,
    FutexWake,
    Nanosleep,
    SockRecv,
    SockSend,
    YieldCpu,
)
from repro.kernel.threads import SimThread, ThreadState
from repro.sim.core import Simulation
from repro.sim.rng import lognormal_from_median_sigma
from repro.telemetry.critpath import riders, stamp

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.machine import Machine

#: Minimum slice a preempting compute still receives, in microseconds.
MIN_GRANULARITY_US = 0.5
#: Lognormal sigma of a placement policy's wakeup reaction delay.
WAKE_DELAY_SIGMA = 0.6


def _return_true() -> bool:
    """Shared resume hook for futex waits (avoids a lambda per wait)."""
    return True


class Core:
    """One logical CPU: a run queue plus the currently executing thread."""

    __slots__ = (
        "index",
        "runqueue",
        "current",
        "idle_since",
        "slice_end",
        "dispatch_pending",
        "busy_epoch",
        "busy_then",
        "busy_args",
        "busy_until",
        "rq_seq",
        "busy_since_tick",
        "freq_factor",
        "socket",
    )

    def __init__(self, index: int, socket: int = 0):
        self.index = index
        self.runqueue: List[tuple] = []  # heap of (vruntime, seq, thread)
        self.current: Optional[SimThread] = None
        self.idle_since: Optional[float] = 0.0
        self.slice_end = 0.0
        self.dispatch_pending = False
        # Occupancy continuation: epoch-stamped so interrupt CPU-steal can
        # invalidate an in-flight completion without heap surgery.
        self.busy_epoch = 0
        self.busy_then: Optional[Callable] = None
        self.busy_args: tuple = ()
        self.busy_until = 0.0
        self.rq_seq = 0
        self.busy_since_tick = False
        # DVFS state: 1.0 = full clock, dvfs_min_factor = deepest idle clock.
        self.freq_factor = 1.0
        # NUMA socket this core sits on.
        self.socket = socket

    @property
    def load(self) -> int:
        """Run-queue depth plus the running thread (for least-loaded picks)."""
        return len(self.runqueue) + (1 if self.current is not None else 0)

    def push(self, thread: SimThread) -> None:
        """Enqueue a runnable thread ordered by virtual runtime."""
        self.rq_seq += 1
        heapq.heappush(self.runqueue, (thread.vruntime, self.rq_seq, thread))

    def pop(self) -> Optional[SimThread]:
        """Dequeue the minimum-vruntime runnable thread."""
        if not self.runqueue:
            return None
        return heapq.heappop(self.runqueue)[2]

    def min_vruntime(self) -> float:
        """Lowest vruntime present on this core (for enqueue normalization)."""
        current = self.current
        if self.runqueue:
            queued = self.runqueue[0][0]
            if current is not None and current.vruntime < queued:
                return current.vruntime
            return queued
        if current is not None:
            return current.vruntime
        return 0.0


class PlacementPolicy:
    """Decides which core a woken thread is enqueued on."""

    name = "abstract"

    def __init__(self, wake_delay_median_us: float = 0.0):
        self.wake_delay_median_us = wake_delay_median_us

    def choose_core(self, thread: SimThread, cores: Sequence[Core], rng) -> Core:
        """Return the core to enqueue ``thread`` on."""
        raise NotImplementedError

    def wake_delay_us(self, rng) -> float:
        """Extra latency before the target core reacts to the wakeup."""
        if self.wake_delay_median_us <= 0:
            return 0.0
        return lognormal_from_median_sigma(rng, self.wake_delay_median_us, WAKE_DELAY_SIGMA)


class WakeAffinityPlacement(PlacementPolicy):
    """A well-behaved scheduler: prefer the last core if idle, then an idle
    core on the *same NUMA socket*, then any idle core, else the
    least-loaded core.  Models Linux's wake-affine plus idle-sibling
    search behaving well (the scheduler domain hierarchy keeps wakeups
    socket-local when it can)."""

    name = "wake-affinity"

    def choose_core(self, thread: SimThread, cores: Sequence[Core], rng) -> Core:
        last = thread.last_core
        home_socket = None
        if last is not None:
            core = cores[last]
            if core.current is None and not core.runqueue:
                return core
            home_socket = core.socket
        start = last if last is not None else 0
        n = len(cores)
        fallback_idle = None
        for offset in range(n):
            core = cores[(start + offset) % n]
            if core.current is None and not core.runqueue:
                if home_socket is None or core.socket == home_socket:
                    return core
                if fallback_idle is None:
                    fallback_idle = core
        if fallback_idle is not None:
            return fallback_idle
        # Least-loaded, index as tie-break (tracked inline: this runs on
        # every saturated wakeup).
        best = cores[0]
        best_load = best.load
        for core in cores:
            load = core.load
            if load < best_load:
                best, best_load = core, load
        return best


class RandomPlacement(PlacementPolicy):
    """A non-optimal scheduler: place wakeups on a uniformly random core,
    ignoring idleness — woken threads regularly queue behind busy cores."""

    name = "random"

    def choose_core(self, thread: SimThread, cores: Sequence[Core], rng) -> Core:
        return cores[rng.randrange(len(cores))]


class WorstFitPlacement(PlacementPolicy):
    """The adversarial scheduler for the A/B experiment: pack wakeups onto
    the busiest cores (plus an optional reaction delay), maximizing
    Active→Exe queueing."""

    name = "worst-fit"

    def choose_core(self, thread: SimThread, cores: Sequence[Core], rng) -> Core:
        # max by (load, -index): highest load, lowest index on ties.
        best = cores[0]
        best_load = best.load
        for core in cores[1:]:
            load = core.load
            if load > best_load:
                best, best_load = core, load
        return best


class Scheduler:
    """Run queues, dispatching, and the kernel-op interpreter for one machine."""

    def __init__(
        self,
        sim: Simulation,
        machine: "Machine",
        n_cores: int,
        costs: OsCosts,
        policy: PlacementPolicy,
    ):
        self.sim = sim
        self.machine = machine
        self.costs = costs
        self.policy = policy
        self.cores = [
            Core(i, socket=machine.spec.socket_of(i)) for i in range(n_cores)
        ]
        self.rng = machine.rng.py(f"sched:{machine.name}")
        self.lane = machine.lane
        self.threads: List[SimThread] = []
        # Hot-path caches: the telemetry hub and machine name never change.
        self._telemetry = machine.telemetry
        self._mname = machine.name
        # Traces responsible for wakes happening right now (set around the
        # synchronous wake chain of a traced socket delivery / futex wake),
        # transferred onto each woken thread so its runqueue wait can be
        # attributed to those requests when it finally runs.
        self._pending_wake_riders = None
        # Optional MachineEnergy account (repro.energy). Strictly passive:
        # hooks below only observe the busy/idle transitions the scheduler
        # already makes; None (the default) costs one comparison per switch.
        self.energy = None
        # One table drives the op interpreter (see _advance): op class ->
        # (syscall name, kernel-entry cost, getter for the contended
        # cacheline the entry touches or None, body run once the entry cost
        # is paid).  Costs are looked up here, once.
        futex_line = attrgetter("futex.cacheline")
        # One bound object, so _run_core can tell a send continuation by
        # identity.
        self._send_body = self._sock_send_body
        self._ops = {
            op: (name, costs.syscall_cost(name), line, body)
            for op, name, line, body in (
                # The kernel reads/updates the futex word: a cross-core HITM.
                (FutexWait, "futex", futex_line, self._futex_wait_body),
                (FutexWake, "futex", futex_line, self._futex_wake_body),
                (EpollWait, "epoll_pwait", None, self._epoll_wait_body),
                (SockSend, "sendmsg", None, self._send_body),
                # The rx-queue head was last written by the delivering
                # softirq core.
                (SockRecv, "recvmsg", attrgetter("sock.cacheline"), self._sock_recv_body),
                (EventfdWrite, "write", None, self._eventfd_write_body),
                (EventfdRead, "read", None, self._eventfd_read_body),
                (Nanosleep, "nanosleep", None, self._nanosleep_body),
                (YieldCpu, "sched_yield", None, self._yield_body),
            )
        }
        # Userspace ops never enter the kernel: no name, the body is all.
        self._ops[Compute] = (None, 0.0, None, self._op_compute)
        self._ops[AtomicAccess] = (None, 0.0, None, self._op_atomic)
        # The softirqs this scheduler raises, one recorder per kind.
        telemetry = machine.telemetry
        self._irq_sched = telemetry.irq_recorder(self._mname, "sched")
        self._irq_block = telemetry.irq_recorder(self._mname, "block")
        self._irq_net_tx = telemetry.irq_recorder(self._mname, "net_tx")

    # -- thread lifecycle ------------------------------------------------------
    def spawn(self, thread: SimThread) -> SimThread:
        """Create a thread: charge clone/mmap/mprotect and make it runnable."""
        for syscall in ("clone", "mmap", "mmap", "mprotect"):
            self._telemetry.count_syscall(self._mname, syscall)
        self.threads.append(thread)
        self.make_runnable(thread)
        return thread

    def make_runnable(self, thread: SimThread, last: bool = False) -> None:
        """Wake path: enqueue per policy and kick the target core.

        ``last`` is for a calendar callback whose final act is this wake:
        the kick may then dispatch in place (see :meth:`_kick`)."""
        state = thread.state
        if state is not ThreadState.BLOCKED and state is not ThreadState.NEW:
            raise RuntimeError(f"cannot wake {thread} in state {state}")
        timer = thread.wait_timer
        if timer is not None:
            timer.cancel()
            thread.wait_timer = None
        thread.state = ThreadState.RUNNABLE
        thread.runnable_since = self.sim._now
        thread.block_reason = None
        # Overwrite (never merge): a wake with no traced cause must clear
        # riders left by an earlier, already-attributed wake.
        thread.wake_riders = self._pending_wake_riders
        core = self.policy.choose_core(thread, self.cores, self.rng)
        # CFS enqueue normalization: don't let long sleepers starve others,
        # don't let them win everything either.
        floor = core.min_vruntime() - 1000.0
        if thread.vruntime < floor:
            thread.vruntime = floor
        core.push(thread)
        # A wakeup raises a SCHED softirq (IPI + resched bookkeeping).
        costs = self.costs
        self._irq_sched(lognormal_from_median_sigma(
            self.rng, costs.softirq_sched_median_us, costs.softirq_sched_sigma
        ))
        self._kick(core, last)

    def _kick(self, core: Core, last: bool) -> None:
        """Arrange a dispatch on ``core`` if it is idle and not already kicked.

        Filed on the calendar, unless the caller is a calendar callback
        that ends here (``last``) and nothing else is due by the dispatch
        time: the filed entry would then be popped next, so it runs now."""
        if core.current is not None or core.dispatch_pending or not core.runqueue:
            return
        core.dispatch_pending = True
        delay = (
            self.costs.wakeup_ipi_us
            + self.policy.wake_delay_us(self.rng)
            + self.costs.runq_per_waiter_us * len(core.runqueue)
        )
        sim = self.sim
        at = sim._now + delay
        if last and sim.advance_to(at, self.lane):
            self._dispatch(core)
        else:
            self.lane.defer_at(at, self._dispatch, core)

    def _dispatch(self, core: Core) -> None:
        """A kick's dispatch (filed, or run in place by ``_kick``): switch a
        thread in, then run the core."""
        self._switch_in(core)
        self._run_core(core)

    def _switch_in(self, core: Core) -> None:
        core.dispatch_pending = False
        if core.current is not None:
            return
        thread = core.pop()
        if thread is None:
            if core.idle_since is None:
                core.idle_since = self.sim._now
                if self.energy is not None:
                    self.energy.on_sleep(core.index, self.sim._now)
            return
        core.current = thread
        if core.idle_since is not None:
            idle_time = self.sim._now - core.idle_since
            exit_latency, _state = self.costs.cstate_exit_latency(idle_time)
            switch_cost = exit_latency + self.costs.runq_dispatch_us
            if self.energy is not None:
                self.energy.on_wake(
                    core.index, core.idle_since, self.sim._now, _state
                )
            core.idle_since = None
            # DVFS: the clock decayed toward minimum while the core idled.
            if self.costs.dvfs_enabled:
                min_f = self.costs.dvfs_min_factor
                decay = math.exp(-idle_time / self.costs.dvfs_decay_us)
                core.freq_factor = min_f + (core.freq_factor - min_f) * decay
        else:
            switch_cost = self.costs.context_switch_us
        self._telemetry.count_context_switch(self._mname)
        core.busy_since_tick = True
        self._occupy(core, switch_cost, self._begin_run, core, thread)

    def _begin_run(self, core: Core, thread: SimThread) -> None:
        thread.state = ThreadState.RUNNING
        thread.last_core = core.index
        now = self.sim._now
        wait = now - thread.runnable_since
        self._telemetry.record_runqlat(self._mname, wait)
        carried = thread.wake_riders
        if carried is not None:
            thread.wake_riders = None
            if wait > 0.0:
                stamp(
                    self._telemetry, carried, self._mname, "active_exe",
                    thread.runnable_since, now, wait,
                )
        core.slice_end = now + self.costs.timeslice_us
        if thread.pending_compute > 0.0:
            remaining = thread.pending_compute
            thread.pending_compute = 0.0
            self._run_compute(core, thread, remaining)
            return
        hook = thread.resume_hook
        thread.resume_hook = None
        expired = thread.expired_wait
        if expired is not None:
            thread.expired_wait = None
            if self._rearm(core, thread, expired):
                return
        thread.send_value = hook() if hook is not None else thread.send_value
        self._advance(core, thread)

    def _rearm(self, core: Core, thread: SimThread, op: FutexWait) -> bool:
        """Run ``TaskQueue.get``'s next empty iteration for ``thread``,
        whose wait ``op`` just expired, without resuming its body (module
        docstring).  False, with nothing changed, when its ops must run
        through ``_advance``."""
        queue = op.queue
        mutex = queue.mutex
        if mutex.futex.value or queue.items:
            return False
        sim = self.sim
        lane = self.lane
        costs = self.costs
        condvar = queue.condvar
        mutex_line = mutex.cacheline
        cond_line = condvar.cacheline
        futex_line = condvar.futex.cacheline
        # Each op's charge, with touch_cacheline's transfer read without
        # touching.  The release finds the mutex line where the CAS left it.
        atomic = costs.atomic_op_us
        cas = cond = atomic
        entry = self._ops[FutexWait][1]
        here, socket = core.index, core.socket
        local, remote = costs.hitm_transfer_us, costs.hitm_remote_transfer_us
        owner = mutex_line.last_core
        if owner is not None and owner != here:
            cas += remote if self.cores[owner].socket != socket else local
        owner = cond_line.last_core
        if owner is not None and owner != here:
            cond += remote if self.cores[owner].socket != socket else local
        owner = futex_line.last_core
        if owner is not None and owner != here:
            entry += remote if self.cores[owner].socket != socket else local
        # A queued thread matters only to _advance's preemption check, last
        # made as the release ends.
        start = sim._now
        if not (
            sim.advance_to(start + cas, lane)
            and sim.advance_to(sim._now + cond, lane)
            and sim.advance_to(sim._now + atomic, lane)
            and (sim._now < core.slice_end or not core.runqueue)
            and sim.advance_to(sim._now + entry, lane)
        ):
            sim._now = lane.now = start
            return False
        # Replay the ops at their start times.  The mutex word goes 1 at the
        # CAS and back to 0 at the release, with nothing run in between to
        # see it: it stays 0.
        sim._now = lane.now = start
        self.touch_cacheline(core, mutex_line)
        thread.vruntime += cas
        sim._now = lane.now = start + cas
        self.touch_cacheline(core, cond_line)
        thread.vruntime += cond
        sim._now = lane.now = sim._now + cond
        thread.vruntime += atomic
        sim._now = lane.now = sim._now + atomic
        self._telemetry.count_syscall(self._mname, "futex")
        self.touch_cacheline(core, futex_line)
        thread.vruntime += entry
        core.busy_epoch += 4
        sim._now = lane.now = core.busy_until = sim._now + entry
        self._block(
            core, thread, "futex", _return_true, queue.jittered(op.base_timeout_us),
            condvar.futex.waiters, op,
        )
        return True

    def _advance(self, core: Core, thread: SimThread) -> None:
        """Pull and interpret the thread's next kernel op."""
        # Op-boundary preemption check.
        if self.sim._now >= core.slice_end and core.runqueue:
            self._preempt(core, thread, remaining_compute=0.0)
            return
        try:
            op = thread.body.send(thread.send_value)
        except StopIteration:
            self._thread_exit(core, thread)
            return
        thread.send_value = None
        try:
            name, cost, line, body = self._ops[op.__class__]
        except KeyError:
            raise TypeError(f"{thread} yielded unknown op {op!r}") from None
        if name is None:  # userspace op: Compute / AtomicAccess
            body(core, thread, op)
            return
        # The one syscall entry: count it, charge the entry cost (plus a
        # HITM transfer when another core owns the line the kernel
        # touches), then run the op's body.
        self._telemetry.count_syscall(self._mname, name)
        if line is not None:
            cost = cost + self.touch_cacheline(core, line(op))
        thread.vruntime += cost
        self._occupy(core, cost, body, core, thread, op)

    def _thread_exit(self, core: Core, thread: SimThread) -> None:
        thread.state = ThreadState.DONE
        self._switch_away(core)

    def _switch_away(self, core: Core) -> None:
        core.current = None
        if core.runqueue:
            self._switch_in(core)
        else:
            core.idle_since = self.sim._now
            if self.energy is not None:
                self.energy.on_sleep(core.index, self.sim._now)

    def _preempt(self, core: Core, thread: SimThread, remaining_compute: float) -> None:
        thread.pending_compute = remaining_compute
        thread.state = ThreadState.RUNNABLE
        thread.runnable_since = self.sim._now
        core.push(thread)  # preempted threads stay on their core
        self._switch_away(core)

    # -- core occupancy --------------------------------------------------------
    def _occupy(self, core: Core, cost: float, then: Callable, *args) -> None:
        """Occupy ``core`` for ``cost`` µs, then continue with ``then``
        (recorded here, run or filed by ``_run_core``)."""
        core.busy_until = self.sim._now + cost
        core.busy_epoch += 1
        core.busy_then = then
        core.busy_args = args

    def _occupy_done(self, core: Core, epoch: int) -> None:
        if core.busy_epoch != epoch:
            return  # superseded by a CPU-steal extension
        then = core.busy_then
        args = core.busy_args
        core.busy_then = None
        core.busy_args = ()
        then(*args)
        self._run_core(core)

    def _run_core(self, core: Core) -> None:
        """Run ``core``'s continuations in place while nothing else is due,
        then file the next as an epoch-stamped ``_occupy_done`` (CPU-steal
        bumps the epoch and re-files; the stale entry no-ops).  A loop, not
        recursion: a thread can run thousands of ops back to back."""
        sim = self.sim
        lane = self.lane
        send = self._send_body
        then = core.busy_then
        while then is not None:
            if not sim.advance_to(core.busy_until, lane, then is send):
                lane.defer_at(core.busy_until, self._occupy_done, core, core.busy_epoch)
                return
            args = core.busy_args
            core.busy_then = None
            core.busy_args = ()
            then(*args)
            then = core.busy_then

    def steal_cpu(self, core_index: int, cost: float) -> None:
        """Interrupt handling steals CPU from whatever the core is doing."""
        core = self.cores[core_index]
        core.busy_since_tick = True
        if core.busy_then is None:
            return
        core.busy_epoch += 1
        core.busy_until += cost
        self.lane.defer_at(core.busy_until, self._occupy_done, core, core.busy_epoch)

    def least_busy_irq_core(self, limit: int) -> int:
        """Index of the least-loaded core among the first ``limit`` cores."""
        cores = self.cores
        if limit < 1:
            limit = 1
        best = cores[0]
        best_load = best.load
        for core in cores[1:limit]:
            load = core.load
            if load < best_load:
                best, best_load = core, load
        return best.index

    # -- blocking helper ---------------------------------------------------------
    def _block(
        self,
        core: Core,
        thread: SimThread,
        reason: str,
        resume_hook: Optional[Callable[[], object]],
        timeout_us: Optional[float],
        waitlist: list,
        wait_op: Optional[FutexWait] = None,
    ) -> None:
        """Park ``thread`` on ``waitlist``; on timeout it is removed from it
        and made runnable again, with ``wait_op`` (a task queue's wait) to
        re-arm if it can (:meth:`_rearm`)."""
        waitlist.append(thread)
        thread.state = ThreadState.BLOCKED
        thread.block_reason = reason
        thread.resume_hook = resume_hook
        costs = self.costs
        self._irq_block(lognormal_from_median_sigma(
            self.rng, costs.softirq_block_median_us, costs.softirq_block_sigma
        ))
        if timeout_us is not None:
            thread.wait_timer = self.lane.call_in(
                timeout_us, self._wait_timeout, thread, waitlist, wait_op
            )
        self._switch_away(core)

    def _wait_timeout(self, thread: SimThread, waitlist: Optional[list],
                      wait_op: Optional[FutexWait] = None) -> None:
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.wait_timer = None
        if waitlist is not None:
            try:
                waitlist.remove(thread)
            except ValueError:
                raise RuntimeError(
                    f"wait timer of {thread} fired off its {thread.block_reason} wait list"
                ) from None
        thread.expired_wait = wait_op
        # Only ever a calendar entry (the _block timer, the nanosleep
        # expiry), and the wake is its last act.
        self.make_runnable(thread, last=True)

    # -- op handlers --------------------------------------------------------------
    def _op_compute(self, core: Core, thread: SimThread, op: Compute) -> None:
        self._run_compute(core, thread, op.us)

    def _run_compute(self, core: Core, thread: SimThread, us: float) -> None:
        # DVFS: application compute stretches on a downclocked core, and
        # running warms the clock back up.
        if self.costs.dvfs_enabled:
            us = us / core.freq_factor
            ramp = math.exp(-us / self.costs.dvfs_ramp_us)
            core.freq_factor = 1.0 - (1.0 - core.freq_factor) * ramp
        available = core.slice_end - self.sim._now
        if us > available and core.runqueue:
            run_for = available if available > MIN_GRANULARITY_US else MIN_GRANULARITY_US
            thread.vruntime += run_for
            self._occupy(core, run_for, self._preempt, core, thread, us - run_for)
        else:
            thread.vruntime += us
            self._occupy(core, us, self._advance, core, thread)

    def touch_cacheline(self, core: Core, line) -> float:
        """HITM accounting for a shared-cacheline access; returns extra cost.

        Cross-core accesses are HITM events; when the previous owner sat
        on the other NUMA socket, the line crosses the interconnect —
        counted separately and costed higher."""
        previous = line.last_core
        if previous is not None and previous != core.index:
            remote = self.cores[previous].socket != core.socket
            self._telemetry.count_hitm(self._mname, remote=remote)
            line.last_core = core.index
            return (
                self.costs.hitm_remote_transfer_us
                if remote
                else self.costs.hitm_transfer_us
            )
        line.last_core = core.index
        return 0.0

    def _op_atomic(self, core: Core, thread: SimThread, op: AtomicAccess) -> None:
        cost = self.costs.atomic_op_us + self.touch_cacheline(core, op.cacheline)
        thread.vruntime += cost
        self._occupy(core, cost, self._advance, core, thread)

    def _futex_wait_body(self, core: Core, thread: SimThread, op: FutexWait) -> None:
        if op.futex.value != op.expected:
            # EAGAIN: the word moved between userspace check and syscall.
            thread.send_value = False
            self._advance(core, thread)
            return
        self._block(
            core,
            thread,
            reason="futex",
            resume_hook=_return_true,
            timeout_us=op.timeout_us,
            waitlist=op.futex.waiters,
            wait_op=op if op.queue is not None else None,
        )

    def _futex_wake_body(self, core: Core, thread: SimThread, op: FutexWake) -> None:
        waiters = op.futex.waiters
        n = min(op.n, len(waiters)) if op.n != WAKE_ALL else len(waiters)
        # The enqueuer (e.g. TaskQueue.put) may have parked the traces
        # whose work this wake hands off; credit the waiter's runqueue
        # wait to them.
        carried = op.futex.wake_riders
        previous = self._pending_wake_riders
        if carried is not None:
            op.futex.wake_riders = None
            self._pending_wake_riders = carried
        woken = 0
        for _ in range(n):
            waiter = waiters.pop(0)
            self.make_runnable(waiter)
            woken += 1
        self._pending_wake_riders = previous
        if woken:
            self._telemetry.count_contended_wake(self._mname)
        thread.send_value = woken
        self._advance(core, thread)

    def _epoll_wait_body(self, core: Core, thread: SimThread, op: EpollWait) -> None:
        ready = op.epoll.snapshot_ready()
        if ready:
            thread.send_value = ready
            self._advance(core, thread)
            return
        if op.timeout_us == 0:
            thread.send_value = []
            self._advance(core, thread)
            return
        self._block(
            core,
            thread,
            reason="epoll",
            resume_hook=op.epoll.snapshot_ready,
            timeout_us=op.timeout_us,
            waitlist=op.epoll.waiters,
        )

    def wake_epoll_waiters(self, waiters: List[SimThread]) -> None:
        """Wake-all epoll semantics (called from socket delivery)."""
        for waiter in waiters:
            if waiter.state is ThreadState.BLOCKED:
                self.make_runnable(waiter)

    def _sock_send_body(self, core: Core, thread: SimThread, op: SockSend) -> None:
        costs = self.costs
        tx_latency = lognormal_from_median_sigma(
            self.rng, costs.softirq_net_tx_median_us, costs.softirq_net_tx_sigma
        )
        self._irq_net_tx(tx_latency)
        carried = riders(op.payload)
        if carried:
            now = self.sim._now
            stamp(
                self._telemetry, carried, self._mname, "net_tx",
                now, now + tx_latency, tx_latency,
            )
        self.machine.transmit(op.sock, op.dst, op.payload, op.size_bytes, tx_latency)
        thread.send_value = None
        self._advance(core, thread)

    def _sock_recv_body(self, core: Core, thread: SimThread, op: SockRecv) -> None:
        thread.send_value = op.sock.pop()
        self._advance(core, thread)

    def _eventfd_write_body(self, core: Core, thread: SimThread, op: EventfdWrite) -> None:
        op.efd.add(op.value)
        thread.send_value = None
        self._advance(core, thread)

    def _eventfd_read_body(self, core: Core, thread: SimThread, op: EventfdRead) -> None:
        # EFD_NONBLOCK: a counter a sibling drained during this syscall's
        # entry reads 0 (EAGAIN) instead of parking the caller.
        thread.send_value = op.efd.consume()
        self._advance(core, thread)

    def _nanosleep_body(self, core: Core, thread: SimThread, op: Nanosleep) -> None:
        thread.state = ThreadState.BLOCKED
        thread.block_reason = "nanosleep"
        thread.resume_hook = None
        # A sleeper sits on no wait list: expiry is its only wake.
        self.lane.defer_in(op.us, self._wait_timeout, thread, None)
        self._switch_away(core)

    def _yield_body(self, core: Core, thread: SimThread, op: YieldCpu) -> None:
        if not core.runqueue:
            self._advance(core, thread)
            return
        self._preempt(core, thread, remaining_compute=0.0)
