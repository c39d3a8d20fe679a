"""Cluster assembly and measured runs.

:class:`SimCluster` owns the simulation, fabric, telemetry, and machines
for one experiment; :func:`build_tier` is the one way to stand up N
replicas of a runtime (suite mid-tiers and graph nodes alike);
:class:`ServiceHandle` is what service builders return; :func:`drive`
is the paper's §V methodology (offer load, trim warm-up, measure a
window, drain) for any load generator, and ``run_open_loop`` /
``run_closed_loop`` construct the paper's two generators over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.control import Controller
from repro.energy import EnergyAccount, EnergyConfig, EnergyReport
from repro.kernel import Machine, MachineSpec, OsCosts
from repro.kernel.scheduler import PlacementPolicy
from repro.loadgen import (
    CyclingSource,
    OpenLoopLoadGen,
    QuerySource,
    SessionClass,
    SessionLoadGen,
)
from repro.loadgen.client import E2E_HIST
from repro.midcache import QueryCache
from repro.net import Fabric
from repro.rpc.adaptive import make_midtier_runtime
from repro.rpc.loadbalance import LoadBalancer
from repro.rpc.server import LeafRuntime, MidTierRuntime
from repro.sim import Lane, RngStreams, Simulation
from repro.telemetry import (
    LatencyHistogram,
    StreamingTelemetry,
    Telemetry,
    TelemetryConfig,
)


class SimCluster:
    """One simulated deployment: machines, fabric, probes, clock."""

    def __init__(
        self,
        seed: int = 0,
        costs: Optional[OsCosts] = None,
        faults=None,
        telemetry: Optional[TelemetryConfig] = None,
        energy: Optional[EnergyConfig] = None,
    ):
        self.sim = Simulation()
        # Buffered mode (telemetry None or mode="buffered") constructs the
        # historical in-memory hub — nothing new, bit-identical goldens.
        # Streaming substitutes the spilling subclass; every probe callee
        # sees the same public interface.
        if telemetry is not None and telemetry.streaming:
            self.telemetry: Telemetry = StreamingTelemetry(
                window_us=telemetry.window_us,
                spill_path=telemetry.spill_path,
            )
        else:
            self.telemetry = Telemetry()
        self.telemetry.attach_clock(lambda: self.sim.now, sim=self.sim)
        self.rng = RngStreams(seed)
        self.fabric = Fabric(self.sim, self.telemetry, self.rng)
        self.costs = costs or OsCosts()
        self.machines: List[Machine] = []
        # Optional repro.faults.FaultPlan; a plan with nothing enabled (or
        # None) leaves every machine and the fabric untouched.
        self.faults = faults if faults is not None and faults.active else None
        if self.faults is not None and self.faults.network is not None \
                and self.faults.network.active:
            self.fabric.install_fault(self.faults.network)
        # Closed-loop controllers (repro.control), one per controlled
        # service; empty unless a ControlConfig with enabled=True is built.
        self.controllers: List[Controller] = []
        # Per-core energy accounting (repro.energy).  None (the default)
        # constructs nothing and leaves every scheduler unhooked, so all
        # pre-existing goldens stay byte-identical.
        self.energy: Optional[EnergyAccount] = None
        if energy is not None and energy.enabled:
            self.energy = EnergyAccount(energy, self.costs)

    def machine(
        self,
        name: str,
        cores: int,
        policy: Optional[PlacementPolicy] = None,
        role: Optional[str] = None,
        leaf_index: Optional[int] = None,
        lane: Optional[Lane] = None,
    ) -> Machine:
        """Provision one server.

        ``role`` ("leaf" / "midtier") and ``leaf_index`` let the cluster
        attach the fault plan's injectors to the right machines; both are
        ignored when no faults are configured.  ``lane`` is the calendar
        lane of machines this one shares state with outside the fabric
        (its own if None): :func:`build_tier` passes replica 0's lane to
        the later replicas only when their app declares
        ``replicas_share_state``.
        """
        spec = MachineSpec(name=name, cores=cores, costs=self.costs)
        machine = Machine(
            sim=self.sim,
            fabric=self.fabric,
            telemetry=self.telemetry,
            rng=self.rng,
            spec=spec,
            name=name,
            policy=policy,
            lane=lane,
        )
        if self.faults is not None:
            if role == "leaf" and leaf_index is not None:
                machine.fault_injector = self.faults.leaf_injector(leaf_index, machine)
            elif role == "midtier":
                self.faults.attach_midtier(machine)
        if self.energy is not None:
            machine.scheduler.energy = self.energy.add_machine(name, cores)
        self.machines.append(machine)
        return machine

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time ``until`` (µs)."""
        self.sim.run(until=until)

    def shutdown(self) -> None:
        """Cancel machine background ticks so the event heap can drain."""
        for controller in self.controllers:
            controller.stop()
        for machine in self.machines:
            machine.shutdown()
        # Releases the telemetry spill stream (a no-op for buffered mode
        # and for streams already folded by finalized()).
        self.telemetry.close()


#: Well-known ports of the two runtime roles, on every service and graph.
MIDTIER_PORT = 40
LEAF_PORT = 50


class Tier(NamedTuple):
    """One provisioned tier: N replicas of one runtime, their machines,
    and the balancer in front of them (None for a lone replica)."""

    runtimes: list
    machines: List[Machine]
    frontend: Optional[LoadBalancer]

    @property
    def address(self):
        """Where callers send requests: the balancer, or the lone replica."""
        front = self.frontend if self.frontend is not None else self.runtimes[0]
        return front.address


def midtier_maker(knobs, app, leaf_addrs, config, tail_policy=None):
    """A ``make_runtime`` for :func:`build_tier`: mid-tier replicas of
    ``app`` fanning out to ``leaf_addrs``, with the batching / caching
    knobs of ``knobs`` (a ``ServiceScale`` or a ``GraphNode``).  Both
    default off: the runtimes get None, construct nothing extra, and
    goldens are bit-identical.
    """
    def make_runtime(machine: Machine) -> MidTierRuntime:
        return make_midtier_runtime(
            machine, port=MIDTIER_PORT, app=app, leaf_addrs=leaf_addrs,
            config=config, tail_policy=tail_policy,
            batch_config=knobs.batch if knobs.batch.enabled else None,
            # One private cache per replica, like a replica-local memcached.
            cache=QueryCache(knobs.cache) if knobs.cache.enabled else None,
        )

    return make_runtime


def build_tier(
    cluster: SimCluster,
    knobs,
    replicas: int,
    name: str,
    front: str,
    cores: int,
    make_runtime: Callable[[Machine], object],
    signals: Callable[[List[Machine]], List[str]],
    **placement,
) -> Tier:
    """Stand up one tier: ``replicas`` copies of ``make_runtime(machine)``
    on ``cores``-core machines, behind a balancer when there is more than
    one.  The one provisioning path for suite mid-tiers and graph nodes.

    ``knobs`` (a ``ServiceScale`` or a ``GraphNode``) supplies ``lb`` and
    ``control``.  What differs between callers is passed in, because names
    key RNG streams: a lone replica's machine is ``name`` and N are
    ``name0..``; the balancer and controller are ``<front>-lb`` /
    ``<front>-ctrl``; ``signals(machines)`` names the latency series the
    controller watches.  ``placement`` (``policy`` / ``role`` /
    ``leaf_index``) goes to :meth:`SimCluster.machine`.  One replica with
    control off (the default) registers no balancer and draws no extra
    randomness, so that topology stays bit-identical to the paper's.
    """
    # Closed-loop control (repro.control).  When enabled the tier
    # provisions max_replicas machines up front (a warm pool the
    # controller activates/drains through the balancer) and a Controller
    # ticking on the event calendar; disabled constructs none of it.
    control = knobs.control
    if control.enabled:
        replicas = control.max_replicas
        windows = cluster.telemetry.windows
        if windows is not None and windows.width_us != control.window_us:
            # One cluster has one window grid; a controller reading it at
            # another width would select samples at the wrong granularity.
            raise ValueError(
                f"{front}-ctrl: control.window_us={control.window_us} differs "
                f"from the cluster's telemetry window width {windows.width_us} "
                "set by an earlier controlled tier; every controller on one "
                "cluster must use the same window_us"
            )
    runtimes: list = []
    machines: List[Machine] = []
    lane = None
    for replica in range(replicas):
        machine = cluster.machine(
            name if replicas == 1 else f"{name}{replica}", cores=cores,
            lane=lane, **placement,
        )
        runtimes.append(make_runtime(machine))
        machines.append(machine)
        # The replicas share one app object.  When it declares ordered
        # shared state (Router's replica-pick RNG) they share one calendar
        # lane, so none runs ahead of another's work; otherwise each
        # replica keeps its own lane and runs ahead like any machine.
        if replica == 0 and runtimes[0].app.replicas_share_state:
            lane = machine.lane
    frontend = None
    if replicas > 1:
        frontend = LoadBalancer(
            cluster.sim, cluster.fabric, cluster.rng,
            name=f"{front}-lb",
            replicas=[runtime.address for runtime in runtimes],
            policy=knobs.lb.policy,
            pool_size=knobs.lb.pool_size,
            initial_active=control.initial_replicas if control.enabled else None,
        )
    if control.enabled:
        # The windows tee keeps exactly the series the controller reads.
        watched = signals(machines)
        cluster.telemetry.enable_windows(control.window_us, watched)
        controller = Controller(
            cluster.sim,
            cluster.telemetry,
            control,
            name=f"{front}-ctrl",
            runtimes=runtimes,
            lb=frontend,
            signals=watched,
        )
        cluster.controllers.append(controller)
        controller.start()
    return Tier(runtimes, machines, frontend)


@dataclass
class ServiceHandle:
    """A built service: its root tier and leaves plus a query source
    factory.  ``root`` is where clients send queries — the mid-tier of a
    suite service, the root node of a graph."""

    name: str
    root: Tier
    leaves: List[LeafRuntime]
    make_source: Callable[[], QuerySource]
    # Service-specific extras (e.g. HDSearch's accuracy checker).
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def midtier(self) -> MidTierRuntime:
        """The primary replica, for single-instance callers."""
        return self.root.runtimes[0]

    @property
    def frontend(self) -> Optional[LoadBalancer]:
        """The front-end balancer; None for the 1-replica topology."""
        return self.root.frontend

    @property
    def midtier_name(self) -> str:
        return self.root.machines[0].name

    @property
    def midtier_names(self) -> List[str]:
        """Every replica's machine name (telemetry keys)."""
        return [machine.name for machine in self.root.machines]

    @property
    def target_address(self):
        """Where clients send queries: the balancer, or the lone mid-tier."""
        return self.root.address


def build_three_tier(
    cluster: SimCluster,
    scale,
    name: str,
    name_prefix: str,
    leaf_apps: Dict[str, object],
    mid_app,
    query_set,
    extras: Dict[str, object],
    midtier_policy=None,
    tail_policy=None,
    leaf_cores: Optional[int] = None,
    midtier_cores: Optional[int] = None,
    midtier_runtime=None,
) -> ServiceHandle:
    """The shared tail of the four service builders (paper §III: front-end
    → mid-tier → leaves): one leaf machine per ``leaf_apps`` entry
    (machine name → app, in shard order), then the mid-tier through
    :func:`build_tier`, then the handle.  Machines get
    ``scale.topology``'s core counts unless ``leaf_cores`` /
    ``midtier_cores`` are passed (Router passes its module constants).
    """
    topo = scale.topology
    leaves: List[LeafRuntime] = []
    for i, (leaf_name, app) in enumerate(leaf_apps.items()):
        machine = cluster.machine(
            leaf_name, cores=leaf_cores or topo.leaf_cores,
            role="leaf", leaf_index=i,
        )
        leaves.append(
            LeafRuntime(machine, port=LEAF_PORT, app=app, config=scale.leaf_runtime)
        )
    root = build_tier(
        cluster, scale, topo.midtier_replicas,
        name=f"{name_prefix}-mid",
        front=name_prefix,
        cores=midtier_cores or topo.midtier_cores,
        make_runtime=midtier_maker(
            scale, mid_app, [leaf.address for leaf in leaves],
            midtier_runtime or scale.midtier_runtime, tail_policy,
        ),
        # A service's controller watches what its clients see.
        signals=lambda machines: [E2E_HIST],
        policy=midtier_policy,
        role="midtier",
    )
    return ServiceHandle(
        name=name,
        root=root,
        leaves=leaves,
        make_source=lambda: CyclingSource(query_set),
        extras=extras,
    )


@dataclass
class RunResult:
    """Everything measured during one windowed run."""

    service: str
    qps_offered: float
    duration_us: float
    sent: int
    completed: int
    e2e: LatencyHistogram
    telemetry: Telemetry
    # Every mid-tier replica's machine name (one when unreplicated).
    midtier_names: List[str]
    # LoadBalancer.stats() snapshot, None for the single-replica topology.
    lb_stats: Optional[Dict[str, object]] = None
    # Windowed EnergyReport, None unless the cluster was built with an
    # enabled EnergyConfig; covers exactly the measured window above.
    energy: Optional[EnergyReport] = None

    @property
    def throughput_qps(self) -> float:
        """Completions per second inside the measured window."""
        return self.completed / (self.duration_us / 1e6) if self.duration_us else 0.0

    def syscalls_per_query(self) -> Dict[str, float]:
        """Mid-tier syscall invocations normalized per completed query,
        summed across every replica."""
        denom = max(self.completed, 1)
        merged: Dict[str, float] = {}
        for name in self.midtier_names:
            for syscall, count in self.telemetry.syscall_counts(name).items():
                merged[syscall] = merged.get(syscall, 0.0) + count / denom
        return merged


def drive(
    cluster: SimCluster,
    service: ServiceHandle,
    gen,
    warmup_us: float,
    duration_us: float,
    drain_us: float = 50_000.0,
) -> RunResult:
    """Paper §V, the one load-driving loop: start ``gen`` (an already-built
    load generator), trim ``warmup_us``, measure ``duration_us``, then stop
    the generator and let in-flight queries drain for ``drain_us``."""
    start = cluster.sim.now
    gen.start()
    cluster.run(until=start + warmup_us)
    cluster.telemetry.open_window(cluster.sim.now)
    energy_start = (
        cluster.energy.snapshot(cluster.sim.now)
        if cluster.energy is not None else None
    )
    sent_before = gen.sent
    completed_before = gen.completed
    cluster.run(until=start + warmup_us + duration_us)
    window_sent = gen.sent - sent_before
    window_completed = gen.completed - completed_before
    # Snapshot before drain so the report covers the same window the
    # latency metrics do (warm-up trimmed, drain excluded).
    energy_end = (
        cluster.energy.snapshot(cluster.sim.now)
        if cluster.energy is not None else None
    )
    gen.stop()
    cluster.run(until=start + warmup_us + duration_us + drain_us)
    cluster.fabric.unregister(gen.name)
    # Buffered: returns the hub unchanged.  Streaming: flushes the last
    # window, folds the spill stream, and adopts the folded aggregates so
    # every downstream reader sees bit-identical structures.
    telemetry = cluster.telemetry.finalized()
    return RunResult(
        service=service.name,
        # Fixed-rate generators carry their rate; curve-driven and
        # closed-loop ones have no single offered load.
        qps_offered=getattr(gen, "qps", float("inf")),
        duration_us=duration_us,
        sent=window_sent,
        completed=window_completed,
        e2e=telemetry.hist(E2E_HIST),
        telemetry=telemetry,
        midtier_names=service.midtier_names,
        lb_stats=service.frontend.stats() if service.frontend else None,
        energy=(
            EnergyReport.from_window(
                cluster.energy.config,
                energy_start,
                energy_end,
                completed=window_completed,
                duration_us=duration_us,
            )
            if cluster.energy is not None else None
        ),
    )


def run_open_loop(
    cluster: SimCluster,
    service: ServiceHandle,
    qps: float,
    duration_us: float,
    warmup_us: float = 200_000.0,
    drain_us: float = 50_000.0,
    tracer=None,
) -> RunResult:
    """Paper §V: open-loop Poisson load, warm-up trimmed, window measured."""
    gen = OpenLoopLoadGen(
        cluster.sim,
        cluster.fabric,
        cluster.telemetry,
        cluster.rng,
        target=service.target_address,
        source=service.make_source(),
        qps=qps,
        tracer=tracer,
    )
    return drive(cluster, service, gen, warmup_us, duration_us, drain_us)


def run_closed_loop(
    cluster: SimCluster,
    service: ServiceHandle,
    n_clients: int,
    duration_us: float,
    warmup_us: float = 200_000.0,
) -> RunResult:
    """Paper §V: closed-loop mode to establish peak sustainable throughput:
    ``n_clients`` sessions that re-issue on every reply, no think time."""
    gen = SessionLoadGen(
        cluster.sim,
        cluster.fabric,
        cluster.telemetry,
        cluster.rng,
        target=service.target_address,
        source=service.make_source(),
        classes=[SessionClass("closed", n_clients)],
    )
    result = drive(cluster, service, gen, warmup_us, duration_us, drain_us=0.0)
    # The closed loop reports every query issued, warm-up included.
    result.sent = gen.sent
    return result
