"""The paper's evaluation as one table: a row per characterize-view command.

The paper's §VI figures and §VII ablations are *views* over one
characterization run per (service, load) — exactly as on real hardware,
where one 30 s measurement feeds Figs. 10-19.  :data:`FIGURES` therefore
holds one :class:`Figure` row per ``usuite`` command and a row states
only what differs: which variants it compares (the services themselves,
or one service under N mid-tier runtime overrides), its default loads
and window, its table as ``(header, cell -> value)`` columns (or a
per-service pivot), any footer or ``--plot`` violins.  The paper-claim
measures each figure owns (``low_load_median_inflation``,
``dominant_syscall``, ``active_exe_dominates``, ...) are plain functions
defined once, beside the row they belong to; the benchmarks, the tier-1
tests and ``figure_smoke`` all call these.

Three functions serve every row: :func:`run_figure` (the grid, always
shaped ``{variant: {qps: cell}}``), :func:`render` (table + footer +
pivots + violins) and :func:`experiment` (row -> ``runner.Experiment``).
Fig. 9 is the one row that is not a characterize view: it keeps its own
saturation ``run`` and ``format``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.experiments import runner
from repro.experiments.characterize import (
    OVERHEAD_KINDS,
    PAPER_LOADS,
    CharacterizationResult,
    characterize_grid,
)
from repro.experiments.plots import render_distributions
from repro.experiments.tables import render_table
from repro.suite import ServiceScale
from repro.suite.cluster import run_closed_loop
from repro.suite.registry import SERVICE_NAMES

ByLoad = Dict[float, CharacterizationResult]
#: What every characterize view runs on: ``{variant: {qps: cell}}``.
Grid = Dict[object, ByLoad]
#: One table column: header and how to read its value off a cell.
Column = Tuple[str, Callable[[CharacterizationResult], object]]


@dataclass(frozen=True)
class Figure:
    """One row of :data:`FIGURES`: a ``usuite`` command as a view."""

    name: str
    help: str
    flags: Tuple[runner.Flag, ...]
    title: Optional[str] = None
    #: ``{variant: mid-tier RuntimeConfig field overrides}``: the row
    #: compares one service under these runtimes.  None: it compares the
    #: services named on the command line, at one scale.
    runtimes: Optional[Mapping[object, Mapping[str, object]]] = None
    #: Default loads; None means :func:`default_sweep_loads` of the service.
    loads: Optional[Tuple[float, ...]] = PAPER_LOADS
    #: Default completions per cell for Python callers (the CLI's
    #: ``--min-queries`` always supplies its own 600).
    min_queries: int = 600
    #: Header of the leading variant column; None omits the column.
    variant: Optional[str] = "service"
    columns: Tuple[Column, ...] = ()
    #: ``results -> lines`` printed under the table.
    footer: Optional[Callable[[Grid], List[str]]] = None
    #: ``(variant, by_load) -> text``: a per-service table in place of
    #: (or after) the row table, for the figures the paper draws per service.
    pivot: Optional[Callable[[object, ByLoad], str]] = None
    #: ``(variant, by_load) -> lines``: the ``--plot`` text violins.
    violins: Optional[Callable[[object, ByLoad], List[str]]] = None
    #: Overrides for the one row that is not a characterize view (Fig. 9).
    run: Optional[Callable[..., object]] = None
    format: Optional[Callable[..., str]] = None


def run_figure(
    fig: Figure,
    services: Iterable[str] | str,
    loads: Iterable[float] | float | None = None,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    min_queries: Optional[int] = None,
    runtimes: Optional[Mapping[object, Mapping[str, object]]] = None,
) -> Grid:
    """Characterize ``fig``'s variants across ``loads``.

    ``services`` is a list for the service figures and one name for the
    rows that compare runtimes; ``runtimes`` replaces the row's own
    (e.g. ``pool_sizes((1, 4, 16, 48))``).  Unset parameters take the
    row's defaults.
    """
    services = [services] if isinstance(services, str) else list(services)
    runtimes = fig.runtimes if runtimes is None else runtimes
    if runtimes is None:
        variants = {name: (name, scale) for name in services}
    else:
        (service,) = services
        base = runner.resolve_scale(scale)
        # Router builds its mid-tier from its own runtime field.
        field = "router_midtier_runtime" if service == "router" else "midtier_runtime"
        variants = {
            label: (service, base.with_overrides(
                **{field: replace(getattr(base, field), **fields)}
            ))
            for label, fields in runtimes.items()
        }
    if loads is None:
        loads = fig.loads or default_sweep_loads(services[0])
    elif isinstance(loads, (int, float)):
        loads = [loads]
    return characterize_grid(
        variants, [float(qps) for qps in loads], seed,
        min_queries or fig.min_queries,
    )


def table(fig: Figure, results: Grid) -> str:
    """The row table: one line per (variant, load) cell."""
    rows = []
    for variant, by_load in results.items():
        for _qps, cell in sorted(by_load.items()):
            row = [read(cell) for _header, read in fig.columns]
            rows.append([variant] + row if fig.variant else row)
    headers = [header for header, _read in fig.columns]
    return render_table([fig.variant] + headers if fig.variant else headers, rows)


def render(fig: Figure, results: Grid, plot: bool = False) -> str:
    """Everything ``usuite <fig.name>`` prints under its title."""
    out = []
    if fig.columns:
        out.append(table(fig, results))
    if fig.footer is not None:
        out += fig.footer(results)
    for variant, by_load in results.items():
        if fig.pivot is not None:
            out.append(fig.pivot(variant, by_load))
        if plot:
            out += fig.violins(variant, by_load)
        if fig.pivot is not None:
            out.append("")
    return "\n".join(out)


def experiment(fig: Figure) -> runner.Experiment:
    """The registry entry of one row."""
    return runner.Experiment(
        name=fig.name, help=fig.help, title=fig.title, flags=fig.flags,
        run=fig.run or partial(run_figure, fig),
        format=fig.format or partial(render, fig),
    )


# -- flags: the service figures take a grid, the rest one service ----------

_LOADS = runner.loads_flag(None)  # None: the row's default loads
_GRID = runner.COMMON + (runner.services_flag(), _LOADS)
_ONE_SERVICE = runner.COMMON + (runner.service_flag("services"),)


# -- columns several rows share --------------------------------------------

LOAD: Column = ("load QPS", lambda cell: int(cell.qps))
P50: Column = ("p50 us", lambda cell: round(cell.e2e.median))
P95: Column = ("p95 us", lambda cell: round(cell.e2e.percentile(95)))
P99: Column = ("p99 us", lambda cell: round(cell.e2e.percentile(99)))
QUERIES: Column = ("queries", lambda cell: cell.completed)


def _per_query(header: str, syscall: str) -> Column:
    return header, lambda cell: round(cell.syscalls_per_query.get(syscall, 0.0), 1)


FUTEX = _per_query("futex/query", "futex")
EPOLL = _per_query("epoll/query", "epoll_pwait")


def _pivot(
    caption: str,
    figure_of: Mapping[str, int],
    label: str,
    items: Tuple[str, ...],
    measures: Tuple[Tuple[str, Callable[[CharacterizationResult, str], float]], ...],
) -> Callable[[str, ByLoad], str]:
    """A per-service figure: rows = ``items``, columns = loads × measures."""

    def fmt(service: str, by_load: ByLoad) -> str:
        loads = sorted(by_load)
        headers = [label] + [
            header.format(int(qps)) for qps in loads for header, _read in measures
        ]
        rows = [
            [item] + [
                round(read(by_load[qps], item), 2)
                for qps in loads for _header, read in measures
            ]
            for item in items
        ]
        return (
            f"Fig. {figure_of.get(service, '?')} — {service} {caption}\n"
            + render_table(headers, rows)
        )

    return fmt


# -- Fig. 9: saturation throughput -----------------------------------------
# The paper (§V, §VI-A) establishes peak sustainable throughput with its
# closed-loop load generator.  The default here is instead the completion
# rate under a 2× open-loop *overload* (DESIGN.md): the simulated closed
# loop's completion-synchronized arrivals are unrealistically smooth,
# letting services ride ~15-25 % above the capacity they sustain under
# Poisson arrivals — the capacity every other figure depends on.

#: The paper's measured saturation throughputs (Fig. 9); the scaled
#: simulation targets the same values and, critically, the same ordering.
PAPER_SATURATION_QPS = {
    "hdsearch": 11_500.0,
    "router": 12_000.0,
    "setalgebra": 16_500.0,
    "recommend": 13_000.0,
}


def saturation_throughput(
    service_name: str,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    duration_us: float = 400_000.0,
    warmup_us: float = 200_000.0,
    mode: str = "overload",
    n_clients: int = 192,
    overload_factor: float = 2.0,
) -> float:
    """Peak sustainable QPS for one service.

    ``mode="overload"`` (default) offers ``overload_factor ×`` the paper's
    saturation value open-loop and reports the completion rate;
    ``mode="closed"`` uses the paper's closed-loop methodology directly.
    """
    if mode == "overload":
        offered = overload_factor * PAPER_SATURATION_QPS.get(service_name, 15_000.0)
        return runner.measure_saturation(
            service_name, scale, offered, seed=seed,
            duration_us=duration_us, warmup_us=warmup_us,
        )
    if mode != "closed":
        raise ValueError(f"unknown mode {mode!r}")
    with runner.build_cluster(service_name, scale, seed=seed) as (cluster, service):
        return run_closed_loop(
            cluster, service, n_clients=n_clients, duration_us=duration_us,
            warmup_us=warmup_us,
        ).throughput_qps


def run_fig09(
    services: Iterable[str] = SERVICE_NAMES,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    duration_us: float = 400_000.0,
) -> Dict[str, float]:
    """Measure every service's saturation throughput."""
    return {
        name: saturation_throughput(
            name, scale=scale, seed=seed, duration_us=duration_us
        )
        for name in services
    }


def format_fig09(results: Dict[str, float]) -> str:
    """Fig. 9 as a table with paper-vs-measured columns."""
    rows = []
    for name, qps in results.items():
        paper = PAPER_SATURATION_QPS.get(name, float("nan"))
        rows.append((name, round(paper), round(qps), f"{qps / paper:.2f}x"))
    return render_table(("service", "paper QPS", "measured QPS", "ratio"), rows)


# -- Fig. 10: end-to-end latency -------------------------------------------
# The paper's violins at 100 / 1 000 / 10 000 QPS show tails growing with
# load, worst cases bounded (≤ ~22 ms), and the measure below.


def low_load_median_inflation(by_load: ByLoad) -> float:
    """The paper's headline ratio: median at 100 QPS / median at 1 000 QPS
    (up to ~1.45×: deeper C-states and downclocked cores at low load)."""
    low = by_load[100.0].e2e.median
    mid = by_load[1_000.0].e2e.median
    return low / mid if mid > 0 else 0.0


def _inflation_lines(results: Grid) -> List[str]:
    return [
        f"{service}: median(100 QPS) / median(1K QPS) = "
        f"{low_load_median_inflation(by_load):.2f}x"
        for service, by_load in results.items()
        if 100.0 in by_load and 1_000.0 in by_load
    ]


def _latency_violins(service: str, by_load: ByLoad) -> List[str]:
    return [
        f"\n{service} end-to-end latency (violin strips):",
        render_distributions({
            f"@{int(qps)} QPS": cell.e2e.samples()
            for qps, cell in sorted(by_load.items())
        }),
    ]


# -- Figs. 11-14: syscalls per query ---------------------------------------

#: Figure number per service, as in the paper.
SYSCALLS_FIGURE_OF = {"hdsearch": 11, "router": 12, "setalgebra": 13, "recommend": 14}

#: Syscalls the paper's figures break out, in their x-axis order.
REPORTED_SYSCALLS = (
    "mprotect", "openat", "brk", "sendmsg", "epoll_pwait", "write", "read",
    "recvmsg", "close", "futex", "clone", "mmap", "munmap",
)

format_syscall_profile = _pivot(
    "syscalls per query", SYSCALLS_FIGURE_OF, "syscall", REPORTED_SYSCALLS,
    (("per query @{}", lambda cell, name: cell.syscalls_per_query.get(name, 0.0)),),
)


def dominant_syscall(cell: CharacterizationResult) -> str:
    """The most-invoked syscall in one cell.  The paper: ``futex`` for
    every service, and — counter-intuitively — most per query at *low*
    load, where parked pools thundering-herd awake on sparse arrivals."""
    profile = cell.syscalls_per_query
    return max(profile, key=profile.get) if profile else ""


# -- Figs. 15-18: OS-overhead latency breakdown on the mid-tier ------------

#: Figure number per service, as in the paper.
OVERHEADS_FIGURE_OF = {"hdsearch": 15, "router": 16, "setalgebra": 17, "recommend": 18}

_overheads_table = _pivot(
    "OS overhead latencies (µs)", OVERHEADS_FIGURE_OF, "category", OVERHEAD_KINDS,
    (
        ("p50 @{}", lambda cell, kind: cell.overheads[kind].median),
        ("p99 @{}", lambda cell, kind: cell.overheads[kind].percentile(99)),
    ),
)


def format_overheads(service: str, by_load: ByLoad) -> str:
    """One figure, plus the retransmission count the paper reports beside
    it (§VI-C: "only a single-digit number of TCP re-transmissions")."""
    retrans = {int(qps): by_load[qps].retransmissions for qps in sorted(by_load)}
    return (
        _overheads_table(service, by_load)
        + f"\nTCP retransmissions per window: {retrans}"
    )


def active_exe_dominates(cell: CharacterizationResult) -> bool:
    """Does Active-Exe (runqueue wait) exceed every other pure-OS
    category at the tail?  The paper's principal mid-tier finding."""
    active = cell.overheads["active_exe"].percentile(99)
    others = ("hardirq", "net_tx", "net_rx", "block", "sched", "rcu")
    return all(active >= cell.overheads[kind].percentile(99) for kind in others)


def _overhead_violins(service: str, by_load: ByLoad) -> List[str]:
    out = []
    for qps, cell in sorted(by_load.items()):
        out.append(f"\n{service} @{int(qps)} QPS (violin strips):")
        out.append(render_distributions({
            kind: cell.overheads[kind].samples() for kind in OVERHEAD_KINDS
        }))
    return out


# -- Fig. 19: context switches and HITM ------------------------------------


def rates_per_second(cell: CharacterizationResult) -> Tuple[float, float]:
    """(context switches, HITM) per second of measured window.  The paper:
    both grow with load and HITM exceeds CS — woken thread herds contend
    on socket locks more often than they switch.  (Its absolute counts
    are per 30 s window on real silicon.)"""
    seconds = cell.duration_us / 1e6
    return cell.context_switches / seconds, cell.hitm / seconds


def _hitm_per_cs(cell: CharacterizationResult) -> str:
    cs_rate, hitm_rate = rates_per_second(cell)
    return f"{hitm_rate / cs_rate:.2f}" if cs_rate else "-"


CS_RATE: Column = ("CS/s", lambda cell: round(rates_per_second(cell)[0]))
HITM_RATE: Column = ("HITM/s", lambda cell: round(rates_per_second(cell)[1]))


# -- §VII ablations: one service under N mid-tier runtimes -----------------


def inline_wins_at_low_load(results: Grid) -> bool:
    """The §VII claim, measured where the design difference lives: in-line
    avoids the network→worker thread-hop, so the mid-tier *request path*
    (query arrival → fan-out sent) is faster at the lowest load.  (The
    end-to-end median barely moves because gRPC-style timed waits keep
    worker cores warm, shrinking the hand-off wakeup.)"""
    low = min(results["inline"])
    inline_req = results["inline"][low].extras["request_path"]
    dispatch_req = results["dispatch"][low].extras["request_path"]
    return inline_req.median <= dispatch_req.median


def pool_sizes(counts: Iterable[int]) -> Dict[int, Dict[str, int]]:
    """The ``runtimes`` of a worker-pool sweep over ``counts``."""
    return {workers: {"worker_threads": workers} for workers in counts}


def best_pool_size(results: Grid, pct: float = 99.0) -> int:
    """The worker count minimizing tail latency (completion-weighted)."""
    cells = {
        workers: cell
        for workers, by_load in results.items() for cell in by_load.values()
    }
    most = max(cell.completed for cell in cells.values())
    viable = {w: cell for w, cell in cells.items() if cell.completed >= 0.9 * most}
    return min(viable, key=lambda w: viable[w].e2e.percentile(pct))


def adaptive_tracks_best(results: Grid, slack: float = 1.15) -> bool:
    """True when the adaptive median is within ``slack`` of the better
    static variant at every load."""
    for qps in results["adaptive"]:
        adaptive = results["adaptive"][qps].e2e.median
        best_static = min(
            results["blocking"][qps].e2e.median,
            results["polling"][qps].e2e.median,
        )
        if adaptive > best_static * slack:
            return False
    return True


# -- load sweep: the hockey stick behind Fig. 10 ---------------------------


def default_sweep_loads(service_name: str) -> tuple:
    """Loads from 100 QPS to ~95% of the service's paper saturation."""
    saturation = PAPER_SATURATION_QPS.get(service_name, 12_000.0)
    fractions = (0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95)
    return tuple(round(saturation * f) for f in fractions)


def knee_load(by_load: ByLoad, factor: float = 2.0) -> float:
    """The lowest offered load whose p99 exceeds ``factor``× the minimum
    p99 across the sweep — where the hockey stick bends."""
    ordered = sorted(by_load.items())
    floor = min(cell.e2e.percentile(99) for _qps, cell in ordered)
    for qps, cell in ordered:
        if cell.e2e.percentile(99) > factor * floor:
            return qps
    return ordered[-1][0]


def _hockey_stick(results: Grid) -> List[str]:
    """A crude p99-vs-load sparkline, and the knee."""
    (by_load,) = results.values()
    p99s = [cell.e2e.percentile(99) for _qps, cell in sorted(by_load.items())]
    low, high = min(p99s), max(p99s)
    blocks = "▁▂▃▄▅▆▇█"
    marks = "".join(
        blocks[min(7, int((v - low) / max(high - low, 1e-9) * 7))] for v in p99s
    )
    return [
        f"p99 vs load: {marks}",
        f"knee (p99 > 2x floor) at ~{knee_load(by_load):g} QPS",
    ]


# -- the table -------------------------------------------------------------

_POOL_QPS = 5_000.0
_BLOCK_POLL = {mode: {"reception_mode": mode} for mode in ("blocking", "polling")}

FIGURES: Dict[str, Figure] = {fig.name: fig for fig in (
    Figure(
        name="fig9",
        help="saturation throughput per service",
        title="Fig. 9 — saturation throughput",
        run=run_fig09,
        format=format_fig09,
        flags=(
            runner.SCALE, runner.SEED, runner.services_flag(),
            runner.duration_flag(400_000.0, help="measured window per cell"),
        ),
    ),
    Figure(
        name="fig10",
        help="end-to-end latency across loads",
        title="Fig. 10 — end-to-end latency across loads",
        columns=(LOAD, P50, P95, P99,
                 ("max us", lambda cell: round(cell.e2e.max or 0)), QUERIES),
        footer=_inflation_lines,
        violins=_latency_violins,
        flags=_GRID + (
            runner.plot_flag("render the latency distributions as text violins"),
        ),
    ),
    Figure(
        name="syscalls",
        help="Figs 11-14: syscall profile",
        pivot=format_syscall_profile,
        flags=_GRID,
    ),
    Figure(
        name="overheads",
        help="Figs 15-18: OS overhead breakdown",
        pivot=format_overheads,
        violins=_overhead_violins,
        flags=_GRID + (
            runner.plot_flag("render the overhead distributions as text violins"),
        ),
    ),
    Figure(
        name="fig19",
        help="context switches and HITM",
        title="Fig. 19 — context switches and HITM",
        columns=(LOAD, CS_RATE, HITM_RATE, ("HITM/CS", _hitm_per_cs)),
        flags=_GRID,
    ),
    # §VII: blocking conserves CPU but pays OS-induced wakeup latency;
    # polling avoids wakeups but "wastes CPU time in fruitless poll loops"
    # — the trade-off a dynamic block/poll adaptation would navigate.
    Figure(
        name="block-poll",
        help="blocking vs polling reception",
        title="Ablation — blocking vs polling ({services})",
        runtimes=_BLOCK_POLL,
        variant="mode",
        columns=(LOAD, P50, P99, FUTEX, EPOLL),
        flags=_ONE_SERVICE + (_LOADS,),
    ),
    # §VII: in-line designs avoid the network→worker thread-hop but "are
    # only efficient at low loads and for short requests"; dispatch pays
    # a hand-off but lets many workers absorb load.
    Figure(
        name="inline-dispatch",
        help="in-line vs dispatched processing",
        title="Ablation — in-line vs dispatch ({services})",
        runtimes={mode: {"processing_mode": mode} for mode in ("dispatch", "inline")},
        variant="mode",
        columns=(
            LOAD, P50, P99,
            ("mid-tier p99 us", lambda cell: round(cell.midtier_latency.percentile(99))),
            QUERIES,
        ),
        flags=_ONE_SERVICE + (_LOADS,),
    ),
    # §VII: large pools sustain peak load but contend on the front-end
    # socket, the task queue and the response socket; one load, so the
    # table has no load column and the flag is ``--qps``.
    Figure(
        name="poolsize",
        help="worker thread-pool sweep",
        title="Ablation — worker pool sweep ({services} @ {loads:g} QPS)",
        runtimes=pool_sizes((1, 2, 4, 8, 16, 32)),
        loads=(_POOL_QPS,),
        min_queries=800,
        variant="workers",
        columns=(P50, P99, FUTEX, HITM_RATE, QUERIES),
        flags=_ONE_SERVICE + (runner.qps_flag(_POOL_QPS, param="loads"),),
    ),
    # §VII asks for "a dynamic adaptation system that judiciously chooses"
    # between the static options: the repro.rpc.adaptive monitor against
    # always-blocking and always-polling.
    Figure(
        name="adaptive",
        help="adaptive runtime vs static block/poll",
        title="Extension — adaptive vs static reception ({services})",
        runtimes={**_BLOCK_POLL, "adaptive": {"adaptive": True}},
        loads=(100.0, 1_000.0, 8_000.0),
        min_queries=500,
        variant="variant",
        columns=(LOAD, P50, P99, EPOLL, QUERIES),
        flags=_ONE_SERVICE + (_LOADS,),
    ),
    # The paper samples three loads; this fills in the curve between them
    # — flat region, knee near saturation, low-load inflation on the left
    # edge — also a check that a calibration change didn't move the knee.
    Figure(
        name="sweep",
        help="latency vs offered load (hockey stick)",
        title="Load sweep — {services}",
        loads=None,
        min_queries=300,
        variant=None,
        columns=(
            LOAD, P50, P95, P99,
            ("Active-Exe p99",
             lambda cell: round(cell.overheads["active_exe"].percentile(99), 1)),
            QUERIES,
        ),
        footer=_hockey_stick,
        flags=_ONE_SERVICE + (_LOADS,),
    ),
)}

#: Registry entries, by command name.
EXPERIMENTS: Dict[str, runner.Experiment] = {
    name: experiment(fig) for name, fig in FIGURES.items()
}
