"""The experiment layer's shared mechanism: cell, ``Experiment``, runner.

Bottom to top (each ``usuite`` command is built from these and nothing
else; see DESIGN.md "Experiment layer"):

* **cell** — :func:`open_loop_cell` is the one open-loop cell: build a
  seeded cluster plus a service *or* service graph
  (:func:`build_cluster`, a context manager that owns ``shutdown()``),
  offer Poisson load through :func:`repro.suite.cluster.drive` (the one
  warm-up / window / drain loop), return the ``RunResult``.  A sweep's
  ``measure_*`` function is therefore only its metric extraction; the
  three cells with a custom generator build theirs with :func:`loadgen`
  and call ``drive`` themselves.  :func:`double_run` measures a cell
  twice for the artifact's ``reproducibility`` block.
* **Experiment** — one value per command: how to run, print, gate and
  record it, its ``argparse`` declarations (:class:`Flag`), and — for
  commands with a committed ``BENCH_*.json`` — the *pinned cell* the
  drift gate re-measures.  An *artifact experiment* (one with a
  ``schema``) **is its document**: ``run`` returns the complete JSON it
  records, and ``acceptance`` / ``format`` are pure functions of that
  document, fresh or ``json.load``-ed.  ``repro.experiments.registry``
  lists them all; the CLI parser, the CLI dispatch and the drift gate
  are derived from that table.
* **runner** — :func:`run_experiment` drives one :class:`Experiment` and
  returns an :class:`ExperimentOutcome` whose ``exit_code`` follows the
  suite-wide convention: 0 on success, 1 when an acceptance gate fails,
  2 on a usage error (:class:`UsageError`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.graph import GraphConfig, build_graph
from repro.loadgen import OpenLoopLoadGen
from repro.suite import SCALES, ServiceScale, SimCluster, build_service
from repro.suite.cluster import RunResult, ServiceHandle, run_open_loop
from repro.suite.registry import SERVICE_NAMES
from repro.telemetry import critpath


class UsageError(ValueError):
    """Bad experiment parameters (unknown scale, service, policy, ...).

    The CLI reports the message on stderr and exits with code 2, the
    same convention argparse uses for malformed flags.
    """


def resolve_scale(scale: ServiceScale | str) -> ServiceScale:
    """A :class:`ServiceScale` from a scale or its registry name.

    Unknown names raise :class:`UsageError` so CLI paths exit with 2.
    """
    if isinstance(scale, ServiceScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise UsageError(
            f"unknown scale {scale!r} (choose from: {', '.join(sorted(SCALES))})"
        ) from None


def scale_name(scale: ServiceScale | str) -> str:
    """The registry name a sweep records for ``scale``.

    A document records only the name and ``pinned(doc)`` rebuilds its cell
    from it, so a :class:`ServiceScale` object (which the name would not
    describe) raises :class:`UsageError`, as an unknown name does.
    """
    if not isinstance(scale, str):
        raise UsageError(
            f"pass the scale by its registry name, not a {type(scale).__name__}: "
            "the document records only the name"
        )
    resolve_scale(scale)
    return scale


class Cell(NamedTuple):
    """A built sweep cell.  Unpacks as ``(cluster, handle)``; as a context
    manager it shuts the cluster down on exit."""

    cluster: SimCluster
    handle: ServiceHandle

    def __enter__(self) -> "Cell":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cluster.shutdown()


def build_cluster(
    target: str | GraphConfig,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    overrides: Optional[Mapping[str, object]] = None,
    midtier_policy=None,
    tail_policy=None,
    faults=None,
    costs=None,
    telemetry=None,
) -> Cell:
    """A seeded cluster plus one service (by name) or service graph.

    ``overrides`` are forwarded to :meth:`ServiceScale.with_overrides`
    after ``scale`` resolves, so callers can say
    ``overrides={"energy": EnergyConfig(enabled=True)}`` without touching
    the registry scale; ``telemetry`` (a
    :class:`~repro.telemetry.TelemetryConfig`) is the one override every
    sweep threads through, None keeping the scale's default.  A
    :class:`~repro.graph.GraphConfig` target takes only the cluster-wide
    settings (telemetry, energy) from the scale.  ``faults`` is an
    optional :class:`~repro.faults.FaultPlan`, ``costs`` an
    :class:`~repro.kernel.OsCosts` model.  Unknown services raise
    :class:`UsageError`.
    """
    built = resolve_scale(scale)
    if overrides:
        built = built.with_overrides(**overrides)
    if telemetry is not None:
        built = built.with_overrides(telemetry=telemetry)
    cluster = SimCluster(
        seed=seed, costs=costs, faults=faults, telemetry=built.telemetry,
        energy=built.energy,
    )
    if isinstance(target, GraphConfig):
        handle = build_graph(
            cluster, target,
            midtier_policy=midtier_policy, tail_policy=tail_policy,
        )
    else:
        try:
            handle = build_service(
                target, cluster, built,
                midtier_policy=midtier_policy, tail_policy=tail_policy,
            )
        except KeyError as err:
            raise UsageError(str(err.args[0])) from None
    return Cell(cluster, handle)


def loadgen(cluster: SimCluster, handle: ServiceHandle, cls=OpenLoopLoadGen, **kwargs):
    """A ``cls`` load generator aimed at ``handle``, for ``drive``.

    As the first generator of a fresh cluster it is ``client1``, like the
    run helpers' generators, so every cell of every sweep shares one
    arrival stream and a comparison isolates the configuration under test.
    """
    return cls(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(), **kwargs,
    )


def open_loop_cell(
    target: str | GraphConfig,
    qps: float,
    duration_us: float,
    scale: ServiceScale | str = "small",
    seed: int = 0,
    overrides: Optional[Mapping[str, object]] = None,
    warmup_us: float = 200_000.0,
    drain_us: float = 50_000.0,
    midtier_policy=None,
    tail_policy=None,
    faults=None,
    costs=None,
    tracer=None,
    telemetry=None,
) -> Tuple[RunResult, ServiceHandle]:
    """The one open-loop cell: a fresh :func:`build_cluster` of ``target``
    driven at ``qps`` (paper §V: Poisson arrivals, ``warmup_us`` trimmed,
    ``duration_us`` measured, ``drain_us`` to finish in-flight queries),
    shut down on the way out.

    Every ``measure_*`` function, :func:`measure_saturation` and
    ``characterize`` read their metrics off what this returns: the
    ``RunResult`` (whose ``telemetry`` is the cluster's finalized hub) and
    the ``ServiceHandle`` (machine names, the mid-tier's tail counters).
    ``tracer`` samples requests for critical-path attribution; the other
    keywords are :func:`build_cluster`'s.
    """
    with build_cluster(
        target, scale, seed=seed, overrides=overrides,
        midtier_policy=midtier_policy, tail_policy=tail_policy,
        faults=faults, costs=costs, telemetry=telemetry,
    ) as (cluster, handle):
        result = run_open_loop(
            cluster, handle, qps=qps, duration_us=duration_us,
            warmup_us=warmup_us, drain_us=drain_us, tracer=tracer,
        )
    return result, handle


def measure_saturation(
    service_name: str,
    scale: ServiceScale | str,
    offered_qps: float,
    seed: int = 0,
    duration_us: float = 300_000.0,
    warmup_us: float = 200_000.0,
) -> float:
    """Completion rate under open-loop overload (the Fig. 9 method).

    ``offered_qps`` should be ~2× the expected ceiling so the measured
    completion rate is the saturation throughput, not the offered load.
    """
    result, _service = open_loop_cell(
        service_name, offered_qps, duration_us, scale=scale, seed=seed,
        warmup_us=warmup_us, drain_us=0.0,
    )
    return result.throughput_qps


def double_run(measure: Callable[..., Any], *args) -> dict:
    """``measure(*args)`` — one cell, built from scratch under a fixed
    seed — run twice: both records as plain dicts and ``bit_identical``,
    their dict-for-dict equality.

    A sweep passes ``(pinned, doc, telemetry)``, once its document holds
    every parameter it records: the double run then measures the cell the
    drift gate re-runs from the committed artifact, and ``first`` is the
    record drift compares against.
    """
    first, second = (asdict(measure(*args)) for _ in range(2))
    return {"bit_identical": first == second, "first": first, "second": second}


def reproduced(doc: dict) -> str:
    """The double run's verdict word, as every sweep prints it."""
    return "bit-identical" if doc["reproducibility"]["bit_identical"] else "DIVERGED"


def find_row(rows: Sequence[dict], **match) -> Optional[dict]:
    """The first of ``rows`` (a document's cells, a cell's load points)
    whose fields equal ``match``; None when there is none."""
    for row in rows:
        if all(row[key] == value for key, value in match.items()):
            return row
    return None


def tail_attributions(traces: Sequence, pct: float = 99.0) -> Tuple[List, List]:
    """Every trace's critical-path attribution, and the tail subset.

    The tail is the attributions at or above the nearest-rank ``pct``-th
    percentile of total latency (deterministic, no interpolation).
    """
    attrs = [critpath.attribute(trace) for trace in traces]
    if not attrs:
        return attrs, []
    ordered = sorted(attr.total_us for attr in attrs)
    cut = ordered[int(round(pct / 100.0 * (len(ordered) - 1)))]
    return attrs, [attr for attr in attrs if attr.total_us >= cut]


def write_artifact(
    document: dict, path: str, schema: Optional[str] = None
) -> dict:
    """Write a benchmark artifact in the suite's canonical JSON form.

    When ``schema`` names a file under ``schemas/`` the document is
    validated first, so an artifact that would fail CI never reaches
    disk.  Returns the document for chaining.
    """
    if schema is not None:
        # Imported here so `python -m repro.experiments.schema` does not
        # find its module pre-imported by the package (runpy warns).
        from repro.experiments.schema import load_schema, validate

        validate(document, load_schema(schema))
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


# ---------------------------------------------------------------------------
# Flag vocabulary.  A flag is spelled once here (or once in the module of
# the one command that owns it) and composed into each Experiment's
# ``flags``; factories take a ``default``/``help`` where commands
# legitimately differ.  A default of None means "the run function's own
# default" — the CLI passes through only the flags that are not None.
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (capacities, batch sizes)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a strictly positive float (loads, durations, ticks,
    windows).

    Non-positive values exit with code 2 (argparse's usage-error code)
    instead of producing a zero-length measurement window, a division by
    a zero load or an un-armable controller tick deep inside a sweep.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a positive value: {text!r}")
    return value


class Flag:
    """One ``argparse`` declaration of a command.

    ``kwargs`` go to ``add_argument`` verbatim.  The parsed value feeds
    the ``param`` keyword (default: the flag's dest) of the experiment's
    ``run`` — or of its ``format`` when ``target="format"``.
    """

    def __init__(
        self, name: str, param: Optional[str] = None, target: str = "run",
        **kwargs,
    ):
        self.name = name
        self.kwargs = kwargs
        self.dest = kwargs.get("dest", name.lstrip("-").replace("-", "_"))
        self.param = param or self.dest
        self.target = target


SCALE = Flag("--scale", default="small", help="scale name (small, unit)")
SEED = Flag("--seed", type=int, default=0)
MIN_QUERIES = Flag(
    "--min-queries", type=int, default=600,
    help="measured queries per cell (longer = tighter tails)",
)
#: ``--scale --seed --min-queries``: the figure-sweep staple.
COMMON = (SCALE, SEED, MIN_QUERIES)

#: Stands for the ``--telemetry-mode/-window-us/-spill`` trio (declared in
#: the CLI), which together feed one ``telemetry`` keyword.
TELEMETRY = Flag("--telemetry-*", param="telemetry")


def services_flag(
    default: Optional[Sequence[str]] = SERVICE_NAMES, help: Optional[str] = None
) -> Flag:
    return Flag(
        "--services", nargs="+", choices=SERVICE_NAMES, help=help,
        default=list(default) if default is not None else None,
    )


def service_flag(param: str = "service") -> Flag:
    return Flag("--service", param=param, choices=SERVICE_NAMES, default="hdsearch")


def loads_flag(
    default: Optional[Sequence[float]] = (100.0, 1_000.0, 10_000.0),
    help: Optional[str] = None,
) -> Flag:
    """The QPS grid every latency sweep iterates."""
    return Flag(
        "--loads", nargs="+", type=positive_float, help=help,
        default=list(default) if default is not None else None,
    )


def qps_flag(
    default: Optional[float], help: Optional[str] = None, param: str = "qps"
) -> Flag:
    return Flag(
        "--qps", param=param, type=positive_float, default=default, help=help
    )


def duration_flag(
    default: Optional[float] = None,
    help: str = "measured window per cell (default: 500 ms)",
) -> Flag:
    return Flag("--duration-us", type=positive_float, default=default, help=help)


def queries_flag(help: str) -> Flag:
    return Flag("--queries", type=positive_int, default=None, help=help)


def plot_flag(help: str) -> Flag:
    return Flag("--plot", target="format", action="store_true", help=help)


@dataclass(frozen=True)
class Experiment:
    """One ``usuite`` command: how to declare, run, print, gate, record it.

    ``run`` produces the report from the keywords its ``flags`` feed and
    ``format`` renders it as text; ``title`` is the header line,
    ``str.format``-ed with the run keywords.  An experiment with gates is
    an *artifact experiment* and is its document: ``run`` returns the
    complete JSON it records — parameters, cells, derived blocks,
    ``reproducibility`` and the ``acceptance`` block holding the verdict —
    and ``acceptance`` (document -> checks dict with a boolean ``"pass"``)
    and ``format`` are pure functions of that document, so both work
    unchanged on a fresh run and on ``json.load(open(bench_path))``.
    ``schema`` names the JSON schema the document must satisfy (an
    experiment with a schema gets an ``--output`` flag); ``bench_path`` is
    the committed artifact (relative to the repository root / CWD), and
    ``pinned(doc, telemetry)`` measures that artifact's reproducibility
    cell from the parameters recorded in ``doc`` and returns its record:
    the sweep's double run and the drift gate both call it
    (``drift_streaming`` asks drift for a second, streaming-telemetry
    re-run).
    """

    name: str
    run: Callable[..., Any]
    help: str = ""
    title: Optional[str] = None
    flags: Tuple[Flag, ...] = ()
    format: Optional[Callable[..., str]] = None
    acceptance: Optional[Callable[[dict], Dict[str, object]]] = None
    schema: Optional[str] = None
    bench_path: Optional[str] = None
    pinned: Optional[Callable[[dict, Any], Any]] = None
    drift_streaming: bool = False


@dataclass
class ExperimentOutcome:
    """What :func:`run_experiment` produced, plus the CLI exit code.

    ``report`` is what ``run`` returned (the document, for an artifact
    experiment); ``passed`` its acceptance verdict, None without gates.
    """

    report: Any
    passed: Optional[bool]
    exit_code: int


def run_experiment(
    experiment: Experiment,
    params: Optional[Mapping[str, Any]] = None,
    output: Optional[str] = None,
    stream=None,
) -> ExperimentOutcome:
    """Drive one :class:`Experiment` end to end.

    Prints the title, runs it with ``params``, prints the formatted
    report to ``stream`` (stdout by default), and — when ``output`` is
    set — records the schema-validated document there.  A gated
    experiment's verdict is read from the document itself, where
    ``python -m repro.experiments.schema --require-pass`` reads it, and
    printed either way.
    :class:`UsageError` from the run (or an unknown ``scale`` parameter,
    checked up front so a typo is a one-line error rather than a
    traceback after seconds of set-up) maps to exit code 2; a failed
    acceptance gate to 1.
    """
    stream = sys.stdout if stream is None else stream
    params = dict(params or {})
    if experiment.title is not None:
        print(experiment.title.format(**params), file=stream)
    try:
        if "scale" in params:
            resolve_scale(params["scale"])
        report = experiment.run(**params)
    except UsageError as err:
        print(f"usuite {experiment.name}: error: {err}", file=sys.stderr)
        return ExperimentOutcome(None, None, 2)
    if experiment.format is not None:
        print(experiment.format(report), file=stream)
    passed = None
    if experiment.acceptance is not None:
        from repro.experiments.schema import verdict  # see write_artifact

        passed = bool(verdict(report))
    label = "" if passed is None else f"acceptance: {'pass' if passed else 'FAIL'}"
    if output:
        write_artifact(report, output, schema=experiment.schema)
        print(
            f"\nrecorded {output}" + (f" ({label})" if label else ""),
            file=stream,
        )
    elif label:
        print(label, file=stream)
    return ExperimentOutcome(report, passed, 1 if passed is False else 0)


__all__ = [
    "COMMON", "Cell", "Experiment", "ExperimentOutcome", "Flag", "MIN_QUERIES",
    "SCALE", "SEED", "TELEMETRY", "UsageError", "build_cluster",
    "double_run", "duration_flag", "find_row", "loadgen", "loads_flag",
    "measure_saturation", "open_loop_cell", "plot_flag", "positive_float",
    "positive_int", "qps_flag", "queries_flag", "reproduced",
    "resolve_scale", "run_experiment", "scale_name", "service_flag",
    "services_flag",
    "tail_attributions", "write_artifact",
]
