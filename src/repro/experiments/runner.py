"""The experiment layer's shared mechanism: cell, ``Experiment``, runner.

Bottom to top (each ``usuite`` command is built from these and nothing
else; see DESIGN.md "Experiment layer"):

* **cell** — :func:`build_cluster` builds one seeded cluster plus a
  service *or* service graph and, used as a context manager, shuts it
  down; the load is offered by :func:`repro.suite.cluster.drive` (the
  one warm-up / window / drain loop), either through ``run_open_loop``
  or with a :func:`loadgen`-built generator.  A sweep's ``measure_*``
  function is therefore only its metric extraction.
* **Experiment** — one value per command: how to run, print, gate and
  record it, its ``argparse`` declarations (:class:`Flag`), and — for
  commands with a committed ``BENCH_*.json`` — the *pinned cell* the
  drift gate re-measures.  ``repro.experiments.registry`` lists them all;
  the CLI parser, the CLI dispatch and the drift gate are derived from
  that table.
* **runner** — :func:`run_experiment` drives one :class:`Experiment` and
  returns an :class:`ExperimentOutcome` whose ``exit_code`` follows the
  suite-wide convention: 0 on success, 1 when an acceptance gate fails,
  2 on a usage error (:class:`UsageError`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.graph import GraphConfig, build_graph
from repro.loadgen import OpenLoopLoadGen
from repro.suite import SCALES, ServiceScale, SimCluster, build_service
from repro.suite.cluster import CLIENT_NAME, ServiceHandle, run_open_loop
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
    ``overrides={"trace": TraceConfig(enabled=True)}`` without touching
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

    Named :data:`~repro.suite.cluster.CLIENT_NAME` like the run helpers'
    generators, so every cell of every sweep shares one arrival stream
    and a comparison isolates the configuration under test.
    """
    return cls(
        cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
        target=handle.target_address, source=handle.make_source(),
        name=CLIENT_NAME, **kwargs,
    )


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
    with build_cluster(service_name, scale, seed=seed) as (cluster, service):
        return run_open_loop(
            cluster, service, qps=offered_qps, duration_us=duration_us,
            warmup_us=warmup_us, drain_us=0.0,
        ).throughput_qps


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

    ``run`` produces the report object from the keywords its ``flags``
    feed; the optional callables adapt it: ``format`` to a
    human-readable string, ``acceptance`` to a checks dict with a boolean
    ``"pass"`` key, ``to_document`` to the JSON artifact (defaulting to
    the report itself when it is already a dict).  ``title`` is the
    header line, ``str.format``-ed with the run keywords.  ``schema``
    names the JSON schema the artifact must satisfy (an experiment with
    a schema gets an ``--output`` flag); ``bench_path`` is
    the committed artifact, and ``pinned(doc, telemetry)`` re-measures
    that artifact's reproducibility cell from the parameters recorded in
    ``doc``, returning ``(fresh, committed, label)`` for the drift gate
    (``drift_streaming`` asks for a second, streaming-telemetry re-run).
    """

    name: str
    run: Callable[..., Any]
    help: str = ""
    title: Optional[str] = None
    flags: Tuple[Flag, ...] = ()
    format: Optional[Callable[..., str]] = None
    acceptance: Optional[Callable[[Any], Dict[str, object]]] = None
    to_document: Optional[Callable[[Any], dict]] = None
    schema: Optional[str] = None
    bench_path: Optional[str] = None
    pinned: Optional[Callable[[dict, Any], Tuple[Any, dict, str]]] = None
    drift_streaming: bool = False


@dataclass
class ExperimentOutcome:
    """What :func:`run_experiment` produced, plus the CLI exit code."""

    report: Any
    document: Optional[dict]
    checks: Optional[Dict[str, object]]
    exit_code: int


def run_experiment(
    experiment: Experiment,
    params: Optional[Mapping[str, Any]] = None,
    output: Optional[str] = None,
    stream=None,
) -> ExperimentOutcome:
    """Drive one :class:`Experiment` end to end.

    Prints the title, runs it with ``params``, prints the formatted
    report to ``stream`` (stdout by default), evaluates acceptance, and
    — when ``output`` is set — records the schema-validated artifact
    there; the acceptance verdict is printed either way.
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
        return ExperimentOutcome(None, None, None, 2)
    if experiment.format is not None:
        print(experiment.format(report), file=stream)
    checks = (
        experiment.acceptance(report)
        if experiment.acceptance is not None
        else None
    )
    verdict = ""
    if checks is not None:
        verdict = f"acceptance: {'pass' if checks.get('pass') else 'FAIL'}"
    document = None
    if output:
        if experiment.to_document is not None:
            document = experiment.to_document(report)
        elif isinstance(report, dict):
            document = report
        else:
            raise TypeError(
                f"experiment {experiment.name!r} has no to_document and its "
                f"report is not a dict"
            )
        write_artifact(document, output, schema=experiment.schema)
        print(
            f"\nrecorded {output}" + (f" ({verdict})" if verdict else ""),
            file=stream,
        )
    elif verdict:
        print(verdict, file=stream)
    exit_code = 0
    if checks is not None and not checks.get("pass", True):
        exit_code = 1
    return ExperimentOutcome(report, document, checks, exit_code)


__all__ = [
    "COMMON", "Cell", "Experiment", "ExperimentOutcome", "Flag", "MIN_QUERIES",
    "SCALE", "SEED", "TELEMETRY", "UsageError", "build_cluster",
    "duration_flag", "loadgen", "loads_flag", "measure_saturation",
    "plot_flag", "positive_float", "positive_int", "qps_flag",
    "queries_flag", "resolve_scale", "run_experiment", "service_flag",
    "services_flag", "tail_attributions", "write_artifact",
]
