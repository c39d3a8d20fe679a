"""``usuite``: command-line front-end for regenerating the paper's artifacts.

Examples::

    usuite fig9
    usuite fig10 --services hdsearch router
    usuite syscalls --services setalgebra --loads 100 1000
    usuite overheads
    usuite fig19
    usuite headline
    usuite block-poll --service hdsearch
    usuite inline-dispatch --service router
    usuite poolsize --service setalgebra --qps 5000
    usuite faults --output BENCH_faults.json
    usuite energy --output BENCH_energy.json
    usuite figure-smoke --output smoke.json
    usuite all            # every artifact, in order (slow)

Nothing here knows any command: the parser and the dispatch are derived
from the :mod:`repro.experiments.registry` table (the paper-figure
commands above are rows of :data:`repro.experiments.figures.FIGURES`).  Each
:class:`~repro.experiments.runner.Experiment` declares its flags; the
CLI passes through every flag that is not None as the keyword its
:class:`~repro.experiments.runner.Flag` names, and exits with the
runner's code — 0 on success, 1 when an acceptance gate fails, 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from typing import List, Optional

from repro.experiments import registry, runner
from repro.telemetry import TELEMETRY_MODES, TelemetryConfig


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """The ``--telemetry-*`` trio shared by every sweep that supports it."""
    parser.add_argument(
        "--telemetry-mode", choices=TELEMETRY_MODES, default="buffered",
        help="telemetry aggregation: 'buffered' keeps the historical "
        "in-memory hub; 'streaming' spills windowed deltas to a JSONL "
        "stream at bounded memory (bit-identical aggregates)",
    )
    parser.add_argument(
        "--telemetry-window-us", type=runner.positive_float, default=None,
        help="streaming flush window width in us (default: 10000)",
    )
    parser.add_argument(
        "--telemetry-spill", default=None, metavar="PATH",
        help="streaming spill file (default: an unlinked temp file; with "
        "multi-cell sweeps each cell rewrites the same path, so the file "
        "holds the last cell's stream)",
    )


def _telemetry_config(args: argparse.Namespace) -> Optional[TelemetryConfig]:
    """The :class:`TelemetryConfig` the telemetry flags describe.

    Returns None for plain buffered defaults so sweeps keep their
    historical construction path untouched.
    """
    mode = args.telemetry_mode
    window_us = args.telemetry_window_us
    spill = args.telemetry_spill
    if mode == "buffered" and window_us is None and spill is None:
        return None
    kwargs = {"mode": mode}
    if window_us is not None:
        kwargs["window_us"] = window_us
    if spill is not None:
        kwargs["spill_path"] = spill
    return TelemetryConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usuite",
        description="Regenerate the tables and figures of 'uSuite: A Benchmark "
        "Suite for Microservices' (IISWC 2018) on the simulated substrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment in registry.EXPERIMENTS:
        command = sub.add_parser(experiment.name, help=experiment.help)
        for flag in experiment.flags:
            if flag is runner.TELEMETRY:
                _add_telemetry_flags(command)
            else:
                command.add_argument(flag.name, **flag.kwargs)
        if experiment.schema is not None:
            example = experiment.bench_path or f"{experiment.name}.json"
            command.add_argument(
                "--output", default=None, metavar="PATH",
                help=f"record the run into this JSON file (e.g. {example})",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    experiment = registry.BY_NAME[args.command]
    params = {"run": {}, "format": {}}
    for flag in experiment.flags:
        if flag is runner.TELEMETRY:
            value = _telemetry_config(args)
        else:
            value = getattr(args, flag.dest)
        if value is not None:
            params[flag.target][flag.param] = value
    if params["format"]:
        experiment = replace(
            experiment, format=partial(experiment.format, **params["format"])
        )
    output = getattr(args, "output", None)
    return runner.run_experiment(experiment, params["run"], output).exit_code


if __name__ == "__main__":
    sys.exit(main())
