"""Artifact-drift gate: committed benchmarks must still reproduce.

Every ``BENCH_*.json`` in the repository root embeds a *pinned
acceptance cell*: one measurement re-run twice at recording time and
committed byte-for-byte (the ``reproducibility`` block, or the recovery
triple for the fault sweep).  This module re-runs exactly that cell from
the parameters recorded **inside the artifact** — through the ``pinned``
probe of the :class:`~repro.experiments.runner.Experiment` that records
the artifact, the same function its sweep calls for the double run — and
fails on any byte difference in the canonical JSON, so a simulator change
that silently shifts committed numbers turns CI red instead of rotting
the artifacts.

Before any simulation it re-evaluates every artifact's gates *offline*:
the document must validate against its experiment's schema and the
experiment's pure ``acceptance(doc)`` must reproduce the committed
``acceptance`` block (:func:`check_gates`, milliseconds).  That catches
what the pinned cell cannot — a hand-edited artifact, or a gate constant
changed without re-recording.

Run as ``python -m repro.experiments.drift [ARTIFACT ...]``; with no
arguments it checks every known artifact present in the working
directory.  Exit 0 when everything reproduces, 1 on drift or on gates
that differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import Experiment
from repro.experiments.schema import SchemaError, load_schema, validate
from repro.telemetry import TelemetryConfig

#: artifact file name -> the experiment whose pinned cell reproduces it.
PINNED: Dict[str, Experiment] = {
    exp.bench_path: exp for exp in EXPERIMENTS if exp.pinned is not None
}


def _canon(obj) -> str:
    """The canonical JSON form both sides of every comparison use."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _diff_keys(fresh: dict, committed: dict) -> str:
    """The top-level keys whose canonical JSON differs, comma-joined."""
    return ", ".join(sorted(
        key for key in set(fresh) | set(committed)
        if _canon(fresh.get(key)) != _canon(committed.get(key))
    ))


def _compare(
    experiment: Experiment, path: Path, doc: dict, telemetry=None
) -> Tuple[bool, str]:
    cell, committed, label = experiment.pinned(doc, telemetry)
    fresh = asdict(cell)
    if telemetry is not None:
        label += f" ({telemetry.mode} telemetry)"
    if _canon(fresh) == _canon(committed):
        return True, f"{path}: ok ({label} reproduces byte-identically)"
    return False, f"{path}: DRIFT in {label}: fields differ: {_diff_keys(fresh, committed)}"


def check_gates(path: Path) -> Tuple[bool, str]:
    """Offline: schema-validate one artifact and re-evaluate its gates."""
    experiment = PINNED.get(path.name)
    if experiment is None:
        return True, f"{path}: no experiment registered, gates skipped"
    doc = json.loads(path.read_text())
    try:
        validate(doc, load_schema(experiment.schema))
    except SchemaError as err:
        return False, f"{path}: SCHEMA: {err}"
    fresh, committed = experiment.acceptance(doc), doc["acceptance"]
    if _canon(fresh) != _canon(committed):
        return False, f"{path}: GATES DIFFER: {_diff_keys(fresh, committed)}"
    return True, f"{path}: gates ok"


def check_artifact(path: Path) -> Tuple[bool, str]:
    """Re-run one artifact's pinned cell; (ok, human-readable detail).

    Experiments with ``drift_streaming`` set are re-run a second time
    through the streaming telemetry pipeline; both runs must match the
    committed (buffered-recorded) bytes.
    """
    experiment = PINNED.get(path.name)
    if experiment is None:
        return True, f"{path}: no pinned cell registered, skipped"
    doc = json.loads(path.read_text())
    ok, detail = _compare(experiment, path, doc)
    if experiment.drift_streaming:
        stream_ok, stream_detail = _compare(
            experiment, path, doc, TelemetryConfig(mode="streaming")
        )
        ok = ok and stream_ok
        detail = f"{detail}\n{stream_detail}"
    return ok, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.drift",
        description="Re-evaluate each committed benchmark artifact's gates "
        "offline, then re-run its pinned acceptance cell and fail on byte "
        "drift.",
    )
    parser.add_argument(
        "artifacts", nargs="*",
        help="artifact paths (default: every known BENCH_*.json present)",
    )
    args = parser.parse_args(argv)

    if args.artifacts:
        paths = [Path(p) for p in args.artifacts]
    else:
        paths = [Path(name) for name in sorted(PINNED) if Path(name).exists()]
        if not paths:
            print("error: no committed artifacts found in the working directory")
            return 2
    missing = [path for path in paths if not path.exists()]
    for path in missing:
        print(f"{path}: missing")
    failed = bool(missing)
    # Every artifact's offline gate check first (fast), then the re-runs.
    for check in (check_gates, check_artifact):
        for path in filter(Path.exists, paths):
            ok, detail = check(path)
            print(detail)
            failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())


__all__ = ["PINNED", "check_artifact", "check_gates", "main"]
