"""Shape of the results document ``python -m benchmarks.perf`` writes.

:func:`validate` returns the list of violations (empty when the
document is well-formed); the limits on names and counts are the ones
the driver applies to ``BENCHMARK.json``.
"""

from __future__ import annotations

import math
import re
from typing import List

SCHEMA_ID = "benchmarks.perf/1"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


def _check_metric(where: str, name: str, metric, errors: List[str]) -> None:
    if not NAME.match(name):
        errors.append(f"{where}: bad metric name {name!r}")
    if not isinstance(metric, dict):
        errors.append(f"{where}.{name}: not an object")
        return
    value = metric.get("value")
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        errors.append(f"{where}.{name}: value {value!r} is not a finite number")
    if not isinstance(metric.get("unit"), str) or not UNIT.match(metric["unit"]):
        errors.append(f"{where}.{name}: bad unit {metric.get('unit')!r}")
    n = metric.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        errors.append(f"{where}.{name}: n {n!r} is not a positive count")


def validate(document: dict) -> List[str]:
    """Every way ``document`` departs from the schema."""
    errors: List[str] = []
    if document.get("schema") != SCHEMA_ID:
        errors.append(f"schema is {document.get('schema')!r}, expected {SCHEMA_ID!r}")
    for key in ("host", "config", "workloads", "micro"):
        if not isinstance(document.get(key), dict):
            errors.append(f"missing object {key!r}")
    if errors:
        return errors
    per_layer_names = set(document["micro"])
    for name, metric in document["micro"].items():
        _check_metric("micro", name, metric, errors)
    for workload, record in document["workloads"].items():
        if not NAME.match(workload):
            errors.append(f"bad workload name {workload!r}")
        for section in ("end_to_end", "per_layer"):
            for name, metric in record.get(section, {}).items():
                _check_metric(f"{workload}.{section}", name, metric, errors)
        if len(record.get("end_to_end", {})) > MAX_END_TO_END:
            errors.append(f"{workload}: more than {MAX_END_TO_END} end-to-end metrics")
        per_layer_names |= set(record.get("per_layer", {}))
        if not isinstance(record.get("problems"), list):
            errors.append(f"{workload}: problems is not a list")
    if len(per_layer_names) > MAX_PER_LAYER:
        errors.append(
            f"{len(per_layer_names)} per-layer metric names, limit {MAX_PER_LAYER}"
        )
    return errors
