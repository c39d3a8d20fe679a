"""``python -m benchmarks.perf compare A.json B.json``.

One row per (workload, end-to-end metric): both medians with quartiles,
the change from A to B with A as its base, and a verdict —

* ``same``: within the metric's bound (for ``setup_s``, the bound or
  0.05 s, whichever is larger);
* ``worse`` / ``better``: beyond it;
* ``unresolved``: either side's inter-quartile spread exceeds the bound,
  so the runs cannot tell.

When both documents were produced from the same seeds and sizes, every
deterministic value (``events_per_query``, ``failed_share``, all
``model.*``, ``*_per_query`` and ``trace.*.calls_per_query``, and
``model.digest``) must be bit-equal; a deterministic end-to-end metric is
then judged by strict comparison instead of its bound.  The exit code is
non-zero on any ``worse`` or on a deterministic mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from benchmarks.perf.metrics import END_TO_END


def _verdict(name: str, a: dict, b: dict, same_inputs: bool) -> str:
    spec = END_TO_END[name]
    sign = 1.0 if spec.better == "lower" else -1.0
    change = sign * (b["value"] - a["value"])
    if spec.exact and same_inputs:
        return "same" if change == 0 else ("worse" if change > 0 else "better")
    for side in (a, b):
        allowed = max(spec.bound * abs(side["value"]), spec.floor)
        if "q1" in side and side["q3"] - side["q1"] > allowed:
            return "unresolved"
    allowed = max(spec.bound * abs(a["value"]), spec.floor)
    if change > allowed:
        return "worse"
    return "better" if change < -allowed else "same"


def _quartiles(metric: dict) -> str:
    if "q1" not in metric:
        return f"n={metric['n']}"
    return f"[{metric['q1']:.4g}, {metric['q3']:.4g}] n={metric['n']}"


def _exact_mismatches(where: str, a: dict, b: dict) -> List[str]:
    out = []
    for name in sorted(set(a) & set(b)):
        if a[name].get("exact") and a[name]["value"] != b[name]["value"]:
            out.append(f"{where} {name}: {a[name]['value']!r} != {b[name]['value']!r}")
    return out


def compare(doc_a: dict, doc_b: dict) -> tuple:
    """``(rows, mismatches)``: table rows as lists of strings, and the
    deterministic values that differ between same-input documents
    (None when the inputs differ, so nothing could be checked)."""
    rows: List[List[str]] = []
    mismatches: List[str] = []
    inputs_a, inputs_b = doc_a["config"], doc_b["config"]
    seeds_match = all(
        inputs_a[key] == inputs_b[key] for key in ("seed", "cluster_seed", "smoke")
    )
    for workload in doc_a["workloads"]:
        if workload not in doc_b["workloads"]:
            continue
        rec_a, rec_b = doc_a["workloads"][workload], doc_b["workloads"][workload]
        same_inputs = seeds_match and rec_a.get("sizes") == rec_b.get("sizes")
        for name in END_TO_END:
            a, b = rec_a["end_to_end"].get(name), rec_b["end_to_end"].get(name)
            if a is None or b is None:
                continue
            base = a["value"]
            delta = f"{100.0 * (b['value'] - base) / base:+.2f}% of {base:.6g}" if base else "-"
            rows.append([
                workload, name, a["unit"],
                f"{a['value']:.6g}", _quartiles(a),
                f"{b['value']:.6g}", _quartiles(b),
                delta, _verdict(name, a, b, same_inputs),
            ])
        if same_inputs:
            for section in ("end_to_end", "per_layer"):
                mismatches += _exact_mismatches(
                    f"[{workload}]", rec_a[section], rec_b[section]
                )
            digest_a = rec_a.get("model", {}).get("digest")
            digest_b = rec_b.get("model", {}).get("digest")
            if digest_a != digest_b:
                mismatches.append(f"[{workload}] model.digest: {digest_a} != {digest_b}")
    if not seeds_match:
        return rows, None
    mismatches += _exact_mismatches("[micro]", doc_a["micro"], doc_b["micro"])
    return rows, mismatches


def main(path_a: Path, path_b: Path) -> int:
    doc_a = json.loads(path_a.read_text())
    doc_b = json.loads(path_b.read_text())
    rows, mismatches = compare(doc_a, doc_b)
    header = ["workload", "metric", "unit", "A median", "A quartiles",
              "B median", "B quartiles", "change (base A)", "verdict"]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    if mismatches is None:
        print("deterministic values: not compared (seeds or sizes differ)")
    elif mismatches:
        for mismatch in mismatches:
            print(f"DETERMINISTIC MISMATCH {mismatch}")
    else:
        print("deterministic values: all equal")
    worse = [row for row in rows if row[-1] == "worse"]
    return 1 if worse or mismatches else 0
