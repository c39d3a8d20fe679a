"""``python -m benchmarks.perf``: the three passes, and ``compare``.

    PYTHONPATH=src python -m benchmarks.perf --seed 0 --out results.json
    PYTHONPATH=src python -m benchmarks.perf micro [--layer sim]
    PYTHONPATH=src python -m benchmarks.perf trace [--workload router-100]
    PYTHONPATH=src python -m benchmarks.perf compare A.json B.json

One command runs (1) the end-to-end reps with tracing off, (2) the
per-layer micro-benchmarks and (3) one traced rep per workload, prints
every metric by name with its unit, and exits non-zero when a workload
fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.perf import compare
from benchmarks.perf.harness import host_record, run_child
from benchmarks.perf.micro import LAYERS
from benchmarks.perf.schema import SCHEMA_ID, validate
from benchmarks.perf.workloads import BY_NAME, WORKLOADS

#: ``--smoke``: a tenth of every simulated window and a token micro pass,
#: to exercise all three passes in well under a minute.
SMOKE_SIZE = 0.1
SMOKE_REPS = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", default="all",
                        choices=("all", "micro", "trace", "compare"))
    parser.add_argument("files", nargs="*", type=Path,
                        help="compare: the two results documents")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: where in its query set each client starts")
    parser.add_argument("--cluster-seed", type=int, default=0,
                        help="SimCluster seed: dataset, arrivals, kernel noise")
    parser.add_argument("--smoke", action="store_true", help="one tenth size, quick")
    parser.add_argument("--out", type=Path, help="write the results document here")
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--layer", choices=sorted(LAYERS), help="micro: one layer only")
    return parser


def _format_metric(name: str, metric: dict) -> str:
    line = f"  {name:40s} {metric['value']:>16.6g} {metric['unit']:10s} n={metric['n']}"
    if "q1" in metric:
        line += f"  q1={metric['q1']:.6g} q3={metric['q3']:.6g}"
    return line


def print_document(document: dict) -> None:
    for workload, record in document["workloads"].items():
        print(f"[{workload}]  {json.dumps(record.get('sizes', {}))}")
        for section in ("end_to_end", "per_layer"):
            for name, metric in record[section].items():
                print(_format_metric(name, metric))
        if record.get("model"):
            print(f"  {'model.digest':40s} {record['model']['digest']}")
        for problem in record["problems"]:
            print(f"  PROBLEM: {problem}")
    if document["micro"]:
        print("[micro]")
        for name, metric in document["micro"].items():
            print(_format_metric(name, metric))


def run(args) -> int:
    passes = {"all": "e2e,trace", "trace": "trace", "micro": None}[args.command]
    host = host_record()
    common = ["--seed", str(args.seed), "--cluster-seed", str(args.cluster_seed)]
    micro_effort: List[str] = []
    if args.smoke:
        common += ["--size", str(SMOKE_SIZE), "--min-reps", str(SMOKE_REPS)]
        micro_effort = ["--micro-samples", "2", "--micro-min-sample-s", "0.01"]

    workloads: Dict[str, dict] = {}
    if passes is not None:
        selected = args.workload or [w.name for w in WORKLOADS]
        for name in selected:
            print(f"running {name} ...", file=sys.stderr)
            workloads[name] = run_child(
                ["--workload", name, "--passes", passes, *common]
            )["workload"]
    micro: Dict[str, dict] = {}
    if args.command in ("all", "micro"):
        print("running micro pass ...", file=sys.stderr)
        layer = ["--layer", args.layer] if args.layer else []
        micro = run_child(["--passes", "micro", *micro_effort, *layer])["micro"]

    host["loadavg_1m_end"] = os.getloadavg()[0]
    document = {
        "schema": SCHEMA_ID,
        "host": host,
        "config": {
            "seed": args.seed,
            "cluster_seed": args.cluster_seed,
            "smoke": args.smoke,
            "command": args.command,
        },
        "workloads": workloads,
        "micro": micro,
    }
    print_document(document)
    problems = validate(document)
    for record in workloads.values():
        problems.extend(record["problems"])
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes exactly two results documents")
        return compare.main(*args.files)
    if args.files:
        parser.error(f"unexpected arguments: {[str(f) for f in args.files]}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
