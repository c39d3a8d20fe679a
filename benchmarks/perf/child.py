"""One workload (or the micro pass) in a fresh interpreter.

``harness.run_child`` starts this module with ``python -m``; it prints
one JSON document as its last stdout line.  A pass that raises is caught
here, at the process boundary, and reported as a failed workload with
its traceback — the parent still gets a document.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from benchmarks.perf.endtoend import MIN_REPS, run_workload
from benchmarks.perf.micro import Effort, run_micro
from benchmarks.perf.tracer import trace_workload
from benchmarks.perf.workloads import BY_NAME


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.child")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--passes", default="e2e", help="comma list of e2e,trace,micro")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cluster-seed", type=int, default=0)
    parser.add_argument("--size", type=float, default=1.0)
    parser.add_argument("--min-reps", type=int, default=MIN_REPS)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--micro-samples", type=int, default=5)
    parser.add_argument("--micro-min-sample-s", type=float, default=0.2)
    parser.add_argument("--layer")
    args = parser.parse_args(argv)
    passes = args.passes.split(",")

    document: dict = {}
    record: dict = {"end_to_end": {}, "per_layer": {}, "problems": []}
    try:
        if args.workload is not None:
            workload = BY_NAME[args.workload].sized(args.size)
            if "e2e" in passes:
                record.update(run_workload(
                    workload, args.seed, args.cluster_seed, args.workdir,
                    min_reps=args.min_reps, seconds=args.seconds,
                ))
            if "trace" in passes:
                traced = trace_workload(
                    workload, args.seed, args.cluster_seed, args.workdir
                )
                record["per_layer"].update(traced["per_layer"])
                record["problems"].extend(traced["problems"])
            document["workload"] = record
        if "micro" in passes:
            effort = Effort(args.micro_samples, args.micro_min_sample_s, args.workdir)
            document["micro"] = run_micro(effort, args.layer)
    except Exception:
        # The process boundary: report the failure instead of dying with
        # half a document.
        record["problems"].append(traceback.format_exc())
        document["workload"] = record
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
