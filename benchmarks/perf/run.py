"""Driver entry point: one workload, one run, one JSON line.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the result carries every end-to-end metric that
``BENCHMARK.json`` declares, measured with tracing off; with ``--trace 1``
every per-layer metric (counts from untraced reps, the traced rep's
breakdown, and the micro pass at reduced effort; that run is sized by
the work, not by ``--seconds``).  The workload itself runs in a child
interpreter (see ``harness.py``), which this process waits for.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.perf.harness import run_child

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        names = [metric["name"] for metric in declared["per_layer"]]
        # Two reps still cross-check each other's digest; the time goes to
        # the traced rep and the micro pass instead.
        child_args += [
            "--passes", "e2e,trace,micro", "--min-reps", "2",
            "--micro-samples", "3", "--micro-min-sample-s", "0.03",
        ]
    else:
        names = [metric["name"] for metric in declared["end_to_end"]]
        child_args += ["--passes", "e2e", "--seconds", str(args.seconds)]
    document = run_child(child_args)

    record = document["workload"]
    measured = {**record["end_to_end"], **record["per_layer"], **document.get("micro", {})}
    missing = [name for name in names if name not in measured]
    if missing:
        print(f"declared metrics not measured: {missing}", file=sys.stderr)
        for problem in record["problems"]:
            print(problem, file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"[{args.workload}] {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": measured[name]["value"], "unit": measured[name]["unit"]}
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
