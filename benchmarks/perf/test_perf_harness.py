"""Self-tests of the perf harness (``pytest benchmarks/perf -q``).

Not part of the tier-1 ``testpaths``: the smoke run alone takes about
half a minute.  They check the harness, not the simulator's speed.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.perf import compare, schema
from benchmarks.perf.endtoend import run_rep
from benchmarks.perf.harness import ROOT, child_env
from benchmarks.perf.metrics import BUCKETS, END_TO_END
from benchmarks.perf.tracer import bucket_of_file
from benchmarks.perf.workloads import BY_NAME, WORKLOADS

PERF_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _python(args, **kwargs):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, **kwargs,
    )


# -- the drive measures what users run -------------------------------------

_DRIVE_VS_RUN_OPEN_LOOP = """
import json
from repro import SimCluster, build_graph, exemplar_graph, run_open_loop
from repro.loadgen import OpenLoopLoadGen
from benchmarks.perf.drive import drive

def build():
    cluster = SimCluster(seed=0)
    return cluster, build_graph(cluster, exemplar_graph(n_queries=2000))

# First generator of a fresh interpreter: run_open_loop names it client1.
cluster, handle = build()
ref = run_open_loop(cluster, handle, qps=2000.0, duration_us=60000.0,
                    warmup_us=20000.0, drain_us=50000.0)
cluster, handle = build()
gen = OpenLoopLoadGen(cluster.sim, cluster.fabric, cluster.telemetry, cluster.rng,
                      target=handle.target_address, source=handle.make_source(),
                      qps=2000.0, name="client1")
own = drive(cluster, gen, 20000.0, 60000.0, 50000.0)
print(json.dumps({
    "ref": [ref.sent, ref.completed, ref.e2e.percentile(50), ref.e2e.percentile(99)],
    "own": [own.window_sent, own.window_completed,
            own.e2e.percentile(50), own.e2e.percentile(99)],
}))
"""


def test_drive_equals_run_open_loop_on_the_same_seed():
    done = _python(["-c", _DRIVE_VS_RUN_OPEN_LOOP])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["ref"][0] > 50
    assert result["own"] == result["ref"]


# -- determinism without private state ---------------------------------------


def test_same_seed_repeats_and_other_seeds_change_the_digest(tmp_path):
    workload = BY_NAME["socialnet-2k"].sized(0.1)
    first = run_rep(workload, 0, 0, tmp_path)
    again = run_rep(workload, 0, 0, tmp_path)
    other_input = run_rep(workload, 1, 0, tmp_path)
    other_cluster = run_rep(workload, 0, 1, tmp_path)
    assert first.digest == again.digest
    assert first.events_per_query == again.events_per_query
    assert first.failed == 0
    assert other_input.digest != first.digest
    assert other_cluster.digest != first.digest


# -- smoke: all three passes, schema, sizing ---------------------------------


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    started = time.perf_counter()
    done = _python(["-m", "benchmarks.perf", "--smoke", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(out.read_text()), done.stdout, elapsed


def test_smoke_runs_all_passes_inside_a_minute(smoke_document):
    document, _stdout, elapsed = smoke_document
    assert elapsed < 60.0
    assert set(document["workloads"]) == {w.name for w in WORKLOADS}
    assert document["micro"]
    for key in ("nproc", "loadavg_1m_start", "loadavg_1m_end", "python", "numpy"):
        assert key in document["host"]


def test_smoke_document_validates_against_the_schema(smoke_document):
    document, _stdout, _elapsed = smoke_document
    assert schema.validate(document) == []
    broken = copy.deepcopy(document)
    broken["micro"]["bad name!"] = {"value": float("nan"), "unit": "", "n": 0}
    assert len(schema.validate(broken)) >= 4


def test_every_metric_is_printed_by_name_with_its_unit(smoke_document):
    document, stdout, _elapsed = smoke_document
    for record in document["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            for name, metric in record[section].items():
                assert any(
                    line.split()[:1] == [name] and metric["unit"] in line
                    for line in stdout.splitlines()
                ), name


def test_workload_checks_hold(smoke_document):
    document, _stdout, _elapsed = smoke_document
    for name, record in document["workloads"].items():
        assert record["problems"] == [], name
        assert record["end_to_end"]["failed_share"]["value"] == 0.0
        events = record["end_to_end"]["events_per_query"]
        assert events["q1"] == events["q3"] == events["value"], name
        shares = [
            metric["value"] for key, metric in record["per_layer"].items()
            if key.endswith(".self_share")
        ]
        assert len(shares) == len(BUCKETS)
        assert abs(sum(shares) - 1.0) <= 0.01, name


def test_micro_metrics_are_positive_and_finite(smoke_document):
    document, _stdout, _elapsed = smoke_document
    for name, metric in document["micro"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0.0, name


def test_measured_names_are_the_declared_ones(smoke_document):
    document, _stdout, _elapsed = smoke_document
    record = next(iter(document["workloads"].values()))
    measured_per_layer = set(record["per_layer"]) | set(document["micro"])
    assert measured_per_layer == {m["name"] for m in DECLARED["per_layer"]}
    declared_e2e = {m["name"] for m in DECLARED["end_to_end"]}
    assert declared_e2e == set(record["end_to_end"]) - {"failed_share"}
    for metric in DECLARED["end_to_end"]:
        spec = END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (
            spec.unit, spec.better, spec.bound,
        )


# -- the committed output answers the roadmap's question ----------------------


def test_committed_baseline_is_valid_and_shows_the_contrast():
    baseline = json.loads((PERF_DIR / "BASELINE.json").read_text())
    assert schema.validate(baseline) == []
    assert baseline["config"]["smoke"] is False
    events = {}
    for name, record in baseline["workloads"].items():
        assert record["problems"] == [], name
        assert record["end_to_end"]["failed_share"]["value"] == 0.0
        assert record["reps"] >= 5
        assert "trace.overhead_ratio" in record["per_layer"]
        events[name] = record["end_to_end"]["events_per_query"]["value"]
    assert set(events) == {w.name for w in WORKLOADS}
    # The contrast router-100 exists for.
    assert events["router-100"] >= 5.0 * events["hdsearch-10k"]


# -- BENCHMARK.json meets the driver's limits --------------------------------


def test_benchmark_json_is_inside_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARED["paths"] == ["benchmarks/perf"]
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(DECLARED["end_to_end"]) <= schema.MAX_END_TO_END
    assert 1 <= len(DECLARED["per_layer"]) <= schema.MAX_PER_LAYER
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert schema.NAME.match(metric["name"]) and schema.UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 <= metric["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert 1 <= DECLARED["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


# -- the driver entry point ----------------------------------------------------


def test_driver_entry_prints_one_result_line():
    done = _python([
        str(PERF_DIR / "run.py"), "--workload", "socialnet-2k", "--seed", "4",
        "--seconds", "1", "--trace", "0",
    ])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    for metric in result["metrics"].values():
        assert metric["value"] > 0.0


def test_driver_entry_refuses_a_directory_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF_DIR, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "router-100",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- compare -------------------------------------------------------------------


def _verdicts(doc_a, doc_b):
    rows, mismatches = compare.compare(doc_a, doc_b)
    return {(row[0], row[1]): row[-1] for row in rows}, mismatches


def test_compare_verdicts(smoke_document, tmp_path, capsys):
    document, _stdout, _elapsed = smoke_document
    verdicts, mismatches = _verdicts(document, document)
    assert mismatches == []
    # The smoke run's three short reps can be wider than the bound, which
    # compare must call unresolved rather than same.
    assert set(verdicts.values()) <= {"same", "unresolved"}

    def tight(doc):
        doc = copy.deepcopy(doc)
        for record in doc["workloads"].values():
            for metric in record["end_to_end"].values():
                if "q1" in metric:
                    metric["q1"] = metric["q3"] = metric["value"]
        return doc

    base = tight(document)
    assert set(_verdicts(base, base)[0].values()) == {"same"}

    slower = copy.deepcopy(base)
    wall = slower["workloads"]["router-100"]["end_to_end"]["wall_s_per_kquery"]
    wall["value"] = wall["q1"] = wall["q3"] = wall["value"] * 1.8
    verdicts, _ = _verdicts(base, slower)
    assert verdicts[("router-100", "wall_s_per_kquery")] == "worse"
    assert _verdicts(slower, base)[0][("router-100", "wall_s_per_kquery")] == "better"

    noisy = copy.deepcopy(slower)
    wall = noisy["workloads"]["router-100"]["end_to_end"]["wall_s_per_kquery"]
    wall["q3"] = wall["value"] * 1.8
    assert _verdicts(base, noisy)[0][("router-100", "wall_s_per_kquery")] == "unresolved"

    more_events = copy.deepcopy(base)
    events = more_events["workloads"]["hdsearch-10k"]["end_to_end"]["events_per_query"]
    events["value"] += 1e-9
    more_events["workloads"]["hdsearch-10k"]["model"]["digest"] = "0" * 64
    verdicts, mismatches = _verdicts(base, more_events)
    assert verdicts[("hdsearch-10k", "events_per_query")] == "worse"
    assert any("model.digest" in m for m in mismatches)
    assert any("events_per_query" in m for m in mismatches)

    other_seed = copy.deepcopy(more_events)
    other_seed["config"]["seed"] = 7
    verdicts, mismatches = _verdicts(base, other_seed)
    assert mismatches is None
    assert verdicts[("hdsearch-10k", "events_per_query")] == "same"

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(base))
    path_b.write_text(json.dumps(slower))
    assert compare.main(path_a, path_a) == 0
    assert compare.main(path_a, path_b) == 1
    assert "worse" in capsys.readouterr().out


# -- tracer buckets -------------------------------------------------------------


def test_files_map_to_their_layer_bucket():
    import repro

    src = Path(repro.__file__).parent

    def bucket(relative):
        return BUCKETS[bucket_of_file(str(src / relative))]

    assert bucket("sim/core.py") == "sim"
    assert bucket("kernel/scheduler.py") == "kernel.scheduler"
    assert bucket("kernel/config.py") == "kernel.other"
    assert bucket("rpc/server.py") == "rpc.server"
    assert bucket("rpc/message.py") == "rpc.other"
    assert bucket("telemetry/stream.py") == "telemetry.stream"
    assert bucket("services/hdsearch/lsh.py") == "services"
    assert bucket("midcache.py") == "midcache"
    assert bucket("experiments/cli.py") == "host.other"
    assert BUCKETS[bucket_of_file("/usr/lib/python3/heapq.py")] == "host.other"
    assert BUCKETS[bucket_of_file(__file__)] == "host.other"
