"""Smoke tests: the ``usuite`` CLI runs end to end at unit scale.

The sweeps' happy paths (one tiny ``--output`` run each, stdout and
artifact pinned byte for byte) are rows of
``tests/test_artifact_experiments.py``; this module keeps the figure
commands, the usage errors and the malformed-artifact rejections.
"""

import pytest

from repro.experiments.cli import main
from repro.experiments.schema import SchemaError, load_schema, validate


def test_cli_fig9_single_service(capsys):
    exit_code = main([
        "fig9", "--scale", "unit", "--services", "hdsearch",
        "--duration-us", "100000",
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Fig. 9" in out
    assert "hdsearch" in out
    assert "measured QPS" in out


def test_cli_fig10_single_cell(capsys):
    exit_code = main([
        "fig10", "--scale", "unit", "--services", "router",
        "--loads", "300", "--min-queries", "60",
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Fig. 10" in out
    assert "router" in out
    assert "p99 us" in out


def test_cli_syscalls_single_cell(capsys):
    exit_code = main([
        "syscalls", "--scale", "unit", "--services", "setalgebra",
        "--loads", "300", "--min-queries", "60",
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "futex" in out
    assert "Fig. 13" in out


def test_cli_overheads_single_cell(capsys):
    exit_code = main([
        "overheads", "--scale", "unit", "--services", "recommend",
        "--loads", "300", "--min-queries", "60",
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "active_exe" in out
    assert "retransmissions" in out


def test_cli_scale_unknown_policy_exits_2(capsys):
    exit_code = main(["scale", "--policies", "zigzag"])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "unknown load-balancing policy" in err
    assert "zigzag" in err
    assert "round-robin" in err  # the message lists the valid choices


def test_scale_schema_rejects_malformed_artifact():
    schema = load_schema("bench_scale.schema.json")
    with pytest.raises(SchemaError, match="missing required property"):
        validate({"benchmark": "truncated"}, schema)
    # Wrong-typed cell entries are also rejected, not silently accepted.
    with pytest.raises(SchemaError):
        validate(
            {
                "benchmark": "b", "service": "hdsearch", "scale": "unit",
                "seed": 0,
                "cells": [{"replicas": "three", "policy": "rr",
                           "saturation_qps": 1.0, "loads": []}],
                "reproducibility": {"replicas": 1, "policy": "direct",
                                    "qps": 1.0, "bit_identical": True},
                "acceptance": {"pass": True},
            },
            schema,
        )


# -- non-positive loads and replica counts exit 2 everywhere ----------------

@pytest.mark.parametrize("argv", [
    ["fig10", "--loads", "0"],
    ["syscalls", "--loads", "100", "0"],
    ["block-poll", "--loads", "-1"],
    ["poolsize", "--qps", "0"],
    ["sweep", "--loads", "-5"],
    ["headline", "--loads", "0"],
    ["faults", "--qps", "0"],
    ["cache", "--loads", "0"],
    ["trace", "--loads", "0"],
    ["scale", "--loads", "0"],
    ["graph", "--qps", "0"],
    ["energy", "--qps", "0"],
])
def test_cli_rejects_non_positive_loads(argv, capsys):
    # Parent: a traceback — ZeroDivisionError in default_duration_us or a
    # bare ValueError from the load generator — for all but graph and
    # energy, whose run guards already turned a zero rate into exit 2.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "must be a positive value" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0", "-2"])
def test_cli_scale_rejects_non_positive_replicas(bad, capsys):
    # Parent: IndexError on ``self.runtimes[0]`` inside suite/cluster.py.
    with pytest.raises(SystemExit) as excinfo:
        main(["scale", "--scale", "unit", "--replicas", bad])
    assert excinfo.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


# -- usuite cache -----------------------------------------------------------

def test_cli_cache_unknown_policy_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "--policy", "bogus"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert "bogus" in err
    assert "lru" in err and "fifo" in err  # the valid choices are listed


def test_cli_cache_bad_capacity_exits_2(capsys):
    for bad in ("0", "-5", "abc"):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--capacity", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "invalid int value" in err


def test_cli_cache_bad_batch_size_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "--batch-sizes", "0"])
    assert excinfo.value.code == 2
    assert "positive integer" in capsys.readouterr().err


# -- usuite trace -----------------------------------------------------------

def test_cli_trace_unknown_scale_exits_2(capsys):
    exit_code = main(["trace", "--scale", "zeppelin"])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "unknown scale" in err
    assert "zeppelin" in err
    assert "unit" in err  # the message lists the valid choices


def test_cli_trace_bad_sample_every_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--sample-every", "0"])
    assert excinfo.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_trace_schema_rejects_malformed_artifact():
    schema = load_schema("bench_trace.schema.json")
    with pytest.raises(SchemaError, match="missing required property"):
        validate({"benchmark": "truncated"}, schema)
    with pytest.raises(SchemaError):
        validate(
            {
                "benchmark": "trace", "scale": "unit", "seed": 0,
                "queries_per_cell": 150, "sample_every": 1,
                "categories": ["hardirq", "net_rx", "net_tx", "active_exe",
                               "queue_dwell", "net", "leaf_compute",
                               "app_compute"],
                "cells": [{"service": "hdsearch", "qps": "fast"}],
                "reproducibility": {"service": "hdsearch", "qps": 1.0,
                                    "bit_identical": True},
                "acceptance": {"pass": True},
            },
            schema,
        )


def test_cache_schema_rejects_malformed_artifact():
    schema = load_schema("bench_cache.schema.json")
    with pytest.raises(SchemaError, match="missing required property"):
        validate({"benchmark": "truncated"}, schema)
    # Wrong-typed cells are rejected, not silently accepted.
    with pytest.raises(SchemaError):
        validate(
            {
                "benchmark": "cache", "scale": "unit", "seed": 0,
                "cells": [{"service": "hdsearch", "batch_max": "eight",
                           "cache_capacity": 0, "saturation_qps": 0.0,
                           "loads": []}],
                "reproducibility": {"service": "hdsearch", "qps": 1.0,
                                    "bit_identical": True},
                "acceptance": {"pass": True, "headline_win": True,
                               "futex_strictly_lower_everywhere": True,
                               "bit_reproducible": True},
            },
            schema,
        )


def test_cli_graph_rejects_bad_params(capsys):
    # Too few queries for a usable p99 -> UsageError -> exit 2.
    assert main(["graph", "--queries", "50"]) == 2
    assert "queries" in capsys.readouterr().err
    # Intensity outside (0, 1] -> exit 2.
    assert main(["graph", "--intensity", "1.5"]) == 2
    assert "intensity" in capsys.readouterr().err
    # A zero low-load rate reaches the guard instead of silently running
    # the default (--qps itself is rejected by the flag vocabulary, below).
    assert main(["energy", "--lowload-qps", "0"]) == 2
    assert "qps" in capsys.readouterr().err


def test_graph_schema_rejects_malformed_artifact():
    schema = load_schema("bench_graph.schema.json")
    with pytest.raises(SchemaError, match="missing required property"):
        validate({"benchmark": "truncated"}, schema)
