"""CLI contract for ``usuite autoscale`` plus the positive-argument guard.

Every sweep that takes a duration/tick/window flag must reject
non-positive values with exit code 2 (argparse's usage-error code) —
a zero-length measurement window or an un-armable controller tick must
die at the parser, not produce a silently empty artifact.
"""

import json

import pytest

from repro.experiments.cli import main
from repro.experiments.schema import load_schema, validate


def _exit_code(argv):
    """Run the CLI, normalizing argparse's SystemExit to a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# -- usuite autoscale happy path --------------------------------------------

def test_cli_autoscale_happy_path(tmp_path, capsys):
    out_path = tmp_path / "BENCH_autoscale.json"
    exit_code = main([
        "autoscale", "--scale", "unit", "--replicas", "1", "2",
        "--duration-us", "150000", "--base-qps", "1500",
        "--tick-us", "15000", "--window-us", "15000",
        "--output", str(out_path),
    ])
    # Tiny cells need not clear the tuned acceptance gates (that is the
    # committed artifact's job) — but the sweep must run, record, and
    # stay deterministic.
    assert exit_code in (0, 1)
    out = capsys.readouterr().out
    assert "Autoscale sweep" in out
    assert "replica-seconds savings" in out
    data = json.loads(out_path.read_text())
    validate(data, load_schema("bench_autoscale.schema.json"))
    assert data["reproducibility"]["bit_identical"] is True
    assert len(data["static_grid"]) == 2
    assert data["controller"]["controller"]["ticks"] > 0
    # Static cells bill their fixed count; the controller bills its
    # admitting+draining integral.
    assert data["static_grid"][0]["replica_seconds"] == pytest.approx(0.15)
    assert data["static_grid"][1]["replica_seconds"] == pytest.approx(0.30)


def test_cli_autoscale_amplitude_out_of_range_exits_2(capsys):
    assert _exit_code(["autoscale", "--amplitude", "1.5"]) == 2
    assert "amplitude" in capsys.readouterr().err


def test_cli_autoscale_unknown_scale_exits_2(capsys):
    assert _exit_code(["autoscale", "--scale", "galactic"]) == 2
    assert "unknown scale" in capsys.readouterr().err


# -- non-positive duration/tick/window flags exit 2 everywhere --------------

@pytest.mark.parametrize("argv", [
    ["autoscale", "--tick-us", "0"],
    ["autoscale", "--tick-us", "-5"],
    ["autoscale", "--window-us", "0"],
    ["autoscale", "--duration-us", "0"],
    ["autoscale", "--base-qps", "0"],
    ["fig9", "--duration-us", "0"],
    ["fig9", "--duration-us", "-1"],
    ["faults", "--duration-us", "-100"],
    ["scale", "--duration-us", "0"],
    ["cache", "--duration-us", "-0.5"],
])
def test_cli_rejects_non_positive_windows(argv, capsys):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "must be a positive value" in err


@pytest.mark.parametrize("argv", [
    ["autoscale", "--tick-us", "banana"],
    ["scale", "--duration-us", "soon"],
])
def test_cli_rejects_non_numeric_windows(argv, capsys):
    assert _exit_code(argv) == 2
    assert "invalid float value" in capsys.readouterr().err
