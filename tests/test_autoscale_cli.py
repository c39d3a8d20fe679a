"""Usage errors of ``usuite autoscale`` plus the positive-argument guard
(its happy path is a row of ``tests/test_artifact_experiments.py``).

Every sweep that takes a duration/tick/window flag must reject
non-positive values with exit code 2 (argparse's usage-error code) —
a zero-length measurement window or an un-armable controller tick must
die at the parser, not produce a silently empty artifact.
"""

import pytest

from repro.experiments.cli import main


def _exit_code(argv):
    """Run the CLI, normalizing argparse's SystemExit to a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
