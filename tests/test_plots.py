"""Tests for the terminal distribution rendering."""

from hypothesis import given, settings, strategies as st

from repro.experiments.plots import quantile_strip, render_distributions


def test_quantile_strip_markers():
    samples = list(range(1, 1002))
    strip = quantile_strip(samples, width=40)
    assert len(strip) == 40
    assert strip[0] == "|" and strip[-1] == "|"
    assert "#" in strip and "=" in strip


def test_quantile_strip_degenerate():
    assert quantile_strip([]) == "(no samples)"
    assert "#" in quantile_strip([5.0])


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=200),
       st.integers(min_value=10, max_value=80))
@settings(max_examples=60, deadline=None)
def test_quantile_strip_always_fits_width(samples, width):
    strip = quantile_strip(samples, width=width)
    assert len(strip) == width
    assert strip.count("#") == 1


def test_render_distributions_aligned_rows():
    out = render_distributions({
        "hardirq": [1.0, 2.0, 3.0],
        "active_exe": [10.0, 50.0, 400.0],
    })
    lines = out.splitlines()
    assert len(lines) == 2
    assert "p50=" in lines[0] and "p99=" in lines[1]
    # Labels right-aligned to the same column.
    assert lines[0].index(" |") == lines[1].index(" |")
