"""§VII ablation benchmark: in-line vs dispatch-based processing."""

from repro.experiments.figures import (
    FIGURES,
    inline_wins_at_low_load,
    render,
    run_figure,
)

INLINE_DISPATCH = FIGURES["inline-dispatch"]


def test_ablation_inline_dispatch(benchmark):
    results = benchmark.pedantic(
        run_figure,
        args=(INLINE_DISPATCH, "hdsearch"),
        kwargs=dict(loads=(100.0, 2_000.0), min_queries=300),
        rounds=1,
        iterations=1,
    )
    print("\n" + render(INLINE_DISPATCH, results))

    for mode in ("inline", "dispatch"):
        for qps, cell in results[mode].items():
            assert cell.completed > 50

    # Paper §VII: in-line avoids the network->worker thread-hop, visible
    # directly on the mid-tier request path at low load.
    assert inline_wins_at_low_load(results)
    low_gain = (
        results["dispatch"][100.0].extras["request_path"].median
        - results["inline"][100.0].extras["request_path"].median
    )
    print(f"inline request-path median gain at 100 QPS: {low_gain:.1f}us")
    benchmark.extra_info["inline_reqpath_gain_low_load_us"] = round(low_gain, 1)
