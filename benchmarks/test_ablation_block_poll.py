"""§VII ablation benchmark: blocking vs polling front-end reception."""

from repro.experiments.figures import FIGURES, render, run_figure

BLOCK_POLL = FIGURES["block-poll"]


def test_ablation_block_poll(benchmark):
    results = benchmark.pedantic(
        run_figure,
        args=(BLOCK_POLL, "hdsearch"),
        kwargs=dict(loads=(100.0, 2_000.0), min_queries=300),
        rounds=1,
        iterations=1,
    )
    print("\n" + render(BLOCK_POLL, results))

    for mode in ("blocking", "polling"):
        for qps, cell in results[mode].items():
            assert cell.completed > 50, f"{mode}@{qps} barely completed"

    low = 100.0
    blocking_low = results["blocking"][low]
    polling_low = results["polling"][low]
    # Polling skips the reception wakeup path, so the low-load median drops...
    assert polling_low.e2e.median < blocking_low.e2e.median
    # ...at the cost of CPU burned in fruitless poll loops (the paper's
    # "prohibitively expensive" caveat): epoll_pwait calls explode.
    assert (
        polling_low.syscalls_per_query["epoll_pwait"]
        > 10.0 * blocking_low.syscalls_per_query["epoll_pwait"]
    )
    benchmark.extra_info["blocking_p50_low"] = round(blocking_low.e2e.median)
    benchmark.extra_info["polling_p50_low"] = round(polling_low.e2e.median)
