"""§VII extension benchmark: the adaptive runtime vs static block/poll."""

from repro.experiments.figures import (
    FIGURES,
    adaptive_tracks_best,
    render,
    run_figure,
)

ADAPTIVE = FIGURES["adaptive"]


def test_ablation_adaptive(benchmark):
    results = benchmark.pedantic(
        run_figure,
        args=(ADAPTIVE, "hdsearch"),
        kwargs=dict(loads=(100.0, 4_000.0), min_queries=300),
        rounds=1,
        iterations=1,
    )
    print("\n" + render(ADAPTIVE, results))

    for variant, by_load in results.items():
        for qps, cell in by_load.items():
            assert cell.completed > 50, f"{variant}@{qps} barely completed"

    # The monitor must track the better static mode's median everywhere.
    assert adaptive_tracks_best(results, slack=1.15)
    # And at low load it must not burn polling-level CPU *forever*: the
    # adaptive epoll churn sits between the two static extremes.
    low = 100.0
    adaptive_epoll = results["adaptive"][low].syscalls_per_query["epoll_pwait"]
    polling_epoll = results["polling"][low].syscalls_per_query["epoll_pwait"]
    assert adaptive_epoll <= polling_epoll
    benchmark.extra_info["adaptive_p50_low"] = round(results["adaptive"][low].e2e.median)
