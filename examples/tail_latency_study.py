#!/usr/bin/env python
"""OS-tuning scenario: what the mid-tier's tail latency is made of.

The paper's conclusion is that sub-ms microservices live or die on
OS-level decisions that monoliths never noticed.  This example runs the
three studies its §VII proposes, on one service (Set Algebra, whose
mid-tier work is smallest and therefore most OS-dominated):

1. **scheduler placement** — wake-affinity vs worst-fit at high load
   (the paper's headline: non-optimal decisions degrade tails ~87 %);
2. **blocking vs polling** reception at low and high load;
3. **thread-pool sizing** — too few workers starve, too many contend.

Run:  python examples/tail_latency_study.py   (takes a few minutes)
"""

from repro.experiments.figures import (
    FIGURES,
    best_pool_size,
    pool_sizes,
    render,
    run_figure,
)
from repro.experiments.sched_policy_ab import (
    midtier_tail_degradation,
    run_policy_ab,
)

SERVICE = "setalgebra"


def main() -> None:
    # 1. Scheduler placement A/B at high load.
    print(f"[1/3] scheduler placement A/B ({SERVICE} @ 10K QPS)")
    ab = run_policy_ab(SERVICE, qps=10_000.0, min_queries=800)
    for policy, cell in ab.items():
        print(f"  {policy:>13}: mid-tier p99={cell.midtier_latency.percentile(99):6.0f}us  "
              f"Active-Exe p99={cell.overheads['active_exe'].percentile(99):6.0f}us")
    degradation = midtier_tail_degradation(ab)
    print(f"  -> non-optimal placement degrades the mid-tier tail by "
          f"{100 * degradation:.0f}%")

    # 2. Blocking vs polling reception.
    print(f"\n[2/3] blocking vs polling reception ({SERVICE})")
    block_poll = FIGURES["block-poll"]
    bp = run_figure(block_poll, SERVICE, loads=(200.0, 5_000.0), min_queries=400)
    print(render(block_poll, bp))
    print("  -> polling trades futex wakeups for burned CPU; the paper "
          "suggests switching dynamically")

    # 3. Worker pool sweep.
    print(f"\n[3/3] worker-pool sizing ({SERVICE} @ 5K QPS)")
    poolsize = FIGURES["poolsize"]
    sweep = run_figure(poolsize, SERVICE, loads=5_000.0, min_queries=500,
                       runtimes=pool_sizes((1, 4, 16, 48)))
    print(render(poolsize, sweep))
    print(f"  -> best pool: {best_pool_size(sweep)} workers "
          "(bigger pools buy no latency, only futex/HITM contention)")


if __name__ == "__main__":
    main()
