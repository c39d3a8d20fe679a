#!/usr/bin/env python
"""The complete HDSearch user journey, front end included (paper Fig. 2).

The paper describes — but does not study — HDSearch's presentation tier:
a web app accepts a query image, a Redis instance caches image →
feature-vector mappings, Inception V3 extracts features on a miss, the
back end (the paper's object of study) returns k-NN image IDs, and a
second Redis instance maps IDs to URLs for the response page.

This example runs that whole journey on the simulated cluster, with a
sampled distributed trace showing where a query's time goes, and
demonstrates why the paper's front-end caches exist: repeat queries skip
the ~40 ms extraction entirely.

Run:  python examples/frontend_pipeline.py
"""

import numpy as np

from repro import SCALES, SimCluster, build_service

# The presentation tier is a demo-only extra, not stable API.
from repro.services.frontend.hdsearch_frontend import build_frontend


def main() -> None:
    cluster = SimCluster(seed=21)
    service = build_service("hdsearch", cluster, SCALES["small"])
    frontend = build_frontend(cluster, service)
    print("three tiers up: front end (web app + 2 Redis instances) -> "
          f"mid-tier ({service.midtier_name}) -> {len(service.leaves)} leaves")

    rng = np.random.default_rng(5)
    images = [rng.integers(0, 256, size=2048, dtype=np.uint8).tobytes()
              for _ in range(6)]

    # A burst of distinct user queries: every one pays feature extraction.
    for index, image in enumerate(images):
        frontend.machine.spawn(f"user{index}", frontend.submit_query(image))
    cluster.run(until=cluster.sim.now + 500_000)
    print(f"\n[cold] {frontend.stats.pages_built} pages built, "
          f"{frontend.stats.cache_misses} extractions, "
          f"cache hit rate {frontend.hit_rate():.0%}")
    cold_latency = np.median([p['latency_us'] for p in frontend.pages])
    print(f"[cold] median page latency: {cold_latency / 1000:.1f} ms "
          "(dominated by Inception-V3-scale extraction)")

    # The same users search the same images again: the vector cache hits.
    pages_before = frontend.stats.pages_built
    for index, image in enumerate(images):
        frontend.machine.spawn(f"repeat{index}", frontend.submit_query(image))
    cluster.run(until=cluster.sim.now + 500_000)
    warm_pages = frontend.pages[pages_before:]
    warm_latency = np.median([p["latency_us"] for p in warm_pages])
    print(f"\n[warm] cache hit rate {frontend.hit_rate():.0%}, "
          f"median page latency {warm_latency:.0f} us "
          f"({cold_latency / warm_latency:.0f}x faster than cold)")

    # Show one response page the way the web app would render it.
    page = warm_pages[0]
    print("\nresponse page (top matches):")
    for row in page["results"][:5]:
        print(f"  dist={row['distance']:.3f}  {row['url']}")

    assert frontend.hit_rate() >= 0.5
    assert warm_latency < cold_latency / 5
    print("\nfront-end pipeline verified: caching removes the extraction "
          "cost, exactly why the paper's Fig. 2 has a Redis cache")


if __name__ == "__main__":
    main()
