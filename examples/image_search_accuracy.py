#!/usr/bin/env python
"""HDSearch scenario: the LSH accuracy/latency trade-off.

The paper tunes HDSearch's LSH parameters "to target a sub-ms end-to-end
median response time with a minimum accuracy score of 93% across all
queries", where accuracy is the cosine similarity between the reported
nearest neighbor and brute-force ground truth.

This example walks that trade-off explicitly: it builds LSH indexes at
several selectivity points over the same image-embedding corpus, measures
each configuration's accuracy and candidate volume offline, then deploys
the auto-tuned configuration as a full service and verifies both halves
of the paper's target — accuracy ≥ 93 % *and* sub-ms median — under load.

Run:  python examples/image_search_accuracy.py
"""

import numpy as np

from repro import E2E_HIST, SCALES, SimCluster, run_open_loop

# LSH internals, imported deep on purpose: this example demonstrates the
# index tuning machinery itself, which is not stable API.
from repro.data import FeatureCorpus
from repro.services.hdsearch import LshIndex, build_hdsearch
from repro.services.hdsearch.lsh import _nn_accuracy, _squared_distances


def main() -> None:
    corpus = FeatureCorpus(n_points=8_000, dims=64, seed=3)
    queries = corpus.query_set(40)
    sq_dists = _squared_distances(corpus.vectors, queries)

    print("LSH accuracy/selectivity trade-off (8K points, 64 dims):")
    print(f"{'tables':>7} {'bits':>5} {'probes':>7} {'candidates':>11} {'accuracy':>9}")
    for tables, bits, probes in [(4, 10, 0), (8, 8, 0), (8, 6, 2), (12, 5, 4)]:
        index = LshIndex(corpus.vectors, n_leaves=4, n_tables=tables,
                         hash_bits=bits, n_probes=probes, seed=9)
        candidates = np.mean([index.candidate_count(q) for q in queries])
        signatures = [index.query_signatures(q) for q in queries]
        accuracy = _nn_accuracy(index, corpus.vectors, signatures, sq_dists)
        print(f"{tables:>7} {bits:>5} {probes:>7} {candidates:>11.0f} {accuracy:>9.3f}")

    # Deploy the auto-tuned configuration as a complete service.
    cluster = SimCluster(seed=3)
    service = build_hdsearch(cluster, SCALES["small"])
    index = service.extras["index"]
    accuracy_fn = service.extras["accuracy"]
    print(f"\nauto-tuned index: {index.n_tables} tables x {index.hash_bits} bits, "
          f"{index.n_probes} probes")

    # Offline accuracy check on the deployed pipeline (paper's >=93% bar).
    service_corpus = service.extras["corpus"]
    app = service.midtier.app
    scores = []
    for _ in range(60):
        query = service_corpus.query()
        plan = app.fanout(("query", query))
        leaf_responses = [
            service.leaves[leaf].app.handle(payload).payload
            for leaf, payload, _size in plan.subrequests
        ]
        top_k = app.merge(("query", query), leaf_responses).payload
        scores.append(accuracy_fn(query, top_k))
    mean_accuracy = float(np.mean(scores))
    print(f"deployed accuracy over 60 queries: {mean_accuracy:.3f}")
    assert mean_accuracy >= 0.93, "below the paper's accuracy bar"

    # And the latency half of the target, under load.
    result = run_open_loop(cluster, service, qps=1_000.0, duration_us=600_000)
    e2e = cluster.telemetry.hist(E2E_HIST)
    print(f"under 1K QPS: {result.completed} queries, "
          f"median={e2e.median:.0f}us, p99={e2e.percentile(99):.0f}us")
    assert e2e.median < 1_000.0, "median exceeded the sub-ms target"
    print("\nboth halves of the paper's HDSearch target hold: "
          f"accuracy {mean_accuracy:.1%} >= 93%, median {e2e.median:.0f}us < 1ms")


if __name__ == "__main__":
    main()
