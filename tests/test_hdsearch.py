"""Tests for HDSearch: LSH index quality plus the full service."""

import numpy as np
import pytest

from repro.data import FeatureCorpus
from repro.services.hdsearch import LshIndex, build_hdsearch, lsh, tune_lsh
from repro.services.hdsearch.service import HdSearchLeafApp, HdSearchMidTierApp
from repro.services.costmodel import LinearCost
from repro.suite import SCALES, SimCluster
from repro.suite.cluster import run_open_loop


def _corpus(n=800, dims=32, seed=0):
    return FeatureCorpus(n_points=n, dims=dims, seed=seed)


def test_lsh_index_covers_all_points():
    corpus = _corpus()
    index = LshIndex(corpus.vectors, n_leaves=4, n_tables=4, hash_bits=8)
    assert len(index.buckets) == 4
    for table_index, buckets in enumerate(index.buckets):
        signatures = index._signatures(table_index, corpus.vectors)
        for signature, ids in buckets.items():
            assert ids.dtype == np.int64 and ids.size
            assert np.all(np.diff(ids) > 0)
            assert np.all(signatures[ids] == signature)
        # Every point sits in exactly one bucket of every table.
        every = np.sort(np.concatenate(list(buckets.values())))
        assert np.array_equal(every, np.arange(corpus.n_points))


def test_lsh_candidates_respect_leaf_sharding():
    corpus = _corpus()
    index = LshIndex(corpus.vectors, n_leaves=3, seed=1)
    per_leaf = index.candidates(corpus.query())
    assert per_leaf and list(per_leaf) == sorted(per_leaf)
    for leaf, ids in per_leaf.items():
        assert ids.dtype == np.int64 and ids.size
        assert np.all(ids % 3 == leaf)
        assert np.all(np.diff(ids) > 0)


def test_lsh_recall_near_point_query():
    """An LSH probe for a barely-perturbed corpus point must find it."""
    corpus = _corpus(n=1200, dims=32, seed=2)
    index = LshIndex(corpus.vectors, n_leaves=4, n_tables=10, hash_bits=10,
                     n_probes=3, seed=3)
    hits = 0
    trials = 60
    for point in range(trials):
        query = corpus.query(near_point=point, spread=0.02)
        candidates = index.candidates(query)
        all_ids = {pid for ids in candidates.values() for pid in ids}
        if point in all_ids:
            hits += 1
    assert hits / trials > 0.9


def test_lsh_prunes_search_space():
    corpus = _corpus(n=2000, dims=32, seed=4)
    index = LshIndex(corpus.vectors, n_leaves=4, n_tables=6, hash_bits=12, seed=5)
    counts = [index.candidate_count(corpus.query()) for _ in range(30)]
    # Candidates must be far fewer than a brute-force scan of 2000 points.
    assert max(counts) < 2000 * 0.8
    assert np.mean(counts) < 2000 * 0.5


def test_lsh_validates_args():
    corpus = _corpus(n=50)
    with pytest.raises(ValueError):
        LshIndex(corpus.vectors, n_leaves=0)
    with pytest.raises(ValueError):
        LshIndex(corpus.vectors, n_leaves=2, hash_bits=0)
    with pytest.raises(ValueError):
        LshIndex(corpus.vectors[0], n_leaves=2)
    with pytest.raises(ValueError, match="n_tables"):
        LshIndex(corpus.vectors, n_leaves=2, n_tables=0)
    with pytest.raises(ValueError, match="n_probes"):
        LshIndex(corpus.vectors, n_leaves=2, n_probes=-1)


def _reference_tables(index, vectors):
    """The per-point table build the numpy one replaced: per table,
    signature -> {leaf: ascending point ids}."""
    tables = []
    for table_index in range(index.n_tables):
        table = {}
        signatures = index._signatures(table_index, vectors)
        for point_id, signature in enumerate(signatures):
            bucket = table.setdefault(int(signature), {})
            bucket.setdefault(point_id % index.n_leaves, []).append(point_id)
        tables.append(table)
    return tables


def _reference_candidates(index, tables, query):
    """Per leaf, the sorted union of the query's probe buckets over
    ``tables``: each table's base bucket (a one-row product) plus its
    first ``n_probes`` Hamming-1 neighbours."""
    per_leaf = {}
    for table_index, table in enumerate(tables):
        base = int(index._signatures(table_index, query[None, :])[0])
        probes = [base] + [base ^ (1 << bit)
                           for bit in range(min(index.n_probes, index.hash_bits))]
        for probe in probes:
            for leaf, ids in table.get(probe, {}).items():
                per_leaf.setdefault(leaf, set()).update(ids)
    return {leaf: sorted(ids) for leaf, ids in sorted(per_leaf.items())}


def _assert_buckets_match(index, tables):
    """Per (signature, leaf), the index's bucket map holds the reference
    table's ascending ids."""
    assert len(index.buckets) == len(tables) == index.n_tables
    for buckets, table in zip(index.buckets, tables):
        assert set(buckets) == set(table)
        for signature, by_leaf in table.items():
            ids = buckets[signature]
            assert ids.dtype == np.int64
            for leaf in range(index.n_leaves):
                assert ids[ids % index.n_leaves == leaf].tolist() == by_leaf.get(leaf, [])


def _reference_tune(vectors, n_leaves, queries, target_accuracy, seed):
    """The tuner before it scored from bucket maps: a full index per
    configuration, its candidates gathered from the per-point reference
    tables.  Returns the (bits, tables, probes, accuracy) tried, the index
    chosen and its reference tables."""
    true_nn = []
    for query in queries:
        diffs = vectors - query[None, :]
        true_nn.append(int(np.argmin(np.einsum("ij,ij->i", diffs, diffs))))
    n_points = vectors.shape[0]
    max_bits = max(2, int(np.log2(max(n_points / 25.0, 4.0))))
    configs = sorted(
        (tables * (probes + 1) * n_points / (1 << bits), bits, tables, probes)
        for bits in range(max_bits, 1, -1)
        for tables in (4, 8, 12)
        for probes in (0, 2, 4)
    )
    tried, fallback = [], None
    for _expected, bits, tables, probes in configs:
        index = LshIndex(vectors, n_leaves, tables, bits, probes, seed)
        reference = _reference_tables(index, vectors)
        scores = []
        for query, truth in zip(queries, true_nn):
            per_leaf = _reference_candidates(index, reference, query)
            ids = [pid for leaf_ids in per_leaf.values() for pid in leaf_ids]
            if not ids:
                scores.append(0.0)
                continue
            diffs = vectors[ids] - query[None, :]
            best = ids[int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))]
            a, b = vectors[best], vectors[truth]
            denom = np.linalg.norm(a) * np.linalg.norm(b)
            scores.append(float(a @ b / denom) if denom else 0.0)
        accuracy = float(np.mean(scores))
        tried.append((bits, tables, probes, accuracy))
        if accuracy >= target_accuracy:
            return tried, index, reference
        if fallback is None or accuracy > fallback[1]:
            fallback = (index, accuracy, reference)
    return tried, fallback[0], fallback[2]


def _shipped_tune(monkeypatch, vectors, n_leaves, queries, target_accuracy, seed):
    tried = []
    score = lsh._nn_accuracy

    def recorded(index, *args):
        accuracy = score(index, *args)
        tried.append((index.hash_bits, index.n_tables, index.n_probes, accuracy))
        return accuracy

    monkeypatch.setattr(lsh, "_nn_accuracy", recorded)
    index = tune_lsh(vectors, n_leaves, queries, target_accuracy, seed)
    monkeypatch.undo()
    return tried, index


@pytest.mark.parametrize("seed,target", [(0, 0.96), (1, 0.96), (2, 0.96), (0, 1.01)])
def test_tuner_matches_the_per_index_reference(monkeypatch, seed, target):
    """Every configuration scores bit-identically to a full index scored
    from the per-point reference tables, and the chosen index (or, at an
    unreachable target, the fallback) is the same one, bucket for bucket."""
    scale = SCALES["unit"]
    corpus = FeatureCorpus(n_points=scale.hds_points, dims=scale.hds_dims, seed=seed)
    queries = corpus.query_set(60)
    args = (corpus.vectors, scale.topology.n_leaves, queries, target, seed + 1)
    want_tried, want, want_tables = _reference_tune(*args)
    got_tried, got = _shipped_tune(monkeypatch, *args)
    assert repr(got_tried) == repr(want_tried)
    if target > 1:  # every configuration tried, then the fallback
        assert len(got_tried) == 36
    assert (got.hash_bits, got.n_tables, got.n_probes) == (
        want.hash_bits, want.n_tables, want.n_probes)
    assert all(np.array_equal(a, b) for a, b in zip(got._planes, want._planes))
    _assert_buckets_match(got, want_tables)


def _reference_leaf_payload(leaf, query_vec, ids, k):
    """The leaf's distance kernel as it was: list ids, a fresh difference."""
    local_rows = np.array(ids, dtype=np.int64) // leaf.n_leaves
    candidates = leaf.shard[local_rows]
    diffs = candidates - query_vec[None, :]
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(dists)[:k]
    return [(int(ids[i]), float(dists[i])) for i in order]


@pytest.mark.parametrize("scale_name,seed", [("small", 0), ("unit", 0), ("unit", 1), ("unit", 2)])
def test_candidates_and_leaf_match_the_reference_on_every_query(scale_name, seed):
    """Over a deployment's whole query set, ``candidates()`` gathers the
    reference union per leaf, and each leaf answers the array payload
    element for element as the list-based kernel did."""
    scale = SCALES[scale_name]
    service = build_hdsearch(SimCluster(seed=seed), scale)
    index, k = service.extras["index"], scale.hds_k
    tables = _reference_tables(index, service.extras["corpus"].vectors)
    source = service.make_source()
    queries = [source.next_query()[0][1] for _ in range(scale.n_queries)]
    for query_vec in queries:
        per_leaf = index.candidates(query_vec)
        assert {leaf: ids.tolist() for leaf, ids in per_leaf.items()} == \
            _reference_candidates(index, tables, query_vec)
        for leaf, ids in per_leaf.items():
            app = service.leaves[leaf].app
            want = _reference_leaf_payload(app, query_vec, ids.tolist(), k)
            from_array = app.handle(("knn", query_vec, ids, k))
            from_list = app.handle(("knn", query_vec, ids.tolist(), k))
            assert from_array.payload == from_list.payload == want
            assert (from_array.compute_us, from_array.size_bytes) == (
                from_list.compute_us, from_list.size_bytes)
    # Python ints and floats on the wire, as the list kernel returned.
    assert {type(x) for pair in from_array.payload for x in pair} == {int, float}
    empty = service.leaves[0].app.handle(("knn", queries[0], np.empty(0, np.int64), k))
    assert empty.payload == []


def test_tuner_choice_at_small_scale_is_pinned():
    """``hdsearch-10k``'s index: cluster seed 0 at ``small`` scale."""
    index = build_hdsearch(SimCluster(seed=0), SCALES["small"]).extras["index"]
    assert (index.hash_bits, index.n_tables, index.n_probes) == (7, 12, 2)


def test_tuner_rejects_an_empty_query_sample():
    corpus = _corpus(n=200)
    with pytest.raises(ValueError, match="at least one query"):
        tune_lsh(corpus.vectors, 2, corpus.vectors[:0])


def test_leaf_app_returns_sorted_topk():
    corpus = _corpus(n=400, dims=16, seed=6)
    leaf = HdSearchLeafApp(corpus.vectors, leaf_index=1, n_leaves=4,
                           cost=LinearCost(10.0, 0.001))
    ids = [pid for pid in range(400) if pid % 4 == 1][:50]
    query = corpus.query()
    result = leaf.handle(("knn", query, ids, 5))
    assert len(result.payload) == 5
    dists = [d for _pid, d in result.payload]
    assert dists == sorted(dists)
    assert all(pid % 4 == 1 for pid, _d in result.payload)
    assert result.compute_us > 10.0


def test_leaf_app_empty_candidates():
    corpus = _corpus(n=100, dims=16)
    leaf = HdSearchLeafApp(corpus.vectors, 0, 4, LinearCost(5.0, 0.01))
    result = leaf.handle(("knn", corpus.query(), [], 5))
    assert result.payload == []


def test_midtier_merge_returns_global_topk():
    corpus = _corpus(n=200, dims=16, seed=7)
    index = LshIndex(corpus.vectors, n_leaves=2, seed=8)
    app = HdSearchMidTierApp(index, k=3, request_cost=LinearCost(5, 0.01),
                             merge_cost=LinearCost(2, 0.01))
    responses = [[(0, 0.5), (2, 0.9)], [(1, 0.1), (3, 0.7)]]
    merged = app.merge(("query", corpus.query()), responses)
    assert [pid for pid, _ in merged.payload] == [1, 0, 3]


def test_end_to_end_hdsearch_accuracy_above_paper_bar():
    """The paper tunes LSH for >=93% accuracy; check end-to-end answers."""
    cluster = SimCluster(seed=11)
    service = build_hdsearch(cluster, SCALES["unit"])
    corpus = service.extras["corpus"]
    accuracy = service.extras["accuracy"]
    app = service.midtier.app

    scores = []
    for _ in range(40):
        query = corpus.query()
        plan = app.fanout(("query", query))
        responses = []
        for leaf_index, payload, _size in plan.subrequests:
            leaf_app = service.leaves[leaf_index].app
            responses.append(leaf_app.handle(payload).payload)
        merged = app.merge(("query", query), responses)
        scores.append(accuracy(query, merged.payload))
    assert np.mean(scores) >= 0.93


def test_hdsearch_service_under_load():
    cluster = SimCluster(seed=1)
    service = build_hdsearch(cluster, SCALES["unit"])
    result = run_open_loop(cluster, service, qps=300.0, duration_us=300_000,
                           warmup_us=100_000)
    assert result.completed > 50
    # Sub-ms median end-to-end, a few-ms worst case (paper Fig. 10 regime).
    assert result.e2e.median < 1_500.0
    assert result.e2e.percentile(99) < 22_000.0
    # futex dominates the mid-tier syscall profile (paper Fig. 11).
    per_query = result.syscalls_per_query()
    assert per_query["futex"] == max(per_query.values())


def test_each_query_vector_gets_its_candidates_computed_once(monkeypatch):
    """Calibration's candidate lists seed the mid-tier's plan memo, so the
    drive looks up only the queries calibration did not sample."""
    calls = []
    original = LshIndex.candidates

    def counted(index, query_vec):
        calls.append(query_vec)
        return original(index, query_vec)

    monkeypatch.setattr(LshIndex, "candidates", counted)
    scale = SCALES["unit"]
    cluster = SimCluster(seed=0)
    service = build_hdsearch(cluster, scale)
    assert len(calls) == 200  # the calibration sample
    result = run_open_loop(cluster, service, qps=2_000.0, duration_us=250_000,
                           warmup_us=50_000)
    assert result.completed > scale.n_queries
    assert len(calls) == len({id(vec) for vec in calls}) == scale.n_queries
