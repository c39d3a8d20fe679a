"""Tests for Set Algebra: skip lists, inverted index, and the service."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import DocumentCorpus
from repro.services.costmodel import LinearCost
from repro.services.setalgebra import (
    InvertedIndex,
    SetAlgebraLeafApp,
    SetAlgebraMidTierApp,
    SkipList,
    build_setalgebra,
    intersect_linear,
    intersect_skip,
)
from repro.services.setalgebra.skiplist import intersect_many
from repro.suite import SCALES, SimCluster
from repro.suite.cluster import run_open_loop


# -- SkipList ------------------------------------------------------------------

def test_skiplist_iterates_sorted():
    sl = SkipList([5, 1, 9, 3, 7])
    assert list(sl) == [1, 3, 5, 7, 9]
    assert len(sl) == 5


def test_skiplist_rejects_duplicates():
    sl = SkipList()
    assert sl.insert(4) is True
    assert sl.insert(4) is False
    assert len(sl) == 1


def test_skiplist_contains():
    sl = SkipList(range(0, 100, 3))
    assert 33 in sl
    assert 34 not in sl


def test_skiplist_seek_ge():
    sl = SkipList([10, 20, 30])
    assert sl.seek_ge(5) == 10
    assert sl.seek_ge(20) == 20
    assert sl.seek_ge(25) == 30
    assert sl.seek_ge(31) is None


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=200))
@settings(max_examples=60, deadline=None)
def test_skiplist_matches_sorted_set_semantics(values):
    sl = SkipList(values)
    expected = sorted(set(values))
    assert list(sl) == expected
    assert len(sl) == len(expected)
    for probe in values[:20]:
        assert probe in sl


# -- intersection kernels --------------------------------------------------------

@given(
    st.lists(st.integers(min_value=0, max_value=500), max_size=120),
    st.lists(st.integers(min_value=0, max_value=500), max_size=120),
)
@settings(max_examples=80, deadline=None)
def test_linear_merge_equals_set_intersection(a, b):
    sa, sb = sorted(set(a)), sorted(set(b))
    assert intersect_linear(sa, sb) == sorted(set(a) & set(b))


@given(
    st.lists(st.integers(min_value=0, max_value=300), max_size=60),
    st.lists(st.integers(min_value=0, max_value=300), max_size=200),
)
@settings(max_examples=40, deadline=None)
def test_skip_intersection_agrees_with_linear(a, b):
    small = sorted(set(a))
    big_sorted = sorted(set(b))
    big = SkipList(big_sorted)
    assert intersect_skip(small, big) == intersect_linear(small, big_sorted)


def test_intersect_many_orders_smallest_first():
    lists = [list(range(0, 1000)), [3, 500, 999], list(range(0, 1000, 2))]
    assert intersect_many(lists) == [500]  # 3 and 999 are odd
    assert intersect_many([]) == []
    assert intersect_many([[1, 2], []]) == []


# -- InvertedIndex ----------------------------------------------------------------

def _tiny_index(stop=frozenset()):
    docs = [{1, 2, 3}, {2, 3}, {3, 4}, {1, 4}]
    return InvertedIndex(docs, [10, 11, 12, 13], stop_list=stop)


def test_index_postings_sorted_by_doc_id():
    index = _tiny_index()
    assert index.posting(3) == [10, 11, 12]
    assert index.posting(99) == []


def test_index_intersection_ground_truth():
    index = _tiny_index()
    assert index.intersect([2, 3]) == [10, 11]
    assert index.intersect([1, 4]) == [13]
    assert index.intersect([1, 2, 3, 4]) == []


def test_index_stop_words_dropped_from_index_and_queries():
    index = _tiny_index(stop=frozenset({3}))
    assert index.posting(3) == []
    # Stop word in a conjunction is ignored, not failed.
    assert index.intersect([2, 3]) == index.intersect([2])
    # A query of only stop words matches nothing.
    assert index.intersect([3]) == []


def test_index_unknown_term_empties_intersection():
    index = _tiny_index()
    assert index.intersect([2, 999]) == []


def test_index_work_units_sum_posting_lengths():
    index = _tiny_index()
    assert index.work_units([2, 3]) == 2 + 3


def test_index_misaligned_inputs_rejected():
    with pytest.raises(ValueError):
        InvertedIndex([{1}], [1, 2])


def test_sharded_indexes_agree_with_corpus_ground_truth():
    corpus = DocumentCorpus(n_documents=200, vocabulary_size=300,
                            mean_doc_terms=40, seed=9)
    n_leaves = 3
    indexes = []
    for leaf in range(n_leaves):
        ids = list(range(leaf, 200, n_leaves))
        indexes.append(InvertedIndex([corpus.documents[i] for i in ids], ids))
    queries = corpus.make_queries(25, max_terms=3, seed=10)
    for terms in queries:
        union = sorted(
            doc for index in indexes for doc in index.intersect(terms)
        )
        assert union == sorted(corpus.matching_documents(terms))


# -- service glue -------------------------------------------------------------------

def test_midtier_fans_out_to_every_leaf():
    app = SetAlgebraMidTierApp(4, LinearCost(5, 0.1), LinearCost(2, 0.01))
    plan = app.fanout([7, 8])
    assert [leaf for leaf, _t, _s in plan.subrequests] == [0, 1, 2, 3]
    assert all(terms == [7, 8] for _l, terms, _s in plan.subrequests)


def test_midtier_union_sorts_disjoint_shards():
    app = SetAlgebraMidTierApp(2, LinearCost(5, 0.1), LinearCost(2, 0.01))
    merged = app.merge([1], [[4, 10], [1, 7]])
    assert merged.payload == [1, 4, 7, 10]


def test_leaf_app_returns_matches_and_charges_units():
    index = _tiny_index()
    leaf = SetAlgebraLeafApp(index, LinearCost(10.0, 1.0))
    result = leaf.handle([2, 3])
    assert result.payload == [10, 11]
    assert result.compute_us == 10.0 + (2 + 3)


def test_setalgebra_service_under_load_and_correct():
    cluster = SimCluster(seed=4)
    service = build_setalgebra(cluster, SCALES["unit"])
    corpus = service.extras["corpus"]
    stop_list = service.extras["stop_list"]

    # End-to-end correctness at the app level: union over shards equals
    # ground truth on non-stop terms.
    app = service.midtier.app
    sample_query = [t for t in corpus.make_queries(1, max_terms=2, seed=3)[0]]
    plan = app.fanout(sample_query)
    responses = [service.leaves[l].app.handle(t).payload for l, t, _s in plan.subrequests]
    merged = app.merge(sample_query, responses)
    useful = [t for t in sample_query if t not in stop_list]
    if useful:
        assert set(merged.payload) == corpus.matching_documents(useful)

    result = run_open_loop(cluster, service, qps=300.0, duration_us=300_000,
                           warmup_us=100_000)
    assert result.completed > 50
    assert result.e2e.median < 1_500.0
    per_query = result.syscalls_per_query()
    assert per_query["futex"] == max(per_query.values())


# -- compressed (frozen) indexes -----------------------------------------------

def test_frozen_index_answers_identically():
    from repro.services.setalgebra.compression import VarintDeltaCodec

    corpus = DocumentCorpus(n_documents=150, vocabulary_size=120,
                            mean_doc_terms=25, seed=11)
    ids = list(range(150))
    live = InvertedIndex(corpus.documents, ids, seed=1)
    frozen = InvertedIndex(corpus.documents, ids, seed=1)
    frozen.freeze(VarintDeltaCodec())
    assert frozen.memory_bytes() < live.memory_bytes()  # blobs replaced lists
    for terms in corpus.make_queries(30, max_terms=3, seed=12):
        assert frozen.intersect(terms) == live.intersect(terms)
        assert frozen.work_units(terms) == live.work_units(terms)
        for t in terms:
            assert frozen.posting(t) == live.posting(t)
            assert frozen.posting_length(t) == live.posting_length(t)


def test_frozen_index_saves_memory():
    from repro.services.setalgebra.compression import PforDeltaCodec

    corpus = DocumentCorpus(n_documents=400, vocabulary_size=150,
                            mean_doc_terms=40, seed=13)
    index = InvertedIndex(corpus.documents, list(range(400)), seed=2)
    before = index.memory_bytes()
    index.freeze(PforDeltaCodec())
    after = index.memory_bytes()
    assert after < before / 3  # dense Zipf postings compress well
