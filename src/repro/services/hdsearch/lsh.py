"""Multi-table, multi-probe Locality-Sensitive Hashing.

Follows the structure of FLANN's LSH index, which the paper extends into
HDSearch's mid-tier: multiple random-hyperplane hash tables whose buckets
store ``{leaf server, point ID list}`` tuples rather than vectors (the
feature vectors themselves live only on the leaves).  Queries collect
candidates from each table's bucket, plus optional Hamming-distance-1
multi-probes to improve recall without more tables.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence

import numpy as np

from repro.sim.rng import seeded_np


class LshIndex:
    """A random-hyperplane LSH index over a shared feature corpus."""

    def __init__(
        self,
        vectors: np.ndarray,
        n_leaves: int,
        n_tables: int = 8,
        hash_bits: int = 12,
        n_probes: int = 2,
        seed: int = 0,
    ):
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if not 1 <= hash_bits <= 30:
            raise ValueError("hash_bits must be in [1, 30]")
        if n_leaves <= 0:
            raise ValueError("n_leaves must be positive")
        if n_tables < 1:
            raise ValueError("n_tables must be at least 1")
        if n_probes < 0:
            raise ValueError("n_probes must be non-negative")
        self.n_points, self.dims = vectors.shape
        self.n_leaves = n_leaves
        self.n_tables = n_tables
        self.hash_bits = hash_bits
        self.n_probes = n_probes
        rng = seeded_np(seed)
        # One (hash_bits x dims) hyperplane matrix per table.
        self._planes = [
            rng.normal(size=(hash_bits, self.dims)) for _ in range(n_tables)
        ]
        self._bit_weights = 1 << np.arange(hash_bits)
        # Per table, signature -> ascending int64 ids of the points in that
        # bucket; a point's leaf is ``id % n_leaves``, so each id list holds
        # the paper's {leaf server, point ID list} tuples for the bucket.
        self.buckets: List[Dict[int, np.ndarray]] = [
            _bucket_map(self._signatures(table_index, vectors))
            for table_index in range(n_tables)
        ]

    def _prefix(self, n_tables: int, n_probes: int) -> "LshIndex":
        """``LshIndex(vectors, n_leaves, n_tables, hash_bits, n_probes, seed)``
        without rehashing a point: its planes and buckets are this one's
        first."""
        index = copy.copy(self)
        index.n_tables, index.n_probes = n_tables, n_probes
        index._planes = self._planes[:n_tables]
        index.buckets = self.buckets[:n_tables]
        return index

    def _signatures(self, table_index: int, vectors: np.ndarray) -> np.ndarray:
        projections = vectors @ self._planes[table_index].T
        bits = (projections > 0.0).astype(np.int64)
        return bits @ self._bit_weights

    def query_signatures(self, query: np.ndarray) -> List[int]:
        """The query's bucket signature in each table.  Each is a one-row
        product, as a batched product may round differently (DESIGN §6)."""
        row = query[None, :]
        projections = np.concatenate([row @ planes.T for planes in self._planes])
        return ((projections > 0.0).astype(np.int64) @ self._bit_weights).tolist()

    def _probe_signatures(self, signature: int) -> List[int]:
        """The base bucket plus ``n_probes`` Hamming-1 neighbors."""
        probes = [signature]
        for bit in range(min(self.n_probes, self.hash_bits)):
            probes.append(signature ^ (1 << bit))
        return probes

    def _candidate_mask(self, signatures: Sequence[int]) -> np.ndarray:
        """Which points a query gathers: those in one of its probe buckets
        in some table.  ``signatures`` is ``query_signatures(query)`` of
        this index or of one it is a prefix of."""
        mask = np.zeros(self.n_points, dtype=bool)
        for buckets, signature in zip(self.buckets, signatures):
            for probe in self._probe_signatures(signature):
                ids = buckets.get(probe)
                if ids is not None:
                    mask[ids] = True
        return mask

    def candidates(self, query: np.ndarray) -> Dict[int, np.ndarray]:
        """Candidate point ids per leaf that has any, in leaf order: each
        an ascending int64 array, deduplicated across tables."""
        mask = self._candidate_mask(self.query_signatures(query))
        n_leaves = self.n_leaves
        per_leaf = {}
        for leaf in range(n_leaves):
            rows = np.flatnonzero(mask[leaf::n_leaves])
            if rows.size:
                rows *= n_leaves
                rows += leaf
                per_leaf[leaf] = rows
        return per_leaf

    def candidate_count(self, query: np.ndarray) -> int:
        """Total candidates a query gathers (the mid-tier's work units)."""
        return int(np.count_nonzero(self._candidate_mask(self.query_signatures(query))))


def _bucket_map(signatures: np.ndarray) -> Dict[int, np.ndarray]:
    """Signature -> ascending ids of the points with it: one stable sort."""
    order = np.argsort(signatures, kind="stable")
    ordered = signatures[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    return dict(zip(ordered[starts].tolist(), np.split(order, starts[1:])))


def _squared_distances(vectors: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row ``q``: query ``q``'s squared Euclidean distance to every point."""
    diffs = (vectors - query[None, :] for query in queries)
    return np.array([np.einsum("ij,ij->i", d, d) for d in diffs])


def _nn_accuracy(
    index: LshIndex,
    vectors: np.ndarray,
    query_signatures: Sequence[Sequence[int]],
    sq_dists: np.ndarray,
) -> float:
    """Mean cosine similarity between LSH-reported and true nearest
    neighbors (the paper's accuracy score).  Row ``q`` of
    ``query_signatures`` and ``sq_dists`` is query ``q``'s
    ``query_signatures()`` (of ``index`` or an index it is a prefix of)
    and its ``_squared_distances`` row.  Candidates are taken in
    ``candidates()`` order (leaf, then id), so the argmin ties the same."""
    by_leaf = np.argsort(np.arange(index.n_points) % index.n_leaves, kind="stable")
    scores = []
    for signatures, dists in zip(query_signatures, sq_dists):
        mask = index._candidate_mask(signatures)
        ids = by_leaf[mask[by_leaf]]
        if not ids.size:
            scores.append(0.0)
            continue
        best = ids[int(np.argmin(dists[ids]))]
        a, b = vectors[best], vectors[int(np.argmin(dists))]
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        scores.append(float(a @ b / denom) if denom else 0.0)
    return float(np.mean(scores))


def tune_lsh(
    vectors: np.ndarray,
    n_leaves: int,
    queries: np.ndarray,
    target_accuracy: float = 0.93,
    seed: int = 0,
) -> LshIndex:
    """Pick LSH parameters the way the paper does (§III-A): the most
    selective configuration (fewest candidates, hence lowest latency) that
    still achieves the target accuracy; falls back to the most accurate.
    """
    if len(queries) == 0:
        raise ValueError("tune_lsh needs at least one query")
    n_points = vectors.shape[0]
    # Distances once for the tuning query sample, shared by every config.
    sq_dists = _squared_distances(vectors, queries)

    max_bits = max(2, int(np.log2(max(n_points / 25.0, 4.0))))
    configs = []
    for bits in range(max_bits, 1, -1):
        for tables in (4, 8, 12):
            for probes in (0, 2, 4):
                # Rough selectivity: candidates ~ tables*(probes+1)*n/2^bits.
                expected = tables * (probes + 1) * n_points / (1 << bits)
                configs.append((expected, bits, tables, probes))
    configs.sort()

    # Every configuration of one bit width is a prefix of its 12-table
    # index, so that index's query signatures serve them all.
    widest: Dict[int, LshIndex] = {}
    signatures: Dict[int, List[List[int]]] = {}
    best_fallback = None
    best_fallback_acc = -1.0
    for _expected, bits, tables, probes in configs:
        if bits not in widest:
            widest[bits] = LshIndex(vectors, n_leaves, n_tables=12, hash_bits=bits, seed=seed)
            signatures[bits] = [widest[bits].query_signatures(q) for q in queries]
        index = widest[bits]._prefix(tables, probes)
        accuracy = _nn_accuracy(index, vectors, signatures[bits], sq_dists)
        if accuracy >= target_accuracy:
            return index
        if accuracy > best_fallback_acc:
            best_fallback, best_fallback_acc = index, accuracy
    return best_fallback
