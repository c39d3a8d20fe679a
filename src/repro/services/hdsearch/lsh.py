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
from functools import cached_property
from typing import Dict, List

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
        self.point_signatures = [
            self._signatures(table_index, vectors) for table_index in range(n_tables)
        ]

    @cached_property
    def tables(self) -> List[Dict[int, Dict[int, List[int]]]]:
        """Per table, signature -> {leaf: ascending point ids} (the paper's
        {leaf server, point ID list} tuples).  Built on first use, so an
        index the tuner only scores never builds them."""
        leaves = np.arange(self.n_points) % self.n_leaves
        tables = []
        for signatures in self.point_signatures:
            keys = signatures * self.n_leaves + leaves
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
            table: Dict[int, Dict[int, List[int]]] = {}
            for key, ids in zip(sorted_keys[starts].tolist(), np.split(order, starts[1:])):
                signature, leaf = divmod(key, self.n_leaves)
                table.setdefault(signature, {})[leaf] = ids.tolist()
            tables.append(table)
        return tables

    def _prefix(self, n_tables: int, n_probes: int) -> "LshIndex":
        """``LshIndex(vectors, n_leaves, n_tables, hash_bits, n_probes, seed)``
        without recomputing a signature: its planes are this one's first."""
        index = copy.copy(self)
        index.__dict__.pop("tables", None)
        index.n_tables, index.n_probes = n_tables, n_probes
        index._planes = self._planes[:n_tables]
        index.point_signatures = self.point_signatures[:n_tables]
        return index

    def _signatures(self, table_index: int, vectors: np.ndarray) -> np.ndarray:
        projections = vectors @ self._planes[table_index].T
        bits = (projections > 0.0).astype(np.int64)
        return bits @ self._bit_weights

    def signature(self, table_index: int, query: np.ndarray) -> int:
        """The query's bucket signature in one table."""
        return int(self._signatures(table_index, query[None, :])[0])

    def _probe_signatures(self, signature: int) -> List[int]:
        """The base bucket plus ``n_probes`` Hamming-1 neighbors."""
        probes = [signature]
        for bit in range(min(self.n_probes, self.hash_bits)):
            probes.append(signature ^ (1 << bit))
        return probes

    def candidates(self, query: np.ndarray) -> Dict[int, List[int]]:
        """Candidate point ids per leaf, deduplicated across tables."""
        per_leaf: Dict[int, set] = {}
        for table_index, table in enumerate(self.tables):
            base = self.signature(table_index, query)
            for probe in self._probe_signatures(base):
                bucket = table.get(probe)
                if not bucket:
                    continue
                for leaf, ids in bucket.items():
                    per_leaf.setdefault(leaf, set()).update(ids)
        return {leaf: sorted(ids) for leaf, ids in sorted(per_leaf.items())}

    def candidate_count(self, query: np.ndarray) -> int:
        """Total candidates a query gathers (the mid-tier's work units)."""
        return sum(len(ids) for ids in self.candidates(query).values())


def _squared_distances(vectors: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row ``q``: query ``q``'s squared Euclidean distance to every point."""
    diffs = (vectors - query[None, :] for query in queries)
    return np.array([np.einsum("ij,ij->i", d, d) for d in diffs])


def _nn_accuracy(
    index: LshIndex,
    vectors: np.ndarray,
    queries: np.ndarray,
    sq_dists: np.ndarray,
) -> float:
    """Mean cosine similarity between LSH-reported and true nearest
    neighbors (the paper's accuracy score).  ``sq_dists`` is
    ``_squared_distances(vectors, queries)``; a query's candidates are the
    points whose signature matches one of its probes in some table, taken
    in ``candidates()`` order (leaf, then id) so the argmin ties as it did."""
    by_leaf = np.argsort(np.arange(index.n_points) % index.n_leaves, kind="stable")
    scores = []
    for query, dists in zip(queries, sq_dists):
        hit = np.zeros(index.n_points, dtype=bool)
        for table_index, signatures in enumerate(index.point_signatures):
            base = index.signature(table_index, query)
            for probe in index._probe_signatures(base):
                hit |= signatures == probe
        ids = by_leaf[hit[by_leaf]]
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

    # Every configuration of one bit width is a prefix of its 12-table index.
    widest: Dict[int, LshIndex] = {}
    best_fallback = None
    best_fallback_acc = -1.0
    for _expected, bits, tables, probes in configs:
        if bits not in widest:
            widest[bits] = LshIndex(vectors, n_leaves, n_tables=12, hash_bits=bits, seed=seed)
        index = widest[bits]._prefix(tables, probes)
        accuracy = _nn_accuracy(index, vectors, queries, sq_dists)
        if accuracy >= target_accuracy:
            return index
        if accuracy > best_fallback_acc:
            best_fallback, best_fallback_acc = index, accuracy
    return best_fallback
