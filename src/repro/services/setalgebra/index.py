"""The inverted index each Set Algebra leaf holds over its document shard."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.services.setalgebra.skiplist import SkipList, intersect_many


class InvertedIndex:
    """Term → posting skip list over one shard of the document corpus.

    Stop words (the most frequent terms, per the paper's
    collection-frequency stop list) are discarded during indexing.
    """

    def __init__(
        self,
        documents: Sequence[Iterable[int]],
        doc_ids: Sequence[int],
        stop_list: frozenset = frozenset(),
        seed: int = 0,
    ):
        if len(documents) != len(doc_ids):
            raise ValueError("documents and doc_ids must align")
        self.stop_list = stop_list
        self.n_documents = len(documents)
        self._postings: Dict[int, SkipList] = {}
        for doc_id, terms in zip(doc_ids, documents):
            for term in terms:
                if term in stop_list:
                    continue
                posting = self._postings.get(term)
                if posting is None:
                    posting = SkipList(seed=seed + term)
                    self._postings[term] = posting
                posting.insert(doc_id)

        # Optional frozen (compressed) representation — see freeze().
        self._codec = None
        self._compressed: Optional[Dict[int, bytes]] = None
        self._lengths: Optional[Dict[int, int]] = None

    def freeze(self, codec) -> None:
        """Swap skip lists for codec-compressed blobs (paper §III-C:
        posting lists "can be stored using different compression schemes").

        After freezing, lookups decompress on demand; inserts are no
        longer possible.  Memory drops by the codec's compression ratio.
        """
        self._codec = codec
        self._compressed = {}
        self._lengths = {}
        for term, posting in self._postings.items():
            doc_ids = posting.to_list()
            self._compressed[term] = codec.encode(doc_ids)
            self._lengths[term] = len(doc_ids)
        self._postings.clear()

    def memory_bytes(self) -> int:
        """Approximate posting storage: 8 B/id live, blob bytes frozen."""
        if self._compressed is not None:
            return sum(len(blob) for blob in self._compressed.values())
        return sum(8 * len(posting) for posting in self._postings.values())

    def posting(self, term: int) -> List[int]:
        """The sorted posting list for ``term`` (empty if unindexed)."""
        if self._compressed is not None:
            blob = self._compressed.get(term)
            return self._codec.decode(blob) if blob is not None else []
        posting = self._postings.get(term)
        return posting.to_list() if posting is not None else []

    def posting_length(self, term: int) -> int:
        if self._lengths is not None:
            return self._lengths.get(term, 0)
        posting = self._postings.get(term)
        return len(posting) if posting is not None else 0

    def intersect(self, terms: Sequence[int]) -> List[int]:
        """Documents containing *all* query terms (stop words excluded).

        Stop words carry "little value in helping select documents", so
        like the paper we drop them from the conjunction rather than
        failing the query.  A term that was never indexed (and is not a
        stop word) matches nothing, so the intersection is empty.
        """
        useful = [t for t in terms if t not in self.stop_list]
        if not useful:
            return []
        lists = []
        for term in useful:
            if self.posting_length(term) == 0:
                return []
            lists.append(self.posting(term))
        return intersect_many(lists)

    def work_units(self, terms: Sequence[int]) -> int:
        """Posting elements a query scans (the leaf's compute units)."""
        return sum(self.posting_length(t) for t in terms if t not in self.stop_list)
