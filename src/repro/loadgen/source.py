"""Query sources: where load generators draw their work from."""

from __future__ import annotations

from typing import Any, Sequence, Tuple

Query = Tuple[Any, int]  # (payload, wire size in bytes)


class QuerySource:
    """Produces one query per call."""

    def next_query(self) -> Query:
        """The next (payload, size_bytes) pair to send."""
        raise NotImplementedError


class CyclingSource(QuerySource):
    """Cycles deterministically through a pre-built query set.

    The paper's load generators pick queries from fixed sets (10 K search
    queries, 1 K {user, item} pairs, ...); cycling keeps runs reproducible.
    """

    def __init__(self, queries: Sequence[Query]):
        if not queries:
            raise ValueError("query set is empty")
        self._queries = list(queries)
        self._index = 0

    def next_query(self) -> Query:
        query = self._queries[self._index]
        self._index = (self._index + 1) % len(self._queries)
        return query
