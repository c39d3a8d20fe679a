"""Skip lists and posting-list intersection kernels.

The paper stores each term's posting list as a skip list [Pugh 1990]: a
sorted list of document ids with probabilistic express lanes.  Leaves
intersect lists with a **linear merge** (the O(|L1|+|L2|) "merge step of
merge sort" the paper describes); a skip-pointer intersection that seeks
through the larger list is provided as well, since skips "are typically
used to speed up list intersections" — it backs an ablation benchmark.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.sim.rng import seeded_py


class _Node:
    __slots__ = ("value", "forward")

    def __init__(self, value: int, level: int):
        self.value = value
        self.forward: List[Optional["_Node"]] = [None] * level


class SkipList:
    """A sorted set of ints with O(log n) search via probabilistic levels."""

    MAX_LEVEL = 16
    P = 0.25

    def __init__(self, values: Optional[Iterable[int]] = None, seed: int = 0):
        self._rng = seeded_py(seed)
        self._head = _Node(-1, self.MAX_LEVEL)
        self._level = 1
        self._length = 0
        if values is not None:
            for value in values:
                self.insert(value)

    def _random_level(self) -> int:
        level = 1
        while level < self.MAX_LEVEL and self._rng.random() < self.P:
            level += 1
        return level

    def insert(self, value: int) -> bool:
        """Insert ``value``; returns False if it was already present."""
        update: List[_Node] = [self._head] * self.MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while node.forward[level] is not None and node.forward[level].value < value:
                node = node.forward[level]
            update[level] = node
        candidate = node.forward[0]
        if candidate is not None and candidate.value == value:
            return False
        new_level = self._random_level()
        if new_level > self._level:
            self._level = new_level
        new_node = _Node(value, new_level)
        for level in range(new_level):
            new_node.forward[level] = update[level].forward[level]
            update[level].forward[level] = new_node
        self._length += 1
        return True

    def __contains__(self, value: int) -> bool:
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while node.forward[level] is not None and node.forward[level].value < value:
                node = node.forward[level]
        candidate = node.forward[0]
        return candidate is not None and candidate.value == value

    def __iter__(self) -> Iterator[int]:
        node = self._head.forward[0]
        while node is not None:
            yield node.value
            node = node.forward[0]

    def __len__(self) -> int:
        return self._length

    def to_list(self) -> List[int]:
        """The sorted contents as a plain list."""
        return list(self)


def intersect_linear(a: List[int], b: List[int]) -> List[int]:
    """The paper's leaf kernel: linear merge of two sorted id lists."""
    result: List[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        va, vb = a[i], b[j]
        if va == vb:
            result.append(va)
            i += 1
            j += 1
        elif va < vb:
            i += 1
        else:
            j += 1
    return result


def intersect_skip(small: List[int], big: SkipList) -> List[int]:
    """Skip-pointer intersection: seek each small-list id in the big list."""
    return [value for value in small if value in big]


def intersect_many(lists: List[List[int]]) -> List[int]:
    """Intersect several sorted lists, smallest-first for early exit."""
    if not lists:
        return []
    ordered = sorted(lists, key=len)
    result = ordered[0]
    for other in ordered[1:]:
        if not result:
            return []
        result = intersect_linear(result, other)
    return result
