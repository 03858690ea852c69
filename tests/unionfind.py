"""Disjoint-set (union-find) structure.

Used by the row-wise reference decomposition in :mod:`tests.legacy` to
group buckets into connected components induced by background-knowledge
constraints (Section 5.5 of the paper: buckets untouched by knowledge are
*irrelevant* and solve independently).  Production code decomposes with
array operations in :mod:`repro.maxent.decompose`.
"""

from __future__ import annotations


class UnionFind:
    """Union-find over the integers ``0 .. n-1`` with path compression."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("UnionFind size must be non-negative")
        self._parent = list(range(n))
        self._rank = [0] * n

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s component."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        # Path compression: point every node on the path at the root.
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``.

        Returns True if a merge happened, False if they were already joined.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are in the same component."""
        return self.find(a) == self.find(b)

    def components(self) -> list[list[int]]:
        """All components as lists of members, in ascending root order."""
        groups: dict[int, list[int]] = {}
        for x in range(len(self._parent)):
            groups.setdefault(self.find(x), []).append(x)
        return [groups[root] for root in sorted(groups)]
