"""Distance-restricted 2-tuple index.

Materializes every ordered node pair (u, v) with shortest-path distance at
most d, together with per-node k-hop shells.  This is the shared substrate
for distance-restricted refinement and for the closed-form counting passes.
Refinement reads a tuple's witnesses as the common keys of ``rows[u]`` and
``rows[v]``, the nodes within d of both; counting reads N_1(u) & N_1(v)
and walks the shells.
"""
from __future__ import annotations

from typing import AbstractSet, NamedTuple

from .graph import Graph, khop


class TupleIndex(NamedTuple):
    """All ordered pairs (u, v) with d(u, v) <= d, densely numbered.

    Tuple ids are assigned in (u, k, v) lexicographic order, so each
    node's tuples form one run of ids that starts with (u, u), and within
    it the tuples at each distance k are contiguous.  ``pairs[t]`` is
    (u, v, k), and ``rows[u][v]`` is the id of (u, v): one dict per node,
    the map that every runtime pass reads.  ``shells[u][k]`` is N_k(u) as
    a sorted tuple (``khop``), so ``shells[u][0]`` is ``(u,)``; the
    shells stop at the last non-empty one, so a missing shell k <= d is
    empty.
    """

    graph: Graph
    d: int
    shells: tuple[tuple[tuple[int, ...], ...], ...]
    pairs: tuple[tuple[int, int, int], ...]
    rows: tuple[dict[int, int], ...]

    @property
    def tuple_count(self) -> int:
        return len(self.pairs)

    def space_bound(self) -> int:
        """The n * (1 + sum_k degmax^k) ceiling on the tuple count.

        The geometric sum is taken in closed form, so the cost grows with
        the digits of the result, not with d times them.
        """
        degmax, d = self.graph.max_degree(), self.d
        if degmax < 2:
            return self.graph.n * (1 + degmax * d)
        return self.graph.n * ((degmax ** (d + 1) - 1) // (degmax - 1))


def build_index(g: Graph, d: int) -> TupleIndex:
    """Index every ordered pair at distance <= d, ids ordered by (u, k, v)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    shells = tuple(khop(g, v, d) for v in range(g.n))
    pairs: list[tuple[int, int, int]] = []
    rows: list[dict[int, int]] = []
    for u in range(g.n):
        row: dict[int, int] = {}
        for k, shell in enumerate(shells[u]):
            for v in shell:
                row[v] = len(pairs)
                pairs.append((u, v, k))
        rows.append(row)
    return TupleIndex(graph=g, d=d, shells=shells, pairs=tuple(pairs), rows=tuple(rows))


def intersect(a: AbstractSet[int], b: AbstractSet[int]) -> list[int]:
    """The common nodes of two node sets as a new ascending list.

    Called once per witness set that counting and refinement read, so the
    benchmark probe (perfbench/probe.py) can count those sets by wrapping
    it.
    """
    return sorted(a & b)
