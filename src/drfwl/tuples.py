"""Distance-restricted 2-tuple index.

Materializes every ordered node pair (u, v) with shortest-path distance at
most d, together with per-node k-hop shells.  This is the shared substrate
for distance-restricted refinement and for the closed-form counting passes:
both consume intersections of the form N_i(u) & N_j(v).
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, KHopSets, khop


@dataclass(frozen=True)
class TupleIndex:
    """All ordered pairs (u, v) with d(u, v) <= d, densely numbered.

    Tuple ids are assigned in (u, k, v) lexicographic order, so id 0..n-1
    are the diagonal pairs (u, u).  ``pairs[t]`` is (u, v, k); ``pair_id``
    maps (u, v) back to t.  ``shells[u]`` holds N_1(u)..N_d(u).
    """

    graph: Graph
    d: int
    shells: tuple[KHopSets, ...]
    pairs: tuple[tuple[int, int, int], ...]
    pair_id: dict[tuple[int, int], int]

    @property
    def tuple_count(self) -> int:
        return len(self.pairs)

    def distance(self, u: int, v: int) -> int:
        """d(u, v) if at most d, else -1."""
        t = self.pair_id.get((u, v))
        return -1 if t is None else self.pairs[t][2]

    def shell(self, u: int, k: int) -> tuple[int, ...]:
        """N_k(u); k=0 is the singleton (u,)."""
        return self.shells[u].at(k)

    def space_bound(self) -> int:
        """The n * (1 + sum_k degmax^k) ceiling on the tuple count."""
        degmax = self.graph.max_degree()
        return self.graph.n * (1 + sum(degmax**k for k in range(1, self.d + 1)))


def build_index(g: Graph, d: int) -> TupleIndex:
    """Index every ordered pair at distance <= d, ids ordered by (u, k, v)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    shells = tuple(khop(g, v, d) for v in range(g.n))
    pairs: list[tuple[int, int, int]] = []
    pair_id: dict[tuple[int, int], int] = {}
    for u in range(g.n):
        for k in range(d + 1):
            for v in shells[u].at(k):
                pair_id[(u, v)] = len(pairs)
                pairs.append((u, v, k))
    return TupleIndex(graph=g, d=d, shells=shells, pairs=tuple(pairs), pair_id=pair_id)


def intersect(idx: TupleIndex, u: int, v: int, i: int, j: int) -> list[int]:
    """Sorted merge-intersection of N_i(u) and N_j(v); N_0(x) = {x}."""
    a = idx.shell(u, i)
    b = idx.shell(v, j)
    if len(b) < len(a):
        a, b = b, a
    out: list[int] = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        x, y = a[ia], b[ib]
        if x == y:
            out.append(x)
            ia += 1
            ib += 1
        elif x < y:
            ia += 1
        else:
            ib += 1
    return out
