"""Pair-level brute-force counts: the ground truth for ``PairStats``.

The closed forms count cycles from per-pair statistics (paths, walks,
split cycles, tailed triangles, chordal cycles, triangle-rectangles).
This module counts each of them for one pair (u, v) by exhaustive search
over the adjacency structure, as ``drfwl.oracle`` does for node counts;
the motifs follow that module's drawings with a second marked node.
No runtime path needs pair-level counts, so they live with the tests.
"""
from __future__ import annotations

from drfwl.graph import Graph
from drfwl.oracle import _check_cap


def count_walks_between(g: Graph, u: int, v: int, length: int) -> int:
    """k-walks from u to v by repeated neighbor summation (A^k entry)."""
    row = [0] * g.n
    row[u] = 1
    for _ in range(length):
        nxt = [0] * g.n
        for x in range(g.n):
            r = row[x]
            if r:
                for w in g.adjacency[x]:
                    nxt[w] += r
        row = nxt
    return row[v]


def walk_matrix_power(g: Graph, k: int) -> list[list[int]]:
    """A^k as dense integer lists, by naive multiplication."""
    n = g.n
    a = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(k):
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            oi = out[i]
            ni = nxt[i]
            for x in range(n):
                c = oi[x]
                if c:
                    ax = a[x]
                    for j in range(n):
                        ni[j] += c * ax[j]
        out = nxt
    return out


def count_split_cycles(g: Graph, u: int, v: int, k: int, l: int) -> int:
    """C_{k,l}(u, v): (k+l)-cycles through u and v that split into an
    internally-disjoint k-path and l-path between them."""
    if u == v:
        return 0
    k_paths = [frozenset(p) for p in interior_paths(g, u, v, k)]
    l_paths = [frozenset(p) for p in interior_paths(g, u, v, l)]
    total = 0
    for a in k_paths:
        for b in l_paths:
            if not (a & b):
                total += 1
    if k == l:
        total //= 2
    return total


def interior_paths(g: Graph, u: int, v: int, length: int) -> list[tuple[int, ...]]:
    """The interiors of the simple length-edge paths from u to v, each in
    path order from u's side.

    For u == v these are the closed cycles through u, so callers that
    count u-v paths guard that case.
    """
    out: list[tuple[int, ...]] = []
    adj = g.adjacency

    def extend(here: int, visited: list[int]) -> None:
        if len(visited) == length - 1:
            if v in adj[here]:
                out.append(tuple(visited))
            return
        for w in adj[here]:
            if w != u and w != v and w not in visited:
                visited.append(w)
                extend(w, visited)
                visited.pop()

    extend(u, [])
    return out


def oracle_pair_count(g: Graph, kind: str, u: int, v: int) -> int:
    """Pair-level ground truth.

    ``kind`` is one of "P2".."P4" (paths u->v), "W2".."W4" (walks),
    "C23"/"C24"/"C34"/"C13"/"C14" (split cycles), "T" (tailed triangle,
    u = tip, v = far triangle vertex), "CC1" (u on chord, v off-chord),
    "CC2" (u, v both on the chord), "CCX" (u, v the two off-chord
    vertices: the edges among N1(u) & N1(v)), "TR1" (u apex, v on shared
    edge), "TR2" (u on shared edge, v the opposite rectangle corner).
    """
    _check_cap(g)
    nbr = g.neighbor_sets()
    if kind.startswith("P") and kind[1:].isdigit():
        length = int(kind[1:])
        return 0 if u == v or length < 1 else len(interior_paths(g, u, v, length))
    if kind.startswith("W") and kind[1:].isdigit():
        return count_walks_between(g, u, v, int(kind[1:]))
    if kind.startswith("C") and len(kind) == 3 and kind[1:].isdigit():
        return count_split_cycles(g, u, v, int(kind[1]), int(kind[2]))
    if kind == "T":
        total = 0
        for w in nbr[u]:
            if w == v or v not in nbr[w]:
                continue
            for x in nbr[w] & nbr[v]:
                if x != u:
                    total += 1
        return total
    if kind == "CC1":
        total = 0
        for x in nbr[u] & nbr[v]:  # other chord endpoint
            for c in nbr[u] & nbr[x]:
                if c != v:
                    total += 1
        return total
    if kind == "CC2":
        if not g.has_edge(u, v):
            return 0
        common = nbr[u] & nbr[v]
        return len(common) * (len(common) - 1) // 2
    if kind == "CCX":
        common = nbr[u] & nbr[v]
        return sum(1 for a in common for b in common if a < b and b in nbr[a])
    if kind == "TR1":
        if not g.has_edge(u, v):
            return 0
        total = 0
        for z in nbr[u] & nbr[v]:
            for interior in interior_paths(g, z, v, 3):
                if u not in interior:
                    total += 1
        return total
    if kind == "TR2":
        total = 0
        for b in nbr[u] & nbr[v]:
            for c in nbr[u] & nbr[v]:
                if c == b:
                    continue
                for a in nbr[u] & nbr[b]:
                    if a != v and a != c:
                        total += 1
        return total
    raise ValueError(f"unknown pair kind {kind!r}")
