"""Pair-level brute-force counts: the ground truth for ``PairStats``.

The closed forms count cycles from per-pair statistics (paths, walks,
split cycles, tailed triangles, chordal cycles, triangle-rectangles).
Each statistic but the walks is a row of edges in ``PAIR_PATTERNS``, with
u at vertex 0 and v at vertex 1, and ``drfwl.oracle``'s one matcher
counts it with those two vertices fixed: the node motifs' matcher and
drawings, with a second marked node.  The twelve families of overlapping
(3-path, 4-path) pairs behind the cycle-7 count are rows too
(``FAMILY_PATTERNS``), rooted at u alone.  No runtime path needs
pair-level counts, so they live with the tests.
"""
from __future__ import annotations

from functools import lru_cache

from drfwl.errors import exact_quotient
from drfwl.graph import Graph
from drfwl.oracle import match_pattern

Edges = tuple[tuple[int, int], ...]


def _uv_path(length: int, first: int = 2) -> Edges:
    """A u-v path of ``length`` edges from vertex 0 to vertex 1, its
    interior first, first + 1, ... in path order."""
    walk = (0, *range(first, first + length - 1), 1)
    return tuple(zip(walk, walk[1:]))


# Each kind is a row of edges over vertices 0..k-1, with u = 0 and v = 1;
# every later vertex has a smaller neighbour.  A kind reads 0 at u == v.
PAIR_PATTERNS: dict[str, Edges] = {
    # Pk: the simple u-v paths with k edges
    **{f"P{k}": _uv_path(k) for k in range(1, 5)},
    # Ckl: (k+l)-cycles through u and v split into a k-path and an
    # l-path between them, each cycle once
    **{
        f"C{k}{l}": _uv_path(k) + _uv_path(l, k + 1)
        for k, l in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    },
    # tailed triangle: u the tip of the pendant edge 0-2 on the triangle
    # 1-2-3, v a triangle vertex off that edge
    "T": ((0, 2), (1, 2), (2, 3), (1, 3)),
    # the 4-cycle 0-1-2-3 with the chord 0-2: u on the chord, v off it
    "CC1": ((0, 1), (0, 2), (1, 2), (0, 3), (2, 3)),
    # the 4-cycle 0-2-1-3 with the chord 0-1: u and v the chord
    "CC2": ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)),
    # the 4-cycle 0-2-1-3 with the chord 2-3: u and v off the chord
    "CCX": ((0, 2), (1, 2), (0, 3), (1, 3), (2, 3)),
    # triangle 0-1-2 and rectangle 1-2-3-4 sharing the edge 1-2: u the apex
    "TR1": ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)),
    # triangle 0-2-4 and rectangle 0-2-1-3 sharing the edge 0-2: u on the
    # shared edge, v the rectangle's corner opposite u
    "TR2": ((0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (2, 4)),
}


def _family_row(coincide: str) -> Edges:
    """The 3-path u-p-q-v and the 4-path u-x-y-z-v with the interior
    vertices that ``coincide`` pairs ("p=x q=y") merged, numbered from
    u = 0 in the order u, p, q, v, x, y, z."""
    merged = dict(pair.split("=")[::-1] for pair in coincide.split())
    order = [c for c in "upqvxyz" if c not in merged]
    walks = ("upqv", "".join(merged.get(c, c) for c in "uxyzv"))
    return tuple(sorted({tuple(sorted(map(order.index, e))) for w in walks for e in zip(w, w[1:])}))


# The cycle-7 correction families, named as ``cycle7_correction_terms``
# names them: (3-path, 4-path) pairs from u to one v whose interiors
# coincide exactly as stated.  Rooted at u = 0 with no division, a row's
# matches are the family's path pairs, one each.
FAMILY_PATTERNS: dict[str, Edges] = {
    name: _family_row(coincide)
    for name, coincide in zip(
        "abcdefghijkl",
        ("p=x", "q=x", "p=y", "q=y", "p=z", "q=z")
        + ("p=x q=y", "p=x q=z", "p=y q=x", "p=z q=x", "p=y q=z", "p=z q=y"),
    )
}


def family_counts(g: Graph, nodes: list[int]) -> dict[str, list[int]]:
    """Per family letter, the family's path pairs from each of ``nodes``."""
    roots = [(u,) for u in nodes]
    return {name: match_pattern(g, row, (0,), roots) for name, row in FAMILY_PATTERNS.items()}


@lru_cache(maxsize=None)
def _fixing(edges: Edges, r: int) -> int:
    """How many of the pattern's automorphisms fix vertices 0..r-1: the
    pattern matched into itself with those vertices in place."""
    pattern = Graph.from_edges(1 + max(map(max, edges)), edges)
    return match_pattern(pattern, edges, (0,), [tuple(range(r))])[0]


def rooted_counts(g: Graph, edges: Edges, roots: list[tuple[int, ...]]) -> list[int]:
    """Per r-tuple of ``roots`` (r = 1 or 2), the occurrences of the
    pattern ``edges`` in g with vertices 0..r-1 at the tuple's nodes: the
    rooted matches over the automorphisms that fix those vertices, with
    the division checked.  At (u,) this is u's count of a node motif."""
    fixing = _fixing(edges, len(roots[0]))
    hits = match_pattern(g, edges, (0,), roots)
    return [exact_quotient(h, fixing, "rooted matches") for h in hits]


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


def oracle_pair_count(g: Graph, kind: str, u: int, v: int) -> int:
    """Pair-level ground truth: a ``PAIR_PATTERNS`` kind counted with u and
    v fixed, or "W2".."W4", the u-v walks of that length."""
    if kind in PAIR_PATTERNS:
        return rooted_counts(g, PAIR_PATTERNS[kind], [(u, v)])[0]
    if kind in ("W2", "W3", "W4"):
        return count_walks_between(g, u, v, int(kind[1]))
    raise ValueError(f"unknown pair kind {kind!r}")
