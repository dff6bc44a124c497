"""Graph helpers that only the tests and scripts use.

Small fixed graphs (paths, complete graphs, stars, the Petersen graph,
double cycles, circulants, the strongly regular pair of the 4x4 rook's
graph and the Shrikhande graph, and triangular and hexagonal lattice
tori), relabelling, BFS distances, and the check that stable colours
determine a per-unit value.  The package's
own generators are in ``drfwl.graph``; these live here because no runtime
path calls them.
"""
from __future__ import annotations

from typing import Sequence

from drfwl.graph import Graph, gen_cycle, gen_disjoint_union
from drfwl.refine import Coloring
from drfwl.tuples import TupleIndex


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Shortest-path distance from source to every node; -1 if unreachable."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[int] = []
        for u in frontier:
            for w in g.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def diameter(g: Graph) -> int:
    """Largest finite distance; -1 for a disconnected or empty graph."""
    if g.n == 0:
        return -1
    best = 0
    for v in range(g.n):
        dist = bfs_distances(g, v)
        if min(dist) < 0:
            return -1
        best = max(best, max(dist))
    return best


def gen_path(n: int) -> Graph:
    """Path graph on n nodes (n - 1 edges)."""
    if n < 1:
        raise ValueError("a path needs at least 1 node")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def gen_complete(n: int) -> Graph:
    """Complete graph K_n."""
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def gen_star(leaves: int) -> Graph:
    """Star with one center (node 0) and ``leaves`` leaves."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def gen_petersen() -> Graph:
    """The Petersen graph (outer 5-cycle, inner pentagram, spokes)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def double_cycle(k: int) -> Graph:
    """Two disjoint k-cycles."""
    return gen_disjoint_union([gen_cycle(k), gen_cycle(k)])


def gen_circulant(n: int, jumps: Sequence[int]) -> Graph:
    """The circulant C_n(jumps): v is adjacent to v + s and v - s mod n for
    each jump s, 0 < s < n."""
    return Graph.from_edges(n, ((v, (v + s) % n) for v in range(n) for s in jumps))


def gen_rook44() -> Graph:
    """The 4x4 rook's graph K4 x K4: cell (i, j) is node 4i + j, adjacent
    to the other cells of its row and of its column."""
    return Graph.from_edges(
        16, ((a, b) for a in range(16) for b in range(a) if a // 4 == b // 4 or a % 4 == b % 4)
    )


def gen_shrikhande() -> Graph:
    """The Shrikhande graph: the Cayley graph of Z4 x Z4, (x, y) as node
    4x + y, with generators +-(1, 0), +-(0, 1) and +-(1, 1).  Like the rook's
    graph it is strongly regular with parameters (16, 6, 2, 2)."""
    return Graph.from_edges(
        16,
        (
            (4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4)
            for x in range(4)
            for y in range(4)
            for dx, dy in ((1, 0), (0, 1), (1, 1))
        ),
    )


def gen_triangular_torus(a: int, b: int) -> Graph:
    """The triangular lattice on an a x b torus: (x, y), as node b*x + y, is
    adjacent to (x + 1, y), (x, y + 1) and (x + 1, y + 1), mod the sides."""
    return Graph.from_edges(
        a * b,
        (
            (b * x + y, b * ((x + dx) % a) + (y + dy) % b)
            for x in range(a)
            for y in range(b)
            for dx, dy in ((1, 0), (0, 1), (1, 1))
        ),
    )


def gen_hexagonal_torus(a: int, b: int) -> Graph:
    """The hexagonal lattice on an a x b torus, both sides even, as a brick
    wall: (x, y), as node b*x + y, is adjacent to (x + 1, y), and to
    (x, y + 1) when x + y is even, mod the sides."""
    return Graph.from_edges(
        a * b,
        (
            (b * x + y, b * ((x + dx) % a) + (y + dy) % b)
            for x in range(a)
            for y in range(b)
            for dx, dy in ((1, 0), (0, 1))
            if dx or (x + y) % 2 == 0
        ),
    )


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node u becomes perm[u]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def undetermined(
    colorings: Sequence[Coloring],
    values: Sequence[Sequence[object]],
    indexes: Sequence[TupleIndex] | None = None,
) -> int:
    """Units whose value differs from the first value seen for their
    colour, over the colorings of one lockstep ``_refine_multi`` run.

    ``colorings[i]`` is graph i's, its colours by unit id.  Without
    ``indexes``, ``values[i][t]`` belongs to unit t; with them, it belongs
    to node t, coloured by its tuple (t, t) in ``indexes[i]``.
    """
    colors = [c.colors for c in colorings]
    if indexes is not None:
        colors = [[cs[row[u]] for u, row in enumerate(i.rows)] for cs, i in zip(colors, indexes)]
    first: dict[int, object] = {}
    return sum(
        first.setdefault(c, x) != x for cs, xs in zip(colors, values) for c, x in zip(cs, xs)
    )
