"""Graph helpers that only the tests and scripts use.

Small fixed graphs (paths, complete graphs, stars, the Petersen graph),
relabelling, and BFS distances.  The package's own generators are in
``drfwl.graph``; these live here because no runtime path calls them.
"""
from __future__ import annotations

from typing import Sequence

from drfwl.graph import Graph


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


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node u becomes perm[u]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
