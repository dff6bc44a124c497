"""Brute-force substructure enumeration used as ground truth.

Everything here counts by exhaustive search over the raw adjacency
structure.  It deliberately shares no machinery with the closed-form
counting pipeline beyond the Graph type itself, so the two can check each
other.  Runtime is exponential in motif size; intended for graphs up to a
few hundred nodes with small degree.

Each motif is a pattern: a row of edges in ``PATTERNS``.  One matcher
counts its occurrences (subgraphs, not necessarily induced) into per-node
counts: a node's count is the number of occurrences in which it sits in
the orbit of the pattern's vertex 0, the marked position.  The orbit and
its size (``GRAPH_FACTOR``) come from matching each pattern into itself,
and a graph count is the per-node total over that size, with the division
checked; there is no second enumerator.  Given roots, the same matcher
counts the matches with the pattern's first vertices at fixed nodes.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import CapabilityError, exact_quotient
from .graph import Graph

ORACLE_NODE_CAP = 512


def _cycle(k: int) -> tuple[tuple[int, int], ...]:
    return (*((i, i + 1) for i in range(k - 1)), (0, k - 1))


def _path(k: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(k))


# The oracle's catalog in report order: the count catalog in count's
# order, cycle7 after tr3, with clique4 last.  Each pattern is its edges
# over vertices 0..k-1; vertex 0 is the marked position, and every later
# vertex has a smaller neighbour.
PATTERNS = {
    "cycle3": _cycle(3),  # 0 is any cycle vertex
    "cycle4": _cycle(4),
    "cycle5": _cycle(5),
    "cycle6": _cycle(6),
    "path2": _path(2),  # 0 is an end; pathk has k edges
    "path3": _path(3),
    "path4": _path(4),
    # 0 is the tip of the pendant edge on the triangle 1-2-3
    "tailed_triangle": ((0, 1), (1, 2), (1, 3), (2, 3)),
    # the 4-cycle 0-1-3-2 with the chord 1-2: 0 is off the chord
    "chordal_cycle_cc1": ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)),
    # the 4-cycle 0-2-1-3 with the chord 0-1: 0 is a chord endpoint
    "chordal_cycle_cc2": ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)),
    # a triangle and a rectangle sharing an edge: 0 is the triangle's apex,
    # 1-2 the shared edge and 1-3-4-2 the rectangle
    "tr1": ((0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (2, 4)),
    # 0 is on the shared edge 0-1, 2 the apex, 0-3-4-1 the rectangle
    "tr2": ((0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 4)),
    # 0 is on the rectangle 0-1-3-2 off the shared edge 1-3, 4 the apex
    "tr3": ((0, 1), (0, 2), (2, 3), (1, 3), (1, 4), (3, 4)),
    "cycle7": _cycle(7),
    "clique4": ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)),
}


def _check_cap(g: Graph) -> None:
    if g.n > ORACLE_NODE_CAP:
        raise CapabilityError(
            f"oracle supports at most {ORACLE_NODE_CAP} nodes, got {g.n}"
        )


def _graph(edges: tuple[tuple[int, int], ...]) -> Graph:
    return Graph.from_edges(1 + max(map(max, edges)), edges)


@lru_cache(maxsize=None)
def _steps(edges: tuple[tuple[int, int], ...], orbit: tuple[int, ...], r: int) -> tuple:
    """The search plan of a pattern whose vertices 0..r-1 are placed
    first: for each vertex i >= r (entries below r are None), the smaller
    neighbour whose image's neighbours are its candidates, its other
    smaller neighbours, and whether i is in ``orbit``.  Vertex i goes to
    a common neighbour of its smaller neighbours' images.  Built once per
    (edges, orbit, r)."""
    pattern = _graph(edges).adjacency
    below = [[j for j in pattern[i] if j < i] for i in range(len(pattern))]
    return (*[None] * r, *((b[-1], b[:-1], i in orbit) for i, b in enumerate(below) if i >= r))


def match_pattern(
    g: Graph,
    edges: tuple[tuple[int, int], ...],
    orbit: tuple[int, ...],
    roots: list[tuple[int, ...]] | None = None,
) -> list[int]:
    """Per node, how often an ``orbit`` vertex lands on it, over all
    injective maps of the pattern into g that keep its edges and put every
    ``orbit`` vertex but 0 above vertex 0's image.

    With ``roots``, a batch of r-tuples of nodes (r = 1 or 2) and
    ``orbit`` (0,), instead: per tuple, how many of those maps send
    vertices 0..r-1 to its nodes, in order; none if the tuple repeats a
    node or misses an edge among those vertices.  The batch shares one
    search, so a root costs what its neighbourhood does, whatever g's
    size."""
    r = len(roots[0]) if roots else 1
    steps = _steps(edges, orbit, r)
    k = len(steps)
    adj, nbr = g.adjacency, g.neighbor_sets()
    hits = [0] * g.n
    img = [0] * k
    used = [False] * g.n

    def extend(i: int) -> None:
        if i == k:
            for o in orbit:
                hits[img[o]] += 1
            return
        anchor, back, above = steps[i]
        low = img[0] if above else -1
        cands = adj[img[anchor]]
        for j in back:
            cands = nbr[img[j]].intersection(cands)
        for x in cands:
            if x <= low or used[x]:
                continue
            img[i] = x
            used[x] = True
            extend(i + 1)
            used[x] = False

    if roots is None:
        for v in range(g.n):
            img[0] = v
            used[v] = True
            extend(1)
            used[v] = False
        return hits
    pinned = [(a, b) for a, b in edges if a < r and b < r]
    per_root = []
    for root in roots:
        before = hits[root[0]]
        if len(set(root)) == r and all(root[b] in nbr[root[a]] for a, b in pinned):
            img[:r] = root
            for v in root:
                used[v] = True
            extend(r)
            for v in root:
                used[v] = False
        per_root.append(hits[root[0]] - before)
    return per_root


def _symmetry(edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], int]:
    """Vertex 0's orbit under the pattern's automorphisms, and how many of
    them fix vertex 0: the pattern matched into itself."""
    images = match_pattern(_graph(edges), edges, (0,))
    return tuple(v for v, hits in enumerate(images) if hits), images[0]


_SYMMETRY = {name: _symmetry(edges) for name, edges in PATTERNS.items()}
# node occurrences per graph occurrence: the size of vertex 0's orbit
GRAPH_FACTOR = {name: len(orbit) for name, (orbit, _) in _SYMMETRY.items()}


# ---------------------------------------------------------------------------
# public surface


def check_motifs(names: Iterable[str] | None = None) -> tuple[str, ...]:
    """The motifs that an oracle report lists for ``names``: each once, in
    first-seen order, or, if names is None, every catalog motif but clique4
    (what ``count --d 3`` reports, in its order).  Refuses a name outside
    the catalog."""
    if names is None:
        return tuple(GRAPH_FACTOR)[:-1]
    motifs = tuple(dict.fromkeys(names))
    for name in motifs:
        if name not in GRAPH_FACTOR:
            raise ValueError(f"unknown motif {name!r}")
    return motifs


def oracle_node_counts(g: Graph, name: str) -> list[int]:
    """Exact per-node counts of the named catalog motif, for all nodes at
    once: each occurrence is matched once per automorphism that fixes
    vertex 0, so the matcher's counts are divided by that number, checked."""
    check_motifs([name])
    _check_cap(g)
    orbit, fixing = _SYMMETRY[name]
    hits = match_pattern(g, PATTERNS[name], orbit)
    what = f"{name} matches at a node"
    return [exact_quotient(h, fixing, what) for h in hits]


def graph_total(name: str, per_node: list[int]) -> int:
    """The graph count behind ``per_node``, the oracle's per-node counts of
    ``name``: their total over GRAPH_FACTOR, with the division checked."""
    return exact_quotient(sum(per_node), GRAPH_FACTOR[name], f"{name} node total")


def oracle_graph_count(g: Graph, name: str) -> int:
    """Whole-graph occurrence count of the named catalog motif: the
    per-node total over the orbit size (``GRAPH_FACTOR``), with the
    division checked (``InvariantError``).  No second enumerator runs."""
    return graph_total(name, oracle_node_counts(g, name))
