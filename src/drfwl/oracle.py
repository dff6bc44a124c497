"""Brute-force substructure enumeration used as ground truth.

Everything here counts by exhaustive search over the raw adjacency
structure.  It deliberately shares no machinery with the closed-form
counting pipeline beyond the Graph type itself, so the two can check each
other.  Runtime is exponential in motif size; intended for graphs up to a
few hundred nodes with small degree.

Each motif is enumerated once, into per-node counts.  A graph count is
the per-node total divided by the motif's orbit size (``GRAPH_FACTOR``),
with the division checked; there is no second enumerator.

Position conventions for the marked-node motifs:

  tailed_triangle   u is the tip of the pendant edge.
  chordal_cycle_cc1 u is one of the two off-chord (degree-2) vertices.
  chordal_cycle_cc2 u is one of the two chord endpoints.
  tr1               u is the triangle apex (not on the shared edge).
  tr2               u is one of the two shared-edge vertices.
  tr3               u is a rectangle vertex off the shared edge.
"""
from __future__ import annotations

from typing import Iterable

from .errors import CapabilityError, InvariantError
from .graph import Graph

ORACLE_NODE_CAP = 512

CYCLE_MOTIFS = {f"cycle{k}": k for k in range(3, 8)}
PATH_MOTIFS = {f"path{k}": k for k in range(2, 5)}
# The oracle's catalog in report order, each motif with its orbit factor:
# the node occurrences per graph occurrence (a k-cycle has k nodes, a path
# two end nodes, its per-node counts directed from the start, and a marked
# motif the size of its marked orbit).  It is the count catalog in count's
# order, cycle7 after tr3, with clique4 last.
GRAPH_FACTOR = {
    "cycle3": 3,
    "cycle4": 4,
    "cycle5": 5,
    "cycle6": 6,
    **dict.fromkeys(PATH_MOTIFS, 2),
    "tailed_triangle": 1,
    "chordal_cycle_cc1": 2,
    "chordal_cycle_cc2": 2,
    "tr1": 1,
    "tr2": 2,
    "tr3": 2,
    "cycle7": 7,
    "clique4": 4,
}


def _check_cap(g: Graph) -> None:
    if g.n > ORACLE_NODE_CAP:
        raise CapabilityError(
            f"oracle supports at most {ORACLE_NODE_CAP} nodes, got {g.n}"
        )


# ---------------------------------------------------------------------------
# cycles


def count_cycles_per_node(g: Graph, length: int) -> list[int]:
    """C_length(u) for every u: simple cycles through u, each counted once.

    Enumerates each cycle from its smallest vertex, walking only larger
    vertices, in one rotational direction (second vertex < last vertex).
    """
    _check_cap(g)
    counts = [0] * g.n
    adj = g.adjacency
    path = [0] * (length + 1)

    def extend(start: int, here: int, depth: int, on_path: set[int]) -> None:
        if depth == length - 1:
            for w in adj[here]:
                if w == start and path[1] < here:
                    for x in on_path:
                        counts[x] += 1
                    counts[start] += 1
            return
        for w in adj[here]:
            if w > start and w not in on_path:
                path[depth + 1] = w
                on_path.add(w)
                extend(start, w, depth + 1, on_path)
                on_path.remove(w)

    for s in range(g.n):
        path[0] = s
        for w in adj[s]:
            if w > s:
                path[1] = w
                extend(s, w, 1, {w})
    return counts


# ---------------------------------------------------------------------------
# paths


def count_paths_from(g: Graph, u: int, length: int) -> int:
    """Simple paths with ``length`` edges starting at u (directed from u)."""
    _check_cap(g)
    adj = g.adjacency
    total = 0

    def extend(here: int, depth: int, visited: set[int]) -> None:
        nonlocal total
        if depth == length:
            total += 1
            return
        for w in adj[here]:
            if w not in visited:
                visited.add(w)
                extend(w, depth + 1, visited)
                visited.remove(w)

    extend(u, 0, {u})
    return total


# ---------------------------------------------------------------------------
# marked motifs, enumerated globally and attributed to positions


def _triangles(g: Graph, nbr: list[frozenset[int]]) -> list[tuple[int, int, int]]:
    out = []
    for a, b in g.edges():
        for c in g.adjacency[a]:
            if c > b and c in nbr[b]:
                out.append((a, b, c))
    return out


def count_marked_per_node(g: Graph, name: str) -> list[int]:
    """Per-node counts for every position-marked motif in the catalog."""
    _check_cap(g)
    n = g.n
    nbr = g.neighbor_sets()
    counts = [0] * n

    if name == "tailed_triangle":
        for a, b, c in _triangles(g, nbr):
            for w in (a, b, c):
                for t in g.adjacency[w]:
                    if t != a and t != b and t != c:
                        counts[t] += 1
        return counts

    if name in ("chordal_cycle_cc1", "chordal_cycle_cc2"):
        for a, b in g.edges():  # the chord
            common = sorted(nbr[a] & nbr[b])
            for i, c in enumerate(common):
                for dd in common[i + 1 :]:
                    if name == "chordal_cycle_cc2":
                        counts[a] += 1
                        counts[b] += 1
                    else:
                        counts[c] += 1
                        counts[dd] += 1
        return counts

    if name in ("tr1", "tr2", "tr3"):
        for q, r in g.edges():  # the shared edge
            apexes = nbr[q] & nbr[r]
            for x in g.adjacency[q]:
                if x == r:
                    continue
                for y in nbr[x]:
                    if y == q or y == r or y == x:
                        continue
                    if r not in nbr[y]:
                        continue
                    # rectangle q-x-y-r-q on the shared edge q-r; each
                    # edge-set occurrence is reached exactly once because
                    # x is forced to be the cycle neighbor of q
                    for p in apexes:
                        if p != x and p != y:
                            if name == "tr1":
                                counts[p] += 1
                            elif name == "tr2":
                                counts[q] += 1
                                counts[r] += 1
                            else:
                                counts[x] += 1
                                counts[y] += 1
        return counts

    if name == "clique4":
        for a, b, c in _triangles(g, nbr):
            for w in nbr[a] & nbr[b] & nbr[c]:
                if w > c:
                    for x in (a, b, c, w):
                        counts[x] += 1
        return counts

    raise ValueError(f"not a marked motif: {name!r}")


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
    """Exact per-node counts of the named catalog motif, for all nodes at once."""
    check_motifs([name])
    if name in CYCLE_MOTIFS:
        return count_cycles_per_node(g, CYCLE_MOTIFS[name])
    if name in PATH_MOTIFS:  # count_paths_from checks the size cap
        return [count_paths_from(g, u, PATH_MOTIFS[name]) for u in range(g.n)]
    return count_marked_per_node(g, name)


def graph_total(name: str, per_node: list[int]) -> int:
    """The graph count behind ``per_node``, the oracle's per-node counts of
    ``name``: their total over GRAPH_FACTOR, with the division checked."""
    factor = GRAPH_FACTOR[name]
    total = sum(per_node)
    if total % factor:
        raise InvariantError(f"{name}: node total {total} not divisible by {factor}")
    return total // factor


def oracle_graph_count(g: Graph, name: str) -> int:
    """Whole-graph occurrence count of the named catalog motif: the
    per-node total over the orbit size (``GRAPH_FACTOR``), with the
    division checked (``InvariantError``).  No second enumerator runs."""
    return graph_total(name, oracle_node_counts(g, name))
