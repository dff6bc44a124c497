"""Brute-force substructure enumeration used as ground truth.

Everything here counts by exhaustive search over the raw adjacency
structure.  It deliberately shares no machinery with the closed-form
counting pipeline beyond the Graph type itself, so the two can check each
other.  Runtime is exponential in motif size; intended for graphs up to a
few hundred nodes with small degree.

Position conventions for the marked-node motifs:

  tailed_triangle   u is the tip of the pendant edge.
  chordal_cycle_cc1 u is one of the two off-chord (degree-2) vertices.
  chordal_cycle_cc2 u is one of the two chord endpoints.
  tr1               u is the triangle apex (not on the shared edge).
  tr2               u is one of the two shared-edge vertices.
  tr3               u is a rectangle vertex off the shared edge.

Pair-level counts follow the same drawings with a second marked node; see
``oracle_pair_count``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError, InvariantError
from .graph import Graph

ORACLE_NODE_CAP = 512

CYCLE_MOTIFS = {f"cycle{k}": k for k in range(3, 13)}
PATH_MOTIFS = {f"path{k}": k for k in range(2, 5)}
MARKED_MOTIFS = (
    "tailed_triangle",
    "chordal_cycle_cc1",
    "chordal_cycle_cc2",
    "tr1",
    "tr2",
    "tr3",
    "clique4",
)
MOTIF_CATALOG = tuple(CYCLE_MOTIFS) + tuple(PATH_MOTIFS) + MARKED_MOTIFS


@dataclass(frozen=True)
class MotifSpec:
    """A motif id from the fixed catalog."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in MOTIF_CATALOG:
            raise ValueError(f"unknown motif {self.name!r}")


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


def count_cycles_graph(g: Graph, length: int) -> int:
    """Whole-graph simple cycle count, by an enumeration independent of
    the per-node attribution above (used for self-consistency checks)."""
    _check_cap(g)
    adj = g.adjacency
    total = 0
    second = [0]

    def extend(start: int, here: int, depth: int, on_path: set[int]) -> None:
        nonlocal total
        if depth == length - 1:
            for w in adj[here]:
                if w == start and second[0] < here:
                    total += 1
            return
        for w in adj[here]:
            if w > start and w not in on_path:
                on_path.add(w)
                extend(start, w, depth + 1, on_path)
                on_path.remove(w)

    for s in range(g.n):
        for w in adj[s]:
            if w > s:
                second[0] = w
                extend(s, w, 1, {w})
    return total


# ---------------------------------------------------------------------------
# paths and walks


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


def count_paths_between(g: Graph, u: int, v: int, length: int) -> int:
    """Simple paths with ``length`` edges from u to v."""
    _check_cap(g)
    if u == v:
        return 0
    adj = g.adjacency
    total = 0

    def extend(here: int, depth: int, visited: set[int]) -> None:
        nonlocal total
        if depth == length:
            if here == v:
                total += 1
            return
        for w in adj[here]:
            if w == v:
                if depth + 1 == length:
                    total += 1
                continue
            if w not in visited:
                visited.add(w)
                extend(w, depth + 1, visited)
                visited.remove(w)

    extend(u, 0, {u})
    return total


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
    """A^k as dense integer lists, by naive multiplication (test aid)."""
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
    k_paths = _paths_between_interiors(g, u, v, k)
    l_paths = _paths_between_interiors(g, u, v, l)
    total = 0
    for a in k_paths:
        for b in l_paths:
            if not (a & b):
                total += 1
    if k == l:
        total //= 2
    return total


def _paths_between_interiors(g: Graph, u: int, v: int, length: int) -> list[frozenset[int]]:
    """Interior vertex sets of simple length-edge paths from u to v."""
    out: list[frozenset[int]] = []
    adj = g.adjacency

    def extend(here: int, depth: int, visited: list[int]) -> None:
        if depth == length - 1:
            for w in adj[here]:
                if w == v:
                    out.append(frozenset(visited))
            return
        for w in adj[here]:
            if w != u and w != v and w not in visited:
                visited.append(w)
                extend(w, depth + 1, visited)
                visited.pop()

    if length == 1:
        return [frozenset()] if g.has_edge(u, v) else []
    extend(u, 0, [])
    return out


# ---------------------------------------------------------------------------
# marked motifs, enumerated globally and attributed to positions


def _triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    nbr = g.neighbor_sets()
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
        for a, b, c in _triangles(g):
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
        for a, b, c in _triangles(g):
            for w in nbr[a] & nbr[b] & nbr[c]:
                if w > c:
                    for x in (a, b, c, w):
                        counts[x] += 1
        return counts

    raise ValueError(f"not a marked motif: {name!r}")


# ---------------------------------------------------------------------------
# public surface


def oracle_node_counts(g: Graph, spec: MotifSpec | str) -> list[int]:
    """Exact per-node counts of the motif, for all nodes at once."""
    name = spec.name if isinstance(spec, MotifSpec) else MotifSpec(name=spec).name
    if name in CYCLE_MOTIFS:
        return count_cycles_per_node(g, CYCLE_MOTIFS[name])
    if name in PATH_MOTIFS:
        _check_cap(g)
        k = PATH_MOTIFS[name]
        return [count_paths_from(g, u, k) for u in range(g.n)]
    return count_marked_per_node(g, name)


def oracle_node_count(g: Graph, spec: MotifSpec | str, u: int) -> int:
    """Exact count of motif occurrences with u at the marked position."""
    if not (0 <= u < g.n):
        raise ValueError(f"node {u} out of range")
    return oracle_node_counts(g, spec)[u]


def oracle_graph_count(g: Graph, spec: MotifSpec | str) -> int:
    """Whole-graph occurrence count of the motif."""
    name = spec.name if isinstance(spec, MotifSpec) else MotifSpec(name=spec).name
    if name in CYCLE_MOTIFS:
        return count_cycles_graph(g, CYCLE_MOTIFS[name])
    if name in PATH_MOTIFS:
        return sum(oracle_node_counts(g, name)) // 2
    per_node = count_marked_per_node(g, name)
    factor = {
        "tailed_triangle": 1,
        "chordal_cycle_cc1": 2,
        "chordal_cycle_cc2": 2,
        "tr1": 1,
        "tr2": 2,
        "tr3": 2,
        "clique4": 4,
    }[name]
    total = sum(per_node)
    if total % factor:
        raise InvariantError(f"{name}: node total {total} not divisible by {factor}")
    return total // factor


def oracle_pair_count(g: Graph, kind: str, u: int, v: int) -> int:
    """Pair-level ground truth.

    ``kind`` is one of "P2".."P4" (paths u->v), "W2".."W4" (walks),
    "C23"/"C24"/"C34"/"C13"/"C14" (split cycles), "T" (tailed triangle,
    u = tip, v = far triangle vertex), "CC1" (u on chord, v off-chord),
    "CC2" (u, v both on the chord), "TR1" (u apex, v on shared edge),
    "TR2" (u on shared edge, v the opposite rectangle corner).
    """
    _check_cap(g)
    nbr = g.neighbor_sets()
    if kind.startswith("P") and kind[1:].isdigit():
        return count_paths_between(g, u, v, int(kind[1:]))
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
    if kind == "TR1":
        if not g.has_edge(u, v):
            return 0
        total = 0
        for z in nbr[u] & nbr[v]:
            for interior in _paths_between_interiors(g, z, v, 3):
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
