"""Immutable simple undirected graphs, edge-list parsing and generators.

Graphs are stored in compressed form: one sorted neighbor tuple per node.
All generators are driven by an explicit splitmix64 stream so that a given
seed produces the same graph on every platform and Python version.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class GraphFormatError(ValueError):
    """Raised when edge-list input is malformed (bad token, self-loop...)."""


_MASK64 = (1 << 64) - 1

# restarts of gen_random_regular's stub pairing before it gives up
REGULAR_MAX_RETRIES = 200


class SplitMix64:
    """splitmix64 pseudo-random stream; deterministic across platforms."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            z = self.next_u64()
            if z <= limit:
                return z % bound

    def chance(self, p: float) -> bool:
        """True with probability p."""
        return self.next_u64() < int(p * (1 << 64))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class Graph(NamedTuple):
    """Simple undirected graph over nodes 0..n-1.

    ``adjacency[u]`` is the sorted tuple of neighbors of u.  Invariants
    (no self-loops, no duplicates, symmetry) are enforced by ``from_edges``.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from undirected edges; duplicates collapse."""
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
        m = sum(len(a) for a in adjacency) // 2
        return Graph(n=n, adjacency=adjacency, m=m)

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency]

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adjacency[u]
        lo, hi = 0, len(a)
        while lo < hi:
            mid = (lo + hi) // 2
            if a[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(a) and a[lo] == v

    def edges(self) -> list[tuple[int, int]]:
        """All undirected edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def neighbor_sets(self) -> list[frozenset[int]]:
        return [frozenset(a) for a in self.adjacency]

    def to_edge_list(self) -> str:
        """Serialize in the text format accepted by ``parse_edge_list``."""
        lines = [f"n {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse edge-list text: one "u v" pair per line.

    Lines starting with '#' and blank lines are skipped.  An optional first
    line "n <count>" forces a minimum node count (ids may leave gaps, which
    become isolated nodes).  Duplicate edges collapse; self-loops and
    non-integer tokens are rejected with their line number.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"input is not UTF-8 text: {exc}") from None
    forced_n = 0
    seen_header = False
    seen_edges = False
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if seen_header or seen_edges:
                raise GraphFormatError(
                    f"line {lineno}: header 'n <count>' must be the first data line"
                )
            if len(tokens) != 2:
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                forced_n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: non-integer node count {tokens[1]!r}"
                ) from None
            if forced_n < 0:
                raise GraphFormatError(f"line {lineno}: negative node count")
            seen_header = True
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: non-integer token in {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative node id in {line!r}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop {u} {u}")
        seen_edges = True
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = max(forced_n, max_id + 1)
    return Graph.from_edges(n, edges)


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


def khop(g: Graph, v: int, d: int) -> tuple[tuple[int, ...], ...]:
    """K-hop shells of v by BFS truncated at depth d.

    Entry k is the sorted tuple N_k(v) of nodes at distance exactly k, so
    entry 0 is ``(v,)``.  The entries stop at the last non-empty shell, at
    depth d or sooner, so a missing entry k <= d is empty.  Work is
    proportional to the edges within d hops of v, not to n or d.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"node {v} out of range for n={g.n}")
    if d < 1:
        raise ValueError("d must be >= 1")
    seen = {v}
    frontier = [v]
    shells: list[tuple[int, ...]] = [(v,)]
    for _ in range(d):
        nxt: list[int] = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        nxt.sort()
        shells.append(tuple(nxt))
        frontier = nxt
    return tuple(shells)


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


def gen_cycle(n: int) -> Graph:
    """Cycle graph C_n (n >= 3)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


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


def gen_disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; node ids of each graph are shifted past the previous."""
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph.from_edges(offset, edges)


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one splitmix64 draw per node pair, in (u, v) order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = SplitMix64(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(p)
    ]
    return Graph.from_edges(n, edges)


def gen_random_regular(n: int, r: int, seed: int) -> Graph:
    """Random r-regular graph via stub pairing with local rejection.

    Each attempt pairs degree stubs one by one, redrawing a partner when
    the pick would create a loop or duplicate edge, and restarts from
    scratch on a dead end.  Requires n*r even and r < n.
    """
    if r < 0 or n < 0:
        raise ValueError("n and r must be non-negative")
    if r >= n and not (n == 0 and r == 0):
        raise ValueError("r must be smaller than n")
    if (n * r) % 2 != 0:
        raise ValueError("n*r must be even")
    rng = SplitMix64(seed)
    for _ in range(REGULAR_MAX_RETRIES):
        stubs = [u for u in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        while stubs and ok:
            u = stubs.pop()
            redraws = 0
            while True:
                if not stubs:
                    ok = False
                    break
                j = rng.below(len(stubs))
                v = stubs[j]
                key = (u, v) if u < v else (v, u)
                if v != u and key not in edges:
                    stubs[j] = stubs[-1]
                    stubs.pop()
                    edges.add(key)
                    break
                redraws += 1
                if redraws > 50 + 10 * len(stubs):
                    ok = False
                    break
        if ok:
            return Graph.from_edges(n, sorted(edges))
    raise ValueError(f"could not realize an r-regular graph after {REGULAR_MAX_RETRIES} tries")


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node u becomes perm[u]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
