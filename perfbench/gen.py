"""Seeded workload inputs, independent of the drfwl package.

Random r-regular graphs come from the pairing (configuration) model with
plain rejection: stubs are matched uniformly at random, and the whole
matching is thrown away at the first self-loop or repeated edge, so every
accepted graph is simple and uniformly distributed over simple r-regular
graphs.  The stream is splitmix64 keyed by a SHA-256 of the caller's
labels, so a seed gives the same graph on every platform and Python
version, and nothing in ``drfwl.graph`` can change the inputs.
"""
from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


class Stream:
    """splitmix64 generator with unbiased bounded draws."""

    def __init__(self, *labels: object):
        digest = hashlib.sha256(":".join(map(str, labels)).encode()).digest()
        self._state = int.from_bytes(digest[:8], "little")

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            z = self.next_u64()
            if z <= limit:
                return z % bound


def random_regular(n: int, r: int, stream: Stream) -> list[tuple[int, int]]:
    """Sorted edges (u < v) of a simple r-regular graph on n nodes."""
    if r >= n or (n * r) % 2:
        raise ValueError(f"no simple {r}-regular graph on {n} nodes")
    while True:
        stubs = [u for u in range(n) for _ in range(r)]
        edges: set[tuple[int, int]] = set()
        while stubs:
            u = stubs.pop()
            j = stream.below(len(stubs))
            v = stubs[j]
            stubs[j] = stubs[-1]
            stubs.pop()
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return sorted(edges)


def adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def cycle_counts(n: int, edges: list[tuple[int, int]], max_len: int) -> tuple[int, ...]:
    """Number of simple cycles of each length 3..max_len, by DFS.

    Each cycle is counted once from its smallest node, in both directions,
    hence the halving.
    """
    adj = adjacency(n, edges)
    counts = [0] * (max_len + 1)

    def extend(start: int, here: int, length: int, on_path: set[int]) -> None:
        for w in adj[here]:
            if w == start and length >= 3:
                counts[length] += 1
            elif w > start and w not in on_path and length < max_len:
                on_path.add(w)
                extend(start, w, length + 1, on_path)
                on_path.discard(w)

    for s in range(n):
        extend(s, s, 1, {s})
    return tuple(c // 2 for c in counts[3:])


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The edge-list file format: an ``n`` header, then one edge a line."""
    return "".join([f"n {n}\n", *(f"{u} {v}\n" for u, v in edges)])


def distinct_pair(
    n: int, r: int, seed: int, label: str, max_len: int = 5
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], tuple, tuple]:
    """Two random r-regular graphs whose cycle counts up to max_len differ.

    A difference in any cycle count proves the pair non-isomorphic, so a
    correct refinement verdict on it is known in advance.  The second
    graph is redrawn from the next sub-stream until the counts differ.
    """
    first = random_regular(n, r, Stream(label, seed, "a"))
    sig_a = cycle_counts(n, first, max_len)
    attempt = 0
    while True:
        second = random_regular(n, r, Stream(label, seed, "b", attempt))
        sig_b = cycle_counts(n, second, max_len)
        if sig_a != sig_b:
            return first, second, sig_a, sig_b
        attempt += 1
