"""Color refinement: WL(1), dense FWL(2), and the distance-restricted test.

All three refinements realize injective hashing literally: each round
builds the full composite key per unit, sorts the distinct keys, and
assigns dense ranks.  There is no probabilistic hashing, so two units get
equal colors iff their keys are equal, and certificates are portable
across runs and platforms.

Cross-graph comparison runs the refinements on both graphs in lockstep
with a shared key-to-rank table (equivalent, for the node and
distance-restricted tests, to refining the disjoint union): color ids from
the two graphs are then directly comparable and a per-graph multiset split
yields the verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import CapabilityError, InvariantError
from .graph import Graph
from .tuples import TupleIndex, build_index, intersect

FWL2_DENSE_CAP = 256

METHODS = ("wl1", "fwl2", "drfwl")

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class Coloring:
    """Stable coloring of one graph's units under one refinement method.

    Units are nodes for wl1, all ordered node pairs (row-major) for fwl2,
    and the TupleIndex tuples for drfwl.  Color ids are dense 0..c-1 and
    canonical: they depend only on the isomorphism class of the graph.
    ``class_counts`` records the partition size after each round, starting
    from the initial coloring; it is strictly increasing until the last
    entry, which repeats its predecessor (the stability check).
    """

    method: str
    d: int | None
    colors: tuple[int, ...]
    iterations: int
    class_counts: tuple[int, ...] = ()


@dataclass(frozen=True)
class Certificate:
    """Canonical multiset fingerprint of a stable coloring."""

    method: str
    d: int | None
    counts: tuple[tuple[int, int], ...]

    def serialize(self) -> str:
        """Versioned one-line text form for golden-file comparison."""
        d = "-" if self.d is None else str(self.d)
        body = ",".join(f"{c}:{k}" for c, k in self.counts)
        return f"certv1;{self.method};{d};{body}"


def _compress(keys: list) -> tuple[list[int], int]:
    """Dense canonical ranks of comparable keys."""
    distinct = sorted(set(keys))
    rank = {k: i for i, k in enumerate(distinct)}
    return [rank[k] for k in keys], len(distinct)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Ordered map on the calling thread; ``threads`` has no effect.

    Round keys go through this named function so that the benchmark probe
    (perfbench/probe.py) can time them by wrapping it.
    """
    return [fn(x) for x in items]


def _refine_to_stability(
    init_keys: list, key_fn
) -> tuple[list[int], int, tuple[int, ...]]:
    """Iterate key_fn until the partition stops refining.

    key_fn(unit, colors) must produce a comparable key whose first
    component is colors[unit], which guarantees each round refines the
    previous partition; stability within #units rounds follows.
    """
    total = len(init_keys)
    if total == 0:
        return [], 0, ()
    colors, classes = _compress(init_keys)
    history = [classes]
    iterations = 0
    for _ in range(total + 1):
        keys = parallel_map(lambda t: key_fn(t, colors), range(total))
        new_colors, new_classes = _compress(keys)
        iterations += 1
        history.append(new_classes)
        if new_classes == classes:
            return new_colors, iterations, tuple(history)
        colors, classes = new_colors, new_classes
    raise InvariantError("refinement exceeded its iteration cap")


# ---------------------------------------------------------------------------
# lockstep refinements over one or more graphs


def _wl1_multi(graphs: Sequence[Graph]) -> tuple[list[list[int]], int, tuple[int, ...]]:
    offsets = []
    total = 0
    for g in graphs:
        offsets.append(total)
        total += g.n
    owner: list[tuple[Graph, int]] = [
        (g, offsets[gi]) for gi, g in enumerate(graphs) for _ in range(g.n)
    ]
    local = [v for g in graphs for v in range(g.n)]

    def key_fn(t: int, colors: list[int]):
        g, off = owner[t]
        v = local[t]
        return (colors[t], tuple(sorted(colors[off + w] for w in g.adjacency[v])))

    colors, iterations, history = _refine_to_stability([0] * total, key_fn)
    out = [colors[offsets[gi] : offsets[gi] + g.n] for gi, g in enumerate(graphs)]
    return out, iterations, history


def _fwl2_multi(
    graphs: Sequence[Graph], dense_cap: int
) -> tuple[list[list[int]], int, tuple[int, ...]]:
    for g in graphs:
        if g.n > dense_cap:
            raise CapabilityError(
                f"fwl2 is dense O(n^3); n={g.n} exceeds the cap of {dense_cap}"
            )
    offsets = []
    total = 0
    for g in graphs:
        offsets.append(total)
        total += g.n * g.n
    meta: list[tuple[Graph, int, int, int]] = []
    init: list[int] = []
    for gi, g in enumerate(graphs):
        off = offsets[gi]
        for u in range(g.n):
            for v in range(g.n):
                meta.append((g, off, u, v))
                if u == v:
                    init.append(0)
                elif g.has_edge(u, v):
                    init.append(1)
                else:
                    init.append(2)

    def key_fn(t: int, colors: list[int]):
        g, off, u, v = meta[t]
        n = g.n
        row_u = off + u * n
        return (
            colors[t],
            tuple(sorted((colors[off + w * n + v], colors[row_u + w]) for w in range(n))),
        )

    colors, iterations, history = _refine_to_stability(init, key_fn)
    out = [
        colors[offsets[gi] : offsets[gi] + g.n * g.n] for gi, g in enumerate(graphs)
    ]
    return out, iterations, history


def admissible_triples(d: int) -> list[tuple[int, int, int]]:
    """All (i, j, k) with 0 <= i,j,k <= d and |i-j| <= k <= i+j."""
    return [
        (i, j, k)
        for i in range(d + 1)
        for j in range(d + 1)
        for k in range(d + 1)
        if abs(i - j) <= k <= i + j
    ]


def _validate_mask(mask: Iterable[tuple[int, int, int]] | None, d: int) -> frozenset:
    if mask is None:
        return frozenset()
    allowed = set(admissible_triples(d))
    out = set()
    for triple in mask:
        t = tuple(triple)
        if len(t) != 3 or t not in allowed:
            raise ValueError(f"invalid mask triple {triple!r} for d={d}")
        out.add(t)
    return frozenset(out)


def _drfwl_blocks(
    idx: TupleIndex, offset: int, masked: frozenset
) -> list[list[tuple[tuple[int, int], ...]]]:
    """Per tuple, per admissible (i, j) channel, the (id(w,v), id(u,w))
    index pairs that feed its multiset.  Fixed once; reused each round."""
    d = idx.d
    pid = idx.pair_id
    blocks: list[list[tuple[tuple[int, int], ...]]] = []
    channels_for_k = [
        [(i, j) for i in range(d + 1) for j in range(d + 1) if abs(i - j) <= k <= i + j]
        for k in range(d + 1)
    ]
    for u, v, k in idx.pairs:
        per_pair = []
        for i, j in channels_for_k[k]:
            if (i, j, k) in masked:
                continue
            ws = intersect(idx, u, v, i, j)
            per_pair.append(
                tuple((offset + pid[(w, v)], offset + pid[(u, w)]) for w in ws)
            )
        blocks.append(per_pair)
    return blocks


def _drfwl_multi(
    graphs: Sequence[Graph],
    d: int,
    mask: Iterable[tuple[int, int, int]] | None,
) -> tuple[list[list[int]], int, tuple[int, ...]]:
    masked = _validate_mask(mask, d)
    indexes = [build_index(g, d) for g in graphs]
    offsets = []
    total = 0
    for idx in indexes:
        offsets.append(total)
        total += idx.tuple_count
    init = [k for idx in indexes for (_, _, k) in idx.pairs]
    blocks: list[list[tuple[tuple[int, int], ...]]] = []
    for gi, idx in enumerate(indexes):
        blocks.extend(_drfwl_blocks(idx, offsets[gi], masked))

    def key_fn(t: int, colors: list[int]):
        return (
            colors[t],
            tuple(
                tuple(sorted((colors[a], colors[b]) for a, b in block))
                for block in blocks[t]
            ),
        )

    colors, iterations, history = _refine_to_stability(init, key_fn)
    out = [
        colors[offsets[gi] : offsets[gi] + idx.tuple_count]
        for gi, idx in enumerate(indexes)
    ]
    return out, iterations, history


# ---------------------------------------------------------------------------
# public operations


def wl1_refine(g: Graph, threads: int = 1) -> Coloring:
    """Classic node color refinement from a uniform initial color.

    ``threads`` has no effect; results are identical for every value.
    """
    per_graph, iterations, history = _wl1_multi([g])
    return Coloring("wl1", None, tuple(per_graph[0]), iterations, history)


def fwl2_refine(g: Graph, threads: int = 1, dense_cap: int = FWL2_DENSE_CAP) -> Coloring:
    """Dense folklore 2-tuple refinement; atomic-type initial colors.

    ``threads`` has no effect; results are identical for every value.
    """
    per_graph, iterations, history = _fwl2_multi([g], dense_cap)
    return Coloring("fwl2", None, tuple(per_graph[0]), iterations, history)


def drfwl_refine(
    g: Graph,
    d: int,
    mask: Iterable[tuple[int, int, int]] | None = None,
    threads: int = 1,
) -> Coloring:
    """Distance-restricted 2-tuple refinement over pairs with d(u,v) <= d.

    Tuple (u, v) starts from color d(u, v) and each round aggregates, for
    every admissible channel (i, j), the multiset of color pairs
    (color(w, v), color(u, w)) over w in N_i(u) & N_j(v).  Channels listed
    in ``mask`` (as (i, j, k) triples) contribute nothing.  ``threads``
    has no effect; results are identical for every value.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    per_graph, iterations, history = _drfwl_multi([g], d, mask)
    return Coloring("drfwl", d, tuple(per_graph[0]), iterations, history)


def _histogram(colors: Sequence[int]) -> tuple[tuple[int, int], ...]:
    hist: dict[int, int] = {}
    for c in colors:
        hist[c] = hist.get(c, 0) + 1
    return tuple(sorted(hist.items()))


def certificate(coloring: Coloring) -> Certificate:
    """Sorted color histogram of a stable coloring."""
    return Certificate(
        method=coloring.method,
        d=coloring.d,
        counts=_histogram(coloring.colors),
    )


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of comparing two graphs under one refinement method."""

    distinguished: bool
    method: str
    d: int | None
    iterations: int
    histogram_a: tuple[tuple[int, int], ...]
    histogram_b: tuple[tuple[int, int], ...]


def refine_pair(
    g1: Graph,
    g2: Graph,
    method: str,
    d: int = 2,
    mask: Iterable[tuple[int, int, int]] | None = None,
    threads: int = 1,
    dense_cap: int = FWL2_DENSE_CAP,
) -> PairVerdict:
    """Lockstep refinement of two graphs; compares per-graph multisets.

    ``threads`` has no effect; results are identical for every value.
    """
    if method == "wl1":
        per_graph, iterations, _ = _wl1_multi([g1, g2])
        d_out: int | None = None
    elif method == "fwl2":
        per_graph, iterations, _ = _fwl2_multi([g1, g2], dense_cap)
        d_out = None
    elif method == "drfwl":
        per_graph, iterations, _ = _drfwl_multi([g1, g2], d, mask)
        d_out = d
    else:
        raise ValueError(f"unknown method {method!r}")
    ha = _histogram(per_graph[0])
    hb = _histogram(per_graph[1])
    return PairVerdict(
        distinguished=ha != hb,
        method=method,
        d=d_out,
        iterations=iterations,
        histogram_a=ha,
        histogram_b=hb,
    )


def distinguish(
    g1: Graph,
    g2: Graph,
    method: str,
    d: int = 2,
    mask: Iterable[tuple[int, int, int]] | None = None,
    threads: int = 1,
) -> bool:
    """True iff the method assigns the two graphs different fingerprints."""
    return refine_pair(g1, g2, method, d=d, mask=mask, threads=threads).distinguished
