"""Color refinement: WL(1), dense FWL(2), and the distance-restricted test.

All three refinements realize injective hashing literally: each round
gives every unit an exact composite key, sorts the distinct keys, and
assigns dense ranks.  There is no probabilistic hashing, so two units get
equal colors iff their keys are equal, and certificates are portable
across runs and platforms.

The three methods share one engine.  Every unit aggregates one multiset
of color pairs (color[a], color[b]) over its witnesses: a d-DRFWL(2)
tuple (u, v) over the w within d of both u and v, with ``a = id(w, v)``
and ``b = id(u, w)``; a dense FWL(2) pair (u, v) over every node w, with
the same a and b; a WL(1) node v over its neighbours w, with
``a = b = w``.

The paper keeps one multiset per channel (i, j) of a d-DRFWL(2) tuple,
over the w in N_i(u) & N_j(v).  One multiset per tuple yields the same
partition in every round, because color determines distance: a tuple
starts from the color d(u, v), and every round refines the previous
partition.  So color(u, w) names i = d(u, w) and color(w, v) names
j = d(w, v), a witness's color pair names its channel, and two tuples of
one color have equal channel multisets iff they have equal merged
multisets.  A mask drops the witnesses of the masked channels.  The
classes are the paper's; only the ids the classes get differ, which the
certificate version records.

A flat witness table, built once, lists every unit's witnesses.  A round
encodes the table's witnesses as ``color[a] * T + color[b]`` (T = number
of units) in one C-level pass and cuts them into one sorted tuple of
codes per unit.  Because ``0 <= color < T``, the encoding is a strictly
increasing bijection on color pairs (``c * T + c`` orders like c), so a
unit's key (color, codes) orders exactly like the per-unit key (color,
sorted color pairs), and the ranks are those of that key.

A unit alone in its color class is settled: a singleton class never
splits, and no other key starts with its color, so the key (color, ())
gets the same rank and its codes are never built.  Once more than half
of the table's units are settled, the table is compacted to the live
ones, and a round on a discrete partition computes nothing.

Cross-graph comparison runs the refinements on both graphs in lockstep
with a shared key-to-rank table (equivalent, for the node and
distance-restricted tests, to refining the disjoint union): color ids from
the two graphs are then directly comparable and a per-graph multiset split
yields the verdict.
"""
from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import METHODS, CapabilityError, InvariantError
from .graph import Graph
from .tuples import TupleIndex, build_index, intersect

# n = 96 keeps a dense FWL(2) pair near 200 MB of peak memory; the table
# and each round's codes grow as n^3 (447 MB at n = 128).
FWL2_DENSE_CAP = 96

T = TypeVar("T")
R = TypeVar("R")

# A unit's witnesses: the a ids and the b ids, numbered within the unit's
# graph.
Witnesses = tuple[Iterable[int], Iterable[int]]


class Coloring(NamedTuple):
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


class Certificate(NamedTuple):
    """Canonical multiset fingerprint of a stable coloring."""

    method: str
    d: int | None
    counts: tuple[tuple[int, int], ...]

    def serialize(self) -> str:
        """Versioned one-line text form for golden-file comparison."""
        d = "-" if self.d is None else str(self.d)
        body = ",".join(f"{c}:{k}" for c, k in self.counts)
        return f"certv2;{self.method};{d};{body}"


def _compress(keys: list) -> tuple[list[int], int]:
    """Dense canonical ranks of comparable keys."""
    distinct = sorted(set(keys))
    rank = {k: i for i, k in enumerate(distinct)}
    return [rank[k] for k in keys], len(distinct)


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Ordered map on the calling thread.

    Each round's live units go through this named function, which builds
    their code tuples, so that the benchmark probe (perfbench/probe.py) can
    time and count them by wrapping it.
    """
    return [fn(x) for x in items]


class _WitnessTable(NamedTuple):
    """The fixed inputs of every refinement round, as flat int arrays.

    Entry p (unit after unit) reads the colors of units ``a[p]`` and
    ``b[p]``, numbered within their graph.  ``parts`` holds, per graph, the
    id of its first unit and the end of its entries.  ``units[i]`` is the
    id of the table's i-th unit and ``lengths[i]`` its number of
    witnesses.  A fresh table holds every unit; ``compact`` keeps the live
    ones.
    """

    a: array
    b: array
    parts: tuple[tuple[int, int], ...]
    units: Sequence[int]
    lengths: array

    def sorted_codes(self, colors: list[int], live: Iterable[bool]) -> Iterator[list[int]]:
        """The sorted codes colors[a] * T + colors[b] (T = number of
        units) of each table unit whose ``live`` flag is set, in table
        order."""
        total = len(colors)
        high = list(map(mul, colors, repeat(total)))
        codes: list[int] = []
        start = 0
        for offset, end in self.parts:  # a graph's ids index its slice of the colors
            a, b = islice(self.a, start, end), islice(self.b, start, end)
            codes += map(add, map(high[offset:].__getitem__, a), map(colors[offset:].__getitem__, b))
            start = end
        # sorted drains each unit's islice, so a dropped unit keeps the cut aligned
        return compress(map(sorted, map(islice, repeat(iter(codes)), self.lengths)), live)

    def compact(self, live: list[bool]) -> _WitnessTable:
        """The table of the units whose ``live`` flag is set."""
        entries = list(chain.from_iterable(map(repeat, live, self.lengths)))
        parts, kept, start = [], 0, 0
        for offset, end in self.parts:
            kept += sum(islice(entries, start, end))
            parts.append((offset, kept))
            start = end
        return _WitnessTable(
            array("q", compress(self.a, entries)),
            array("q", compress(self.b, entries)),
            tuple(parts),
            array("q", compress(self.units, live)),
            array("q", compress(self.lengths, live)),
        )


def _witness_table(graphs: Iterable[Iterable[Witnesses]]) -> _WitnessTable:
    """Write every graph's units, one graph after another, into one table."""
    a, b, lengths = array("q"), array("q"), array("q")
    parts = []
    for units in graphs:
        first = len(lengths)
        for ids_a, ids_b in units:
            start = len(a)
            a.extend(ids_a)
            b.extend(ids_b)
            lengths.append(len(a) - start)
        parts.append((first, len(a)))
    return _WitnessTable(a, b, tuple(parts), range(len(lengths)), lengths)


def _refine_to_stability(
    init_keys: list, table: _WitnessTable
) -> tuple[list[int], int, tuple[int, ...]]:
    """Iterate rounds over the witness table until the partition stops
    refining.

    A unit's key starts with colors[unit], which guarantees each round
    refines the previous partition; stability within #units rounds
    follows.  A live unit's key is (color, its sorted codes), and
    parallel_map builds the code tuples of the live units only.  A settled
    unit, alone in its class, gets the key (color, ()).  Once more than
    half of the table's units are settled, the table is compacted to the
    live ones.  A discrete round counts as a round but builds no key.
    """
    total = len(init_keys)
    if total == 0:
        return [], 0, ()
    colors, classes = _compress(init_keys)
    history = [classes]
    for iterations in range(1, total + 2):
        new_classes = classes
        if classes < total:
            sizes = Counter(colors)
            live = list(map((1).__lt__, map(sizes.__getitem__, map(colors.__getitem__, table.units))))
            units = list(compress(table.units, live))
            if 2 * len(units) < len(live):  # more than half of the table is settled
                table, live = table.compact(live), repeat(True)
            tails = [()] * total
            for unit, codes in zip(units, parallel_map(tuple, list(table.sorted_codes(colors, live)))):
                tails[unit] = codes
            colors, new_classes = _compress(list(zip(colors, tails)))
        history.append(new_classes)
        if new_classes == classes:
            return colors, iterations, tuple(history)
        classes = new_classes
    raise InvariantError("refinement exceeded its iteration cap")


def _lockstep(
    inits: list[list[int]], table: _WitnessTable
) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Refine the units of all graphs together from each graph's initial
    colors: the stable colors split per graph, the rounds, and the class
    count per round."""
    colors, iterations, history = _refine_to_stability([c for init in inits for c in init], table)
    out = []
    start = 0
    for init in inits:
        out.append(colors[start : start + len(init)])
        start += len(init)
    return out, iterations, history


# ---------------------------------------------------------------------------
# the units and witnesses of each method


def _wl1_units(g: Graph) -> Iterator[Witnesses]:
    """Node v: its neighbours w, with a = b = w."""
    return ((nbrs, nbrs) for nbrs in g.adjacency)


def _fwl2_units(n: int) -> Iterator[Witnesses]:
    """Pair (u, v), row-major with id u*n + v: every node w, with
    a = id(w, v) and b = id(u, w)."""
    return ((range(v, n * n, n), range(u * n, u * n + n)) for u in range(n) for v in range(n))


def _validate_mask(mask: Iterable[tuple[int, int, int]] | None, d: int) -> frozenset:
    if mask is None:
        return frozenset()
    out = set()
    for triple in mask:
        t = tuple(triple)
        ok = len(t) == 3 and all(type(x) is int and 0 <= x <= d for x in t)
        if not (ok and abs(t[0] - t[1]) <= t[2] <= t[0] + t[1]):
            raise ValueError(f"invalid mask triple {triple!r} for d={d}")
        out.add(t)
    return frozenset(out)


def _drfwl_units(idx: TupleIndex, masked: frozenset) -> Iterator[Witnesses]:
    """Tuple (u, v) at distance k: the w within d of both u and v (the
    common keys of ``rows[u]`` and ``rows[v]``), less each w whose
    (d(u, w), d(v, w), k) is masked, with a = id(w, v) and b = id(u, w)."""
    rows, pairs = idx.rows, idx.pairs
    for u, v, k in pairs:
        row_u, row_v = rows[u], rows[v]
        ws = intersect(row_u.keys(), row_v.keys())
        if masked:
            ws = [w for w in ws if (pairs[row_u[w]][2], pairs[row_v[w]][2], k) not in masked]
        yield [rows[w][v] for w in ws], map(row_u.__getitem__, ws)


def _drfwl_blocks(indexes: Sequence[TupleIndex], masked: frozenset) -> _WitnessTable:
    """The witness table of the graphs' tuples.  Fixed once; read by every
    round."""
    return _witness_table(_drfwl_units(idx, masked) for idx in indexes)


def _drfwl_multi(
    graphs: Sequence[Graph],
    d: int,
    mask: Iterable[tuple[int, int, int]] | None,
) -> tuple[list[list[int]], int, tuple[int, ...]]:
    if d < 1:
        raise ValueError("d must be >= 1")
    masked = _validate_mask(mask, d)
    indexes = [build_index(g, d) for g in graphs]
    inits = [[k for _, _, k in idx.pairs] for idx in indexes]
    table = _drfwl_blocks(indexes, masked)
    del indexes  # the rounds read only the table; freeing the indexes lowers peak memory
    return _lockstep(inits, table)


def _refine_multi(
    graphs: Sequence[Graph],
    method: str,
    d: int | None = None,
    mask: Iterable[tuple[int, int, int]] | None = None,
) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Lockstep refinement of the graphs under ``method``: per-graph
    stable colors, rounds, and class counts per round."""
    if method == "wl1":
        return _lockstep([[0] * g.n for g in graphs], _witness_table(map(_wl1_units, graphs)))
    if method == "fwl2":
        for g in graphs:
            if g.n > FWL2_DENSE_CAP:
                raise CapabilityError(
                    f"fwl2 is dense O(n^3); n={g.n} exceeds the cap of {FWL2_DENSE_CAP}"
                )
        # atomic types: 0 on the diagonal, 1 for an edge, 2 for a non-edge
        inits = [
            [0 if u == v else 1 if g.has_edge(u, v) else 2 for u in range(g.n) for v in range(g.n)]
            for g in graphs
        ]
        return _lockstep(inits, _witness_table(_fwl2_units(g.n) for g in graphs))
    if method == "drfwl":
        return _drfwl_multi(graphs, d, mask)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# public operations


def _coloring(
    g: Graph,
    method: str,
    d: int | None = None,
    mask: Iterable[tuple[int, int, int]] | None = None,
) -> Coloring:
    (colors,), iterations, history = _refine_multi([g], method, d, mask)
    return Coloring(method, d, tuple(colors), iterations, history)


def wl1_refine(g: Graph) -> Coloring:
    """Classic node color refinement from a uniform initial color."""
    return _coloring(g, "wl1")


def fwl2_refine(g: Graph) -> Coloring:
    """Dense folklore 2-tuple refinement; atomic-type initial colors.

    Graphs with more than ``FWL2_DENSE_CAP`` nodes raise CapabilityError.
    """
    return _coloring(g, "fwl2")


def drfwl_refine(
    g: Graph,
    d: int,
    mask: Iterable[tuple[int, int, int]] | None = None,
) -> Coloring:
    """Distance-restricted 2-tuple refinement over pairs with d(u,v) <= d.

    Tuple (u, v) starts from color d(u, v) and each round aggregates the
    multiset of color pairs (color(w, v), color(u, w)) over the w within d
    of both u and v.  A witness w with (d(u, w), d(v, w), d(u, v)) listed
    in ``mask`` contributes nothing, so a masked (i, j, k) silences the
    paper's channel N_i(u) & N_j(v) of the tuples at distance k.  Colors
    refine distances, so the merged multiset splits the tuples exactly as
    the paper's per-channel multisets do.
    """
    return _coloring(g, "drfwl", d, mask=mask)


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


class PairVerdict(NamedTuple):
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
) -> PairVerdict:
    """Lockstep refinement of two graphs; compares per-graph multisets."""
    d_out = d if method == "drfwl" else None
    (ca, cb), iterations, _ = _refine_multi([g1, g2], method, d_out, mask)
    ha = _histogram(ca)
    hb = _histogram(cb)
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
) -> bool:
    """True iff the method assigns the two graphs different fingerprints."""
    return refine_pair(g1, g2, method, d=d, mask=mask).distinguished
