"""Color refinement: WL(1), dense FWL(2), and the distance-restricted test.

All three refinements realize injective hashing literally: each round
gives every unit an exact composite key, sorts the distinct keys, and
assigns dense ranks.  There is no probabilistic hashing, so two units get
equal colors iff their keys are equal, and a certificate is byte-stable
across runs and platforms.

The three methods share one engine.  Every unit aggregates one multiset
of color pairs (color[wv], color[uw]) over its witnesses: a d-DRFWL(2)
tuple (u, v) over the w within d of both u and v, with ``uw = id(u, w)``
and ``wv = id(w, v)``; a dense FWL(2) pair (u, v) over every node w, with
the same uw and wv; a WL(1) node v over its neighbours w, with
``uw = wv = w``.

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

A flat witness table (``tuples.WitnessTable``), built once, lists every
unit's witnesses; d-DRFWL(2) keeps only its rule, which
``tuples.index_witnesses`` writes as it writes counting's.  A round
encodes the table's witnesses as ``color[wv] * T + color[uw]`` (T =
number of units) in one C-level pass and cuts them into one sorted tuple
of codes per unit.  Because ``0 <= color < T``, the encoding is a
strictly increasing bijection on color pairs (``c * T + c`` orders like
c), so a unit's key (color, codes) orders exactly like the per-unit key
(color, sorted color pairs), and the ranks are those of that key.

A unit alone in its color class is settled: a singleton class never
splits, and no other key starts with its color, so the key (color, ())
gets the same rank as its full key would.  A round encodes the whole
table in one pass but cuts and sorts the codes of the live units only;
the table itself never changes.  A round on a discrete partition
computes nothing.

Graphs are compared by refining their disjoint union in one id space: WL(1)
and d-DRFWL(2) refine ``gen_disjoint_union(graphs)``, and dense FWL(2),
which must not pair nodes of different graphs, numbers each graph's pairs
after the previous graph's.  Color ids of the graphs are then directly
comparable, and cutting the stable colors by each graph's unit count
yields the per-graph multisets.
"""
from __future__ import annotations

from collections import Counter
from itertools import compress, islice, repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import METHODS, CapabilityError, InvariantError
from .graph import Graph, check_d, gen_disjoint_union
from .tuples import TupleIndex, WitnessTable, build_index, index_witnesses, intersect, witness_table

# n = 96 keeps a dense FWL(2) pair near 200 MB of peak memory; the table
# and each round's codes grow as n^3 (447 MB at n = 128).
FWL2_DENSE_CAP = 96

T = TypeVar("T")
R = TypeVar("R")


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
    """Sorted color histogram of one graph's stable coloring.

    It is invariant under relabelling and byte-stable across runs.  It
    does not compare across graphs: the histogram keeps each class's size
    but not the key behind its rank, so two graphs that the method tells
    apart can get equal certificates (``gen_erdos_renyi(9, 0.4, 3)`` and
    ``gen_erdos_renyi(9, 0.4, 6)`` under wl1).  Compare two graphs with
    ``refine_pair`` or ``distinguish``.
    """

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


def _sorted_codes(table: WitnessTable, colors: list[int], units: Iterable[int]) -> list[list[int]]:
    """The sorted codes colors[wv] * T + colors[uw] (T = number of units)
    of each of the given units, in their order."""
    high = list(map(mul, colors, repeat(len(colors))))
    codes = list(map(add, map(high.__getitem__, table.wv), map(colors.__getitem__, table.uw)))
    del high  # else its T ints stay alive through the sorts and raise the peak
    starts = table.starts
    return [sorted(codes[starts[i] : starts[i + 1]]) for i in units]


def _refine_to_stability(
    init_keys: list, table: WitnessTable
) -> tuple[list[int], int, tuple[int, ...]]:
    """Iterate rounds over the witness table until the partition stops
    refining.

    A unit's key starts with colors[unit], which guarantees each round
    refines the previous partition; stability within #units rounds
    follows.  A live unit's key is (color, its sorted codes), and
    parallel_map builds the code tuples of the live units only.  A settled
    unit, alone in its class, gets the key (color, ()) and its codes are
    never sorted.  A discrete round counts as a round but builds no key.
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
            live = list(compress(range(total), map((1).__lt__, map(sizes.__getitem__, colors))))
            tails = [()] * total
            for unit, codes in zip(live, parallel_map(tuple, _sorted_codes(table, colors, live))):
                tails[unit] = codes
            colors, new_classes = _compress(list(zip(colors, tails)))
        history.append(new_classes)
        if new_classes == classes:
            return colors, iterations, tuple(history)
        classes = new_classes
    raise InvariantError("refinement exceeded its iteration cap")


# ---------------------------------------------------------------------------
# the units and witnesses of each method


def _wl1_units(g: Graph) -> Iterator[tuple[Iterable[int], Iterable[int]]]:
    """Node v: its neighbours w, with uw = wv = w."""
    return ((nbrs, nbrs) for nbrs in g.adjacency)


def _fwl2_units(graphs: Sequence[Graph]) -> Iterator[tuple[Iterable[int], Iterable[int]]]:
    """Pair (u, v) of an n-node graph whose pairs start at id o, row-major
    with id o + u*n + v: every node w, with uw = id(u, w) and wv = id(w, v).
    The ids are slices of one list, so the table's entries share its ints."""
    ids = list(range(sum(g.n * g.n for g in graphs)))
    o = 0
    for g in graphs:
        n = g.n
        for u in range(n):
            for v in range(n):
                yield ids[o + u * n : o + u * n + n], ids[o + v : o + n * n : n]
        o += n * n


def _drfwl_blocks(idx: TupleIndex, masked: frozenset) -> WitnessTable:
    """The witness table of the index's tuples, fixed once and read by every
    round: the common keys of ``rows[u]`` and ``rows[v]``, less each w whose
    (d(u, w), d(v, w), d(u, v)) is masked."""
    rows, ks = idx.rows, idx.ks

    def witnesses(u: int, v: int, k: int) -> list[int]:
        row_u, row_v = rows[u], rows[v]
        ws = intersect(row_u.keys(), row_v.keys())
        return [w for w in ws if (ks[row_u[w]], ks[row_v[w]], k) not in masked] if masked else ws

    return index_witnesses(idx, witnesses)


def _refine_multi(
    graphs: Sequence[Graph],
    method: str,
    d: int = 2,
    mask: Iterable[tuple[int, int, int]] | None = None,
) -> list[Coloring]:
    """One stable coloring per graph, from refining the graphs' units in
    one id space under ``method``, so the graphs' color ids compare
    directly.  Each carries the run's rounds and class counts, and d is
    None for wl1 and fwl2, which read no d.  ``check_request`` refuses a
    bad request before any work."""
    masked = check_request(method, d, mask)
    if method == "wl1":
        sizes = [g.n for g in graphs]
        init, table = [0] * sum(sizes), witness_table(_wl1_units(gen_disjoint_union(graphs)))
    elif method == "fwl2":
        for g in graphs:
            if g.n > FWL2_DENSE_CAP:
                raise CapabilityError(
                    f"fwl2 is dense O(n^3); n={g.n} exceeds the cap of {FWL2_DENSE_CAP}"
                )
        # atomic types: 0 on the diagonal, 1 for an edge, 2 for a non-edge
        init = [
            0 if u == v else 1 if g.has_edge(u, v) else 2
            for g in graphs
            for u in range(g.n)
            for v in range(g.n)
        ]
        table, sizes = witness_table(_fwl2_units(graphs)), [g.n * g.n for g in graphs]
    else:  # drfwl
        idx = build_index(gen_disjoint_union(graphs), d)
        init = idx.ks
        rows = iter(idx.rows)  # a graph's tuples are the tuples of its nodes' rows
        sizes = [sum(map(len, islice(rows, g.n))) for g in graphs]
        table = _drfwl_blocks(idx, masked)
        del idx, rows  # the rounds read only the table; freeing the index lowers peak memory
    colors, iterations, history = _refine_to_stability(init, table)
    stable = iter(colors)
    d_out = d if method == "drfwl" else None
    return [Coloring(method, d_out, tuple(islice(stable, n)), iterations, history) for n in sizes]


# ---------------------------------------------------------------------------
# public operations


def check_request(
    method: str, d: object, mask: Iterable[tuple[int, int, int]] | None = None
) -> frozenset:
    """The masked triples of a request, or ValueError for a d that is not an
    int >= 1 (a bool is not an int here; wl1 and fwl2 refuse it too), an
    unknown method, any mask with wl1 or fwl2, or a mask entry that is not
    a triple (i, j, k) in 0..d that meets the triangle inequality."""
    check_d(d)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if mask is None:
        return frozenset()
    if method != "drfwl":
        raise ValueError(f"a mask applies to method 'drfwl' only, not {method!r}")
    out = set()
    for triple in mask:
        try:
            t = tuple(triple)
        except TypeError:  # not iterable: no triple
            t = ()
        ok = len(t) == 3 and all(type(x) is int and 0 <= x <= d for x in t)
        if not (ok and abs(t[0] - t[1]) <= t[2] <= t[0] + t[1]):
            raise ValueError(f"invalid mask triple {triple!r} for d={d}")
        out.add(t)
    return frozenset(out)


def wl1_refine(g: Graph) -> Coloring:
    """Classic node color refinement from a uniform initial color."""
    return _refine_multi([g], "wl1")[0]


def fwl2_refine(g: Graph) -> Coloring:
    """Dense folklore 2-tuple refinement; atomic-type initial colors.

    Graphs with more than ``FWL2_DENSE_CAP`` nodes raise CapabilityError.
    """
    return _refine_multi([g], "fwl2")[0]


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
    return _refine_multi([g], "drfwl", d, mask)[0]


def _histogram(colors: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(colors).items()))


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
    """Refines the two graphs in one id space; compares per-graph multisets.

    ``check_request`` refuses a bad request before any work.
    """
    a, b = _refine_multi([g1, g2], method, d, mask)
    ha, hb = _histogram(a.colors), _histogram(b.colors)
    return PairVerdict(
        distinguished=ha != hb,
        method=method,
        d=a.d,
        iterations=a.iterations,
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
