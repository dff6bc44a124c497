"""Distance-restricted 2-tuple index.

Materializes every ordered node pair (u, v) with shortest-path distance at
most d, as three flat columns in id order and one id map per node.  This
is the shared substrate for distance-restricted refinement and for the
closed-form counting passes.  ``index_witnesses`` writes each leg's rule
for a tuple's witnesses into a ``WitnessTable`` through ``witness_table``,
its one writer.  Counting also reads a node's ids at a distance range
through ``TupleIndex.span``.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, count, islice, repeat
from operator import sub
from typing import AbstractSet, Callable, Iterable, NamedTuple

from .graph import Graph, check_d, khop


class TupleIndex(NamedTuple):
    """All ordered pairs (u, v) with d(u, v) <= d, densely numbered.

    Tuple ids are assigned in (u, k, v) lexicographic order, so each
    node's tuples form one run of ids that starts with (u, u), and within
    it the tuples at each distance k are contiguous, with v ascending.
    Tuple t is (``us[t]``, ``vs[t]``) at distance ``ks[t]``, and
    ``rows[u][v]`` is the id of (u, v): one dict per node, the map that
    every runtime pass reads.  Outside ``build_index``, ``span`` is the one
    reader of this run order: it turns a node and a distance range into
    ids, so ``vs`` over a span lists the nodes at those distances.
    """

    graph: Graph
    d: int
    us: list[int]
    vs: list[int]
    ks: list[int]
    rows: tuple[dict[int, int], ...]

    @property
    def tuple_count(self) -> int:
        return len(self.ks)

    def span(self, u: int, lo: int, hi: int) -> tuple[int, int]:
        """The ids of u's tuples at distance lo..hi, as one half-open range.

        Node u's run is the ids ``rows[u][u]`` to ``rows[u][u] +
        len(rows[u]) - 1``, ordered by distance, so two bisections of
        ``ks`` inside it find the range.
        """
        row = self.rows[u]
        first = row[u]
        end = first + len(row)
        return bisect_left(self.ks, lo, first, end), bisect_right(self.ks, hi, first, end)

    def space_bound(self) -> int:
        """The n * (1 + sum_k degmax^k) ceiling on the tuple count.

        The geometric sum is taken in closed form, so the cost grows with
        the digits of the result, not with d times them.
        """
        degmax, d = self.graph.max_degree(), self.d
        if degmax < 2:
            return self.graph.n * (1 + degmax * d)
        return self.graph.n * ((degmax ** (d + 1) - 1) // (degmax - 1))


def build_index(g: Graph, d: int) -> TupleIndex:
    """Index every ordered pair at distance <= d, ids ordered by (u, k, v)."""
    check_d(d)
    us: list[int] = []
    vs: list[int] = []
    ks: list[int] = []
    rows: list[dict[int, int]] = []
    for u in range(g.n):
        first = len(ks)
        for k, shell in enumerate(khop(g, u, d)):
            vs += shell
            ks += repeat(k, len(shell))
        us += repeat(u, len(ks) - first)
        rows.append(dict(zip(vs[first:], count(first))))
    return TupleIndex(graph=g, d=d, us=us, vs=vs, ks=ks, rows=tuple(rows))


def intersect(a: AbstractSet[int], b: AbstractSet[int]) -> list[int]:
    """The common nodes of two node sets as a new ascending list.

    Called once per witness set that counting and refinement read, so the
    benchmark probe (perfbench/probe.py) can count those sets by wrapping
    it.
    """
    return sorted(a & b)


class WitnessTable(NamedTuple):
    """The witnesses of a run of units, one unit after another, in CSR form.

    Unit i's entries are ``starts[i]`` .. ``starts[i + 1] - 1``.  An entry
    holds ids only: entry p of a witness w of the pair (u, v) is
    ``uw[p] = id(u, w)`` and ``wv[p] = id(w, v)``.  Counting's units are
    the index's tuples; refinement's are its method's units, in one id
    space (a WL(1) node's witness, a neighbour, is its own id in both).
    """

    starts: array
    uw: list[int]
    wv: list[int]

    def sums(self, values: Iterable[int]) -> list[int]:
        """Per unit, the sum of ``values`` (one per entry) over its witnesses."""
        cum = list(accumulate(values, initial=0))
        ends = list(map(cum.__getitem__, self.starts))
        return list(map(sub, islice(ends, 1, None), ends))


def witness_table(units: Iterable[tuple[Iterable[int], Iterable[int]]]) -> WitnessTable:
    """Write each unit's id(u, w) ids and id(w, v) ids, unit after unit,
    into one table."""
    starts, uw, wv = array("q", [0]), [], []
    for ids_uw, ids_wv in units:
        uw += ids_uw
        wv += ids_wv
        starts.append(len(uw))
    return WitnessTable(starts, uw, wv)


def index_witnesses(
    idx: TupleIndex, witnesses: Callable[[int, int, int], list[int]]
) -> WitnessTable:
    """Witness table of the index under one leg's rule ``witnesses(u, v, k)``,
    called once per tuple at distance k: its ascending witnesses w, each
    within d of u and v and written as ``rows[u][w]`` and ``rows[w][v]``."""
    rows = idx.rows
    return witness_table(
        (map(rows[u].__getitem__, ws), [rows[w][v] for w in ws]) if ws else ((), ())
        for u, v, ws in zip(idx.us, idx.vs, map(witnesses, idx.us, idx.vs, idx.ks))
    )
