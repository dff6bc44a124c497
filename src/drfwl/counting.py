"""Closed-form substructure counting over the distance-restricted index.

The pipeline runs a fixed sequence of sparse passes.  Each pass fills one
slot per indexed pair and reads only earlier passes, so a wrong count
localizes to one formula.  Everything is exact integer arithmetic, and
every division of a count goes through ``errors.exact_quotient``: a
remainder raises InvariantError naming the motif.  The one exception is a
binomial coefficient, C(P2, 2) in the chordal-cycle cross-check of
``compute_node_counts``, which cannot leave a remainder.

The passes read three inputs, none of which re-intersects a shell:

* ``rows[u][v]``, the index's per-node id map, for every id lookup;
* a common-neighbour table (``common_neighbours``), built once per
  ``compute_pair_stats`` by ``tuples.index_witnesses`` from the rule N1(u)
  & N1(v), one ``intersect`` per tuple at distance 1 or 2, each witness w
  stored as the ids of (u, w) and (w, v).  P2 is its segment lengths.  P4,
  the motifs, split cycles, TR and the cycle-7 terms read its segments,
  their linear sums as bulk segment sums over gathered columns; only CCX
  loops over witnesses.  It gives CC1(u, v) = T(v, u) on adjacent pairs,
  as P2 is symmetric and (v, u) has the witnesses of (u, v), so CC1 is not
  stored: a pass reads it as T of the reversed pair;
* walks over the wide channels (1,2), (2,1) and (2,2), which are never
  stored: only W3 and P22 walk u -> w -> v, reading the nodes near w as
  the slice of the index's ``vs`` column over w's ``TupleIndex.span`` at
  distance 1 or 2, and keep v when ``rows[u]`` has it, adding into
  per-tuple accumulators.  The cycle-7 terms, which need an index to
  distance 3, are node sums of the pair statistics instead.

Pairwise quantities (pairs (u, v) at distance 1..2, plus the noted distance-3
extensions when the index reaches distance 3; see ``index_depth``), with
adj = [u ~ v]; W3, W4, CC2, C23 and TR2 are not stored, as the stored fields
give them, and C23 and TR2 are built where they are read:

  P2     2-paths u->v, i.e. |N1(u) & N1(v)|
  P3     3-paths u->v: the 3-walks W3 less adj * (deg u + deg v - 1)
  P22    sum over middle nodes y of P2(u,y) * P2(y,v)
  P4     4-paths u->v (4-walks W4 = P22 + (deg u + deg v) * P2: path4 only)
  T      tailed triangles, u the pendant tip, v the far triangle vertex
  CC1    chordal cycles, u on the chord, v off it: T(v, u) (adjacent pairs)
  CC2    chordal cycles with chord exactly u-v: adj * C(P2, 2)
  CCX    chordal cycles with u, v the two off-chord vertices
  TR1    triangle-rectangles, u the apex, v on the shared edge (adjacent)
  TR2    triangle-rectangles, u on the shared edge, v the opposite corner:
         T(v, u) * (P2 - 1) - 2 * CCX (for tr3, in ``compute_node_counts``)
  C23    5-cycles through u, v split into a 2-path and a 3-path:
         P2 * P3 - T(u, v) - T(v, u) (in ``cycle7_correction_terms``)
  C24    6-cycles through u, v split into a 2-path and a 4-path
"""
from __future__ import annotations

from itertools import islice, repeat
from operator import mul, sub
from typing import Collection, Iterable, NamedTuple

from .errors import CapabilityError, InvariantError, exact_quotient
from .graph import Graph
from .tuples import TupleIndex, WitnessTable, index_witnesses, intersect

# The count catalog in report order, each motif with its orbit factor:
# the node occurrences per graph occurrence (a k-cycle has k nodes, a
# path two end nodes, a marked motif the size of its marked orbit).
# cycle7, whose closed form reads past distance 2 (``index_depth``), comes last.
GRAPH_LEVEL_FACTOR = {
    "cycle3": 3,
    "cycle4": 4,
    "cycle5": 5,
    "cycle6": 6,
    "path2": 2,
    "path3": 2,
    "path4": 2,
    "tailed_triangle": 1,
    "chordal_cycle_cc1": 2,
    "chordal_cycle_cc2": 2,
    "tr1": 1,
    "tr2": 2,
    "tr3": 2,
    "cycle7": 7,
}


def common_neighbours(idx: TupleIndex, nbr: list[frozenset[int]]) -> WitnessTable:
    """N1(u) & N1(v) of every tuple (u, v) at distance 1 or 2, from the N1
    sets ``nbr``, by one ``intersect`` call each; other tuples have no
    entries.  The witness of entry p is ``vs[uw[p]]``, the index's column."""

    def witnesses(u: int, v: int, k: int) -> list[int]:
        return intersect(nbr[u], nbr[v]) if 0 < k < 3 else []

    return index_witnesses(idx, witnesses)


Spans = list[tuple[int, int]]


class PairStats(NamedTuple):
    """Per-pair statistics, one slot per TupleIndex tuple id, and what they
    were computed from: the common-neighbour table, ``rev``, the id of
    each tuple's reverse (v, u), every node's span of tuples at distance 1
    or 2 (``near``) and at distance 1 (``edges``, one tuple per
    neighbour), C3, the triangles at every node, and ``deg``, every node's
    degree.  The per-pair fields are the passes' outputs, named as in the
    module docstring, each fact stored once: CC1 is ``t[rev[t]]`` on an
    adjacent tuple t, and W3, W4, CC2, C23 and TR2, functions of the
    stored fields and the degrees, have no field either; C23 and TR2 are
    built by their one reader each."""

    common: WitnessTable
    rev: list[int]
    near: Spans
    edges: Spans
    c3: list[int]
    p2: list[int]
    p3: list[int]
    p22: list[int]
    p4: list[int]
    t: list[int]
    ccx: list[int]
    tr1: list[int]
    c24: list[int]
    deg: list[int]


def pairwise_p2(idx: TupleIndex, cn: WitnessTable) -> list[int]:
    """P2(u, v) = |N1(u) & N1(v)| for every indexed pair: segment lengths."""
    starts = cn.starts
    return list(map(sub, islice(starts, 1, None), starts))


def _around(values: list[int], spans: Spans) -> list[int]:
    """Per node u, the sum of values at (u, v) over v in its span."""
    return [sum(values[lo:hi]) for lo, hi in spans]


def node_triangles(p2: list[int], edges: Spans) -> list[int]:
    """C3(u), half the sum of P2(u, v) over u's edges: each triangle at u
    is seen once per incident triangle edge."""
    return [exact_quotient(x, 2, "cycle3") for x in _around(p2, edges)]


def _walk(
    idx: TupleIndex,
    near: Spans,
    weights: Iterable[tuple[int, int, int]],
    p2: list[int],
) -> list[int]:
    """Per tuple (u, v), the sum of c * P2(y, v) over the (u, y, c) in
    ``weights`` and the v at distance 1 or 2 from y.

    The walk keeps v when (u, v) is in the index: v = u and the v beyond
    distance d land on (u, u), which is reset to 0 at the end.
    """
    rows, vs = idx.rows, idx.vs
    acc = [0] * idx.tuple_count
    for u, y, c in weights:
        lo, hi = near[y]
        row = rows[u]
        for t, x in zip(map(row.get, vs[lo:hi], repeat(row[u])), p2[lo:hi]):
            acc[t] += c * x
    for u, row in enumerate(rows):
        acc[row[u]] = 0
    return acc


def pairwise_w3(idx: TupleIndex, p2: list[int], near: Spans, deg: list[int]) -> list[int]:
    """3-walks u->v: the sum of 2-walks w->v over the neighbours w of u,
    which is P2(w, v) for w != v and deg(v) for w = v."""
    weights = ((u, w, 1) for u, nbrs in enumerate(idx.graph.adjacency) for w in nbrs)
    acc = _walk(idx, near, weights, p2)
    return [x + deg[v] if k == 1 else x for x, v, k in zip(acc, idx.vs, idx.ks)]


def pairwise_p3(idx: TupleIndex, w3: list[int], deg: list[int]) -> list[int]:
    """3-paths: strip the degree-many backtracking walks on adjacent pairs.

    At distance >= 2 every 3-walk is already a path (and W3(u, u) = 0).
    """
    return [
        x - deg[u] - deg[v] + 1 if k == 1 else x
        for x, u, v, k in zip(w3, idx.us, idx.vs, idx.ks)
    ]


def pairwise_p22(idx: TupleIndex, p2: list[int], near: Spans) -> list[int]:
    """Sum over middle nodes y (distinct from u, v) of P2(u,y) * P2(y,v).

    y runs over the nodes at distance 1 or 2 from u with P2(u, y) > 0.
    """
    vs = idx.vs
    weights = (
        (u, y, c)
        for u, (lo, hi) in enumerate(near)
        for y, c in zip(vs[lo:hi], p2[lo:hi])
        if c
    )
    return _walk(idx, near, weights, p2)


def pairwise_p4(
    idx: TupleIndex,
    cn: WitnessTable,
    p2: list[int],
    p22: list[int],
    c3: list[int],
    deg: list[int],
) -> list[int]:
    """4-paths from the middle-split walks minus the coalescence terms."""
    # sum of deg(x) - 2 over the common neighbours x of u and v
    witness_deg = map(deg.__getitem__, map(idx.vs.__getitem__, cn.uw))
    coalesced = map(sub, cn.sums(witness_deg), map(mul, p2, repeat(2)))
    return [
        a - b - (2 * c3[u] + 2 * c3[v] - 3 * x if k == 1 else 0)
        for a, b, x, u, v, k in zip(p22, coalesced, p2, idx.us, idx.vs, idx.ks)
    ]


def pairwise_w4(idx: TupleIndex, p2: list[int], p22: list[int], deg: list[int]) -> list[int]:
    """4-walks: middle-split walks plus the walks whose midpoint is u or v
    (both terms are 0 on the diagonal)."""
    return [a + (deg[u] + deg[v]) * x for a, x, u, v in zip(p22, p2, idx.us, idx.vs)]


def _pairwise_motifs(
    idx: TupleIndex, cn: WitnessTable, nbr: list[frozenset[int]], p2: list[int]
) -> tuple[list[int], list[int]]:
    """T and CCX from the common-neighbour segments and the N1 sets
    ``nbr``."""
    vs = idx.vs
    tail = cn.sums(map(p2.__getitem__, cn.wv))
    t_arr = [a - x if k == 1 else a for a, x, k in zip(tail, p2, idx.ks)]
    # adjacent pairs among the common neighbours, for tuples with two or more
    ccx = [0] * idx.tuple_count
    starts, uw = cn.starts, cn.uw
    for t, x in enumerate(p2):
        if x > 1:
            common = list(map(vs.__getitem__, uw[starts[t] : starts[t + 1]]))
            ccx[t] = sum(
                1 for i, w in enumerate(common) for y in common[i + 1 :] if y in nbr[w]
            )
    return t_arr, ccx


def _pairwise_split_cycles(
    idx: TupleIndex,
    cn: WitnessTable,
    rev: list[int],
    p2: list[int],
    p3: list[int],
    p4: list[int],
    t_arr: list[int],
    ccx: list[int],
) -> list[int]:
    """C24, the path-product count minus every coalescence (C23, its 5-cycle
    twin, is built by its one reader, ``cycle7_correction_terms``).

    C24 subtracts three degenerate families from P2 * P4; over the common
    neighbours x of u and v (m = P2(u, v) of them, adj = [u ~ v]):

      num_b = sum P3(x,v) - m(m-1) - adj * CC1(u,v)
      num_d = sum P3(u,x) - m(m-1) - adj * T(u,v)
      num_c = sum P2(u,x) P2(x,v) - adj * (CC1(u,v) + m + CC1(v,u)) - 2 CCX(u,v)

    (on adjacent pairs, CC1(u,v) = T(v,u) = sum (P2(u,x) - 1) and T(u,v) =
    sum (P2(x,v) - 1)).  num_c is a chordal cycle with u, v off the chord;
    each occurrence appears twice, as the chord ends swap roles.  The three
    sums over x are one segment sum.  A tuple off distance 1..2 has no
    witnesses, so the count is 0 there with no distance test.
    """
    ks = idx.ks
    linear = cn.sums(p3[a] + p3[b] + p2[a] * p2[b] for a, b in zip(cn.uw, cn.wv))
    # C24 = m * P4 - (num_b + num_c + num_d)
    return [
        m * x - lin + 2 * m * (m - 1) + 2 * c + (2 * (t_arr[t] + t_arr[r]) + m if k == 1 else 0)
        for t, (m, x, lin, c, r, k) in enumerate(zip(p2, p4, linear, ccx, rev, ks))
    ]


def _pairwise_tr(
    idx: TupleIndex,
    cn: WitnessTable,
    rev: list[int],
    p2: list[int],
    p3: list[int],
    t_arr: list[int],
) -> list[int]:
    """TR1 (apex / shared-edge pairs), 0 off the adjacent tuples.  TR2
    (shared-edge / corner pairs) is built by its one reader, tr3 in
    ``compute_node_counts``."""
    # TR1 = sum over the common neighbours z of P3(z, v) - (P2(u, z) - 1),
    # less m(m - 1); the second sum is CC1(u, v) = T(v, u)
    return [
        a - b - x * (x - 1) if k == 1 else 0
        for a, b, x, k in zip(
            cn.sums(map(p3.__getitem__, cn.wv)), map(t_arr.__getitem__, rev), p2, idx.ks
        )
    ]


def compute_pair_stats(idx: TupleIndex) -> PairStats:
    """Build the common-neighbour table, the reverse ids and every node's
    spans, then run every pairwise pass in dependency order (W3 feeds P3)."""
    check_motifs(idx.d)
    rows, nbr = idx.rows, idx.graph.neighbor_sets()
    cn = common_neighbours(idx, nbr)
    rev = [rows[v][u] for u, v in zip(idx.us, idx.vs)]
    near = [idx.span(x, 1, 2) for x in range(idx.graph.n)]
    edges = [idx.span(x, 1, 1) for x in range(idx.graph.n)]
    deg = idx.graph.degrees()
    p2 = pairwise_p2(idx, cn)
    c3 = node_triangles(p2, edges)
    p3 = pairwise_p3(idx, pairwise_w3(idx, p2, near, deg), deg)
    p22 = pairwise_p22(idx, p2, near)
    p4 = pairwise_p4(idx, cn, p2, p22, c3, deg)
    t_arr, ccx = _pairwise_motifs(idx, cn, nbr, p2)
    c24 = _pairwise_split_cycles(idx, cn, rev, p2, p3, p4, t_arr, ccx)
    tr1 = _pairwise_tr(idx, cn, rev, p2, p3, t_arr)
    return PairStats(cn, rev, near, edges, c3, p2, p3, p22, p4, t_arr, ccx, tr1, c24, deg)


def node_walks(g: Graph, k: int) -> list[int]:
    """W_k(u): k-walks starting at u, by repeated neighbor summation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    walks = [len(a) for a in g.adjacency]
    for _ in range(k - 1):
        walks = [sum(walks[v] for v in g.adjacency[u]) for u in range(g.n)]
    return walks


class NodeCounts(
    NamedTuple("NodeCounts", [("n", int), ("d", int), *((m, list) for m in GRAPH_LEVEL_FACTOR)])
):
    """Per-node counts: ``n``, ``d`` and one field per ``GRAPH_LEVEL_FACTOR``
    motif, under its catalog name and in report order (cycle7 is None on
    an index shallower than it reads)."""

    __slots__ = ()

    def by_name(self, name: str) -> list[int]:
        check_motifs(self.d, [name])
        return getattr(self, name)


def cycle7_correction_terms(
    idx: TupleIndex, s: PairStats, nc: "NodeCounts"
) -> tuple[list[int], dict[str, list[int]]]:
    """Raw material of the 7-cycle count: the per-node sum of
    P3(u,v) * P4(u,v) over pairs at distance 1..3, and the per-node count
    of each of the twelve families of degenerate (3-path, 4-path)
    combinations.  Writing the 3-path u-p-q-v and the 4-path u-x-y-z-v,
    a family is the set of path pairs whose interior coincidences are
    exactly the stated ones:

      a: p=x      b: q=x      c: p=y      d: q=y      e: p=z      f: q=z
      g: p=x,q=y  h: p=x,q=z  i: p=y,q=x  j: p=z,q=x  k: p=y,q=z  l: p=z,q=y

    C7(u) is half of (product sum minus all twelve).

    The index must reach distance 3; ``check_motifs`` refuses a shallower
    one.  Then every family is a node sum of the pair statistics over u's
    tuples t = (u, w) at distance 1 or 2 (``near[u]``, led by its edge
    tuples), with x = P2(u, w) and adj = [u ~ w].  Three identities remove
    every walk and witness loop:

    * a walk u -> w -> v from such a w ends within distance 3 of u, so
      (u, v) is indexed, and the walk's sum over v is w's node total
      (``_around``) less its term at v = u;
    * a triple overlap |N1(u) & N1(v) & N1(w)|, summed over v, is a sum
      over the common neighbours of u and w, which are the witnesses of
      u's edge tuples (``acc_wv``, ``p3x``); family i sums the 3-walks
      W3(y, w) = P3(y, w) + deg y + deg w - 1 over them, where the deg y
      sum is that of x * deg w over u's edge tuples (y and w swap roles);
    * a sum over the witnesses w of u's tuples (u, v) of a term of (u, w),
      summed over v first, is a sum over u's edge tuples (u, w): w
      witnesses (u, v) for every v in N1(w) - {u}, x of which are u's
      neighbours, and P2(w, v) summed over those v is 2 C3(w) - x
      (``sum_e``, ``acc_uw``).
    """
    check_motifs(idx.d, ["cycle7"])
    n = idx.graph.n
    vs, ks = idx.vs, idx.ks
    starts, _, wv_ids = s.common
    rev = s.rev
    p2, p3, p4, t_arr, tr1 = s.p2, s.p3, s.p4, s.t, s.tr1
    c23 = [m * x - a - t_arr[r] for m, x, a, r in zip(p2, p3, t_arr, rev)]
    near, edges, deg, c3 = s.near, s.edges, s.deg, s.c3
    # adjacent[u] is the entry range of the witnesses of node u's edge tuples
    adjacent = [(starts[a], starts[b]) for a, b in edges]

    def squares(ids: Iterable[int]) -> int:
        return sum(x * (x - 1) for x in map(p2.__getitem__, ids))

    # sum over v of P3(u,v) * P4(u,v), distances 1..3
    prod34 = [
        sum(map(mul, p3[a:b], p4[a:b])) for a, b in (idx.span(u, 1, 3) for u in range(n))
    ]
    # adjacent v: sums of P2(w,v)(P2(w,v)-1) and P3(w,v) over common w
    acc_wv = [squares(wv_ids[a:b]) for a, b in adjacent]
    p3x = [sum(map(p3.__getitem__, wv_ids[a:b])) for a, b in adjacent]
    # node totals of w over its tuples at distance 1 or 2; path2 is that of
    # P2, and 2 C4(w) is that of P3 over w's edges
    around_t, around_c23 = _around(t_arr, near), _around(c23, near)
    sq = [squares(range(lo, hi)) for lo, hi in near]
    path2, cycle4 = nc.path2, nc.cycle4

    sum_a, sum_b, sum_c, sum_d, sum_e = ([0] * n for _ in range(5))
    sum_f, sum_g, sum_h, sum_i, sum_k = ([0] * n for _ in range(5))
    # over u's tuples at distance 1 or 2, of which the edge tuples (adj)
    # also add to a, b, c, e, g, i, k and acc_uw
    for u, (lo, hi) in enumerate(near):
        du = deg[u]
        a = b = c = d = e = f = g = h = k = acc_uw = 0
        i = p3x[u]
        for t in range(lo, hi):
            w, x, r, adj = vs[t], p2[t], rev[t], ks[t] == 1
            dw = deg[w]
            b -= (x - 1) * t_arr[r]
            d += x * (x - 1) * (2 * c3[w] - adj * x)
            f += c23[t] * (dw - adj)
            h += t_arr[t] * (dw - adj)
            if adj:
                a += around_c23[w] - c23[r]
                b += x * (2 * cycle4[w] - p3[r]) - tr1[t] + t_arr[r] - 2 * x * (x - 1) + 2 * t_arr[t]
                c += x * (sq[w] - x * (x - 1) - 2 * p3[t]) + 2 * t_arr[t]
                e += p3[t] * (2 * c3[w] - x)
                g += around_t[w] - 2 * t_arr[r] + (2 - du) * x
                i -= x * (x - 1) + t_arr[r]
                k += x * (path2[w] - x - du - dw + 3) - t_arr[t]
                acc_uw += x * x * (x - 1)
        b -= i + acc_wv[u] + acc_uw
        c -= acc_wv[u] + 2 * i
        d -= acc_uw
        sum_a[u], sum_b[u], sum_c[u], sum_d[u], sum_e[u] = a, b, c, d, e
        sum_f[u], sum_g[u], sum_h[u], sum_i[u], sum_k[u] = f, g, h, i, k

    letters = {
        "a": [sum_a[u] - 4 * nc.cycle5[u] - nc.tr2[u] for u in range(n)],
        "b": sum_b,
        "c": sum_c,
        "d": [sum_d[u] - 4 * nc.chordal_cycle_cc1[u] - 4 * nc.tr3[u] for u in range(n)],
        "e": [
            sum_e[u]
            - 2 * acc_wv[u]
            + 2 * nc.chordal_cycle_cc1[u]
            - 2 * nc.chordal_cycle_cc2[u]
            - nc.tr2[u]
            - 2 * nc.tr3[u]
            for u in range(n)
        ],
        "f": [sum_f[u] - 4 * nc.cycle5[u] - nc.tr3[u] for u in range(n)],
        "g": sum_g,
        "h": [sum_h[u] - 4 * nc.tailed_triangle[u] for u in range(n)],
        "i": sum_i,
        "j": [acc_wv[u] - 4 * nc.chordal_cycle_cc1[u] for u in range(n)],
        "k": sum_k,
        "l": list(nc.tr3),
    }
    return prod34, letters


def compute_node_counts(idx: TupleIndex) -> NodeCounts:
    """Node-level counts for the full catalog supported at the index's d."""
    g = idx.graph
    n = g.n
    stats = compute_pair_stats(idx)
    deg = stats.deg
    rev = stats.rev
    edges, near = stats.edges, stats.near

    def toward(values: list[int], spans: Spans = edges) -> list[int]:
        """Per node u, the sum of values at (v, u) over v in its span."""
        return [sum(map(values.__getitem__, rev[lo:hi])) for lo, hi in spans]

    cycle3 = stats.c3
    cycle4 = [exact_quotient(x, 2, "cycle4") for x in _around(stats.p3, edges)]
    cycle5 = [exact_quotient(x, 2, "cycle5") for x in _around(stats.p4, edges)]
    cycle6 = [exact_quotient(x, 2, "cycle6") for x in _around(stats.c24, near)]
    path2, path4 = _around(stats.p2, near), _around(stats.p4, near)
    near_w4 = _around(pairwise_w4(idx, stats.p2, stats.p22, deg), near)  # W4(u, v), v near u
    # TR2(u, v) = T(v, u) * (P2(u, v) - 1) - 2 * CCX(u, v), 0 with no witnesses
    t_vu = map(stats.t.__getitem__, rev)
    tr2 = [a * (x - 1) - 2 * c for a, x, c in zip(t_vu, stats.p2, stats.ccx)]
    tr3 = toward(tr2, near)

    # the sum of P2 over u's edges is 2 C3(u)
    tailed = [
        sum(map(cycle3.__getitem__, nbrs)) - 2 * c for nbrs, c in zip(g.adjacency, cycle3)
    ]
    # CC1(v, u) = T(u, v) on u's edges, and CC1(u, v) = T(v, u)
    cc1_node = [exact_quotient(x, 2, "chordal_cycle_cc1") for x in _around(stats.t, edges)]
    cc2_node = [exact_quotient(x, 2, "chordal_cycle_cc2") for x in toward(stats.t)]
    if cc2_node != [sum(x * (x - 1) // 2 for x in stats.p2[lo:hi]) for lo, hi in edges]:
        raise InvariantError("chordal-cycle aggregation routes disagree")

    tr1_node = [exact_quotient(x, 2, "tr1") for x in _around(stats.tr1, edges)]
    tr2_node = toward(stats.tr1)
    if tr2_node != _around(tr2, near):
        raise InvariantError("triangle-rectangle aggregation routes disagree")

    # the k-walks from u; a 3-walk is a path unless it closes a triangle,
    # is back at u after two steps (deg^2) or at its first node after three
    # (W2), and deg(u) walks u-v-u-v do both
    w2_node = node_walks(g, 2)
    w3_node = [sum(map(w2_node.__getitem__, nbrs)) for nbrs in g.adjacency]
    w4_node = [sum(map(w3_node.__getitem__, nbrs)) for nbrs in g.adjacency]
    path3 = [a - 2 * c - x * x - b + x for a, c, x, b in zip(w3_node, cycle3, deg, w2_node)]
    for u in range(n):
        path4[u] += w4_node[u] - 2 * cycle4[u] - deg[u] * deg[u] - path2[u] - near_w4[u]

    counts = NodeCounts(
        n=n,
        d=idx.d,
        cycle3=cycle3,
        cycle4=cycle4,
        cycle5=cycle5,
        cycle6=cycle6,
        path2=path2,
        path3=path3,
        path4=path4,
        tailed_triangle=tailed,
        chordal_cycle_cc1=cc1_node,
        chordal_cycle_cc2=cc2_node,
        tr1=tr1_node,
        tr2=tr2_node,
        tr3=tr3,
        cycle7=None,
    )
    if "cycle7" in check_motifs(idx.d):
        prod34, letters = cycle7_correction_terms(idx, stats, counts)
        cycle7 = [
            exact_quotient(x - sum(terms), 2, "cycle7")
            for x, *terms in zip(prod34, *letters.values())
        ]
        counts = counts._replace(cycle7=cycle7)
    return counts


def graph_level(counts: NodeCounts, name: str) -> int:
    """Whole-graph count: node total divided by the marked-orbit factor."""
    return _graph_total(name, counts.by_name(name))


def _graph_total(name: str, per_node: list[int]) -> int:
    """The graph count of ``name``, a motif its caller has checked."""
    return exact_quotient(sum(per_node), GRAPH_LEVEL_FACTOR[name], f"{name} node total")


def check_motifs(d: int, names: Iterable[str] | None = None) -> tuple[str, ...]:
    """The motifs that counts at ``d`` report for ``names``: each once, in
    first-seen order, or the catalog in report order (less each motif that
    reads past d) if names is None.  Refuses each name in turn (clique4, a
    name outside the catalog), then d < 2 (the closed forms read distance-2
    shells), then a motif whose ``index_depth`` is past d."""
    if names is None:
        names = [name for name in GRAPH_LEVEL_FACTOR if index_depth([name]) <= d]
    motifs = tuple(dict.fromkeys(names))
    for name in motifs:
        if name == "clique4":
            raise CapabilityError("clique4 has no closed form; use the oracle")
        if name not in GRAPH_LEVEL_FACTOR:
            raise ValueError(f"unknown motif {name!r}")
    if d < 2:
        raise ValueError(f"closed-form counts need d >= 2, got d={d}")
    for name in motifs:
        if index_depth([name]) > d:
            raise CapabilityError(f"{name} counts need d >= {index_depth([name])}, got d={d}")
    return motifs


def index_depth(motifs: Collection[str]) -> int:
    """The farthest distance the closed forms of ``motifs`` read: 3 for cycle7, else 2."""
    return 3 if "cycle7" in motifs else 2


def counts_to_report(counts: NodeCounts, motifs: Iterable[str] | None = None) -> dict:
    """JSON-ready report in the stable output schema."""
    subs = {}
    for name in check_motifs(counts.d, motifs):
        per_node = getattr(counts, name)
        subs[name] = {"per_node": list(per_node), "graph_level": _graph_total(name, per_node)}
    return {"n": counts.n, "substructures": subs}
