"""Closed-form substructure counting over the distance-restricted index.

The pipeline runs a fixed sequence of sparse passes.  Each pass fills one
slot per indexed pair and reads only earlier passes, so a wrong count
localizes to one formula.  Everything is exact 64-bit-safe integer
arithmetic; an inexact division raises InvariantError.

The passes read three inputs, none of which re-intersects a shell:

* ``rows[u][v]``, the index's per-node id map, for every id lookup;
* a common-neighbour table (``CommonNeighbours``), built once per
  ``compute_pair_stats`` with one ``intersect`` of two neighbour sets per
  tuple at distance 1 or 2: N1(u) & N1(v) in CSR form, each witness w
  with id(u, w) and id(w, v).  P2 is its segment lengths.  P4, the motifs,
  split cycles, TR and the cycle-7 terms read its segments, their linear
  sums as bulk segment sums over gathered columns; only CCX and cycle-7
  family b loop over witnesses;
* walks over the wide channels (1,2), (2,1) and (2,2), which are never
  stored: W3, P22 and the cycle-7 families a, c, d, f, g, h, i, k walk
  u -> w -> v through the shells and keep v when ``rows[u]`` has it, adding
  into per-tuple or per-node accumulators.

Pairwise quantities (for pairs (u, v) at distance 1..2, plus the noted
distance-3 extensions when the index was built with d >= 3):

  P2     2-paths u->v, i.e. |N1(u) & N1(v)|
  W3/P3  3-walks / 3-paths u->v
  P22    sum over middle nodes y of P2(u,y) * P2(y,v)
  W4/P4  4-walks / 4-paths u->v
  T      tailed triangles, u the pendant tip, v the far triangle vertex
  CC1    chordal cycles, u on the chord, v off it        (adjacent pairs)
  CC2    chordal cycles with chord exactly u-v           (adjacent pairs)
  CCX    chordal cycles with u, v the two off-chord vertices
  TR1    triangle-rectangles, u the apex, v on the shared edge (adjacent)
  TR2    triangle-rectangles, u on the shared edge, v the opposite corner
  C23    5-cycles through u, v split into a 2-path and a 3-path
  C24    6-cycles through u, v split into a 2-path and a 4-path
"""
from __future__ import annotations

from array import array
from itertools import accumulate, islice, repeat
from operator import mul, sub
from typing import Iterable, NamedTuple

from .errors import CapabilityError, InvariantError
from .graph import Graph
from .tuples import TupleIndex, intersect

COUNT_MOTIFS_D2 = (
    "cycle3",
    "cycle4",
    "cycle5",
    "cycle6",
    "path2",
    "path3",
    "path4",
    "tailed_triangle",
    "chordal_cycle_cc1",
    "chordal_cycle_cc2",
    "tr1",
    "tr2",
    "tr3",
)
COUNT_MOTIFS_D3 = COUNT_MOTIFS_D2 + ("cycle7",)

GRAPH_LEVEL_FACTOR = {
    # marked-position motifs divide by the size of the marked orbit
    "tailed_triangle": 1,
    "chordal_cycle_cc1": 2,
    "chordal_cycle_cc2": 2,
    "tr1": 1,
    "tr2": 2,
    "tr3": 2,
}
GRAPH_LEVEL_FACTOR.update({f"cycle{k}": k for k in range(3, 8)})
GRAPH_LEVEL_FACTOR.update({f"path{k}": 2 for k in range(2, 5)})


def _exact_half(x: int) -> int:
    if x % 2:
        raise InvariantError(f"expected an even aggregate, got {x}")
    return x // 2


class CommonNeighbours(NamedTuple):
    """N1(u) & N1(v) of every tuple at distance 1 or 2, in CSR form.

    Tuple t's witnesses are entries start[t] .. start[t+1]-1 (none for a
    tuple at any other distance); entry p holds the witness ``w[p]``,
    ``uw[p] = id(u, w)`` and ``wv[p] = id(w, v)``.  ``rev[t]`` is the id
    of the reversed tuple (v, u).
    """

    start: array
    w: list[int]
    uw: list[int]
    wv: list[int]
    rev: list[int]

    def sums(self, values: Iterable[int]) -> list[int]:
        """Per tuple, the sum of ``values`` (one per entry) over its witnesses."""
        cum = list(accumulate(values, initial=0))
        ends = list(map(cum.__getitem__, self.start))
        return list(map(sub, islice(ends, 1, None), ends))


def common_neighbours(idx: TupleIndex) -> CommonNeighbours:
    """The table, with one ``intersect`` call per tuple at distance 1 or 2."""
    rows = idx.rows
    nbr = idx.graph.neighbor_sets()
    start, ws, uw, wv, rev = array("q", [0]), [], [], [], []
    for u, v, k in idx.pairs:
        if 0 < k < 3:
            common = intersect(nbr[u], nbr[v])
            ws += common
            uw += map(rows[u].__getitem__, common)
            wv += [rows[w][v] for w in common]
        start.append(len(ws))
        rev.append(rows[v][u])
    return CommonNeighbours(start, ws, uw, wv, rev)


Near = list[tuple[int, tuple[int, ...]]]


def _near(idx: TupleIndex) -> Near:
    """Per node x: the id of (x, y) for the first y at distance 1, and the
    nodes y at distance 1 or 2, whose tuples (x, y) follow in id order."""
    return [
        (row[x] + 1, sum(shell[1:3], ()))  # a missing shell is empty
        for x, (row, shell) in enumerate(zip(idx.rows, idx.shells))
    ]


class PairStats(NamedTuple):
    """Per-pair statistics, one slot per TupleIndex tuple id, and what they
    were computed from: the common-neighbour table, the ``_near`` spans of
    every node, and C3, the triangles at every node."""

    common: CommonNeighbours
    near: Near
    c3: list[int]
    p2: list[int]
    w3: list[int]
    p3: list[int]
    p22: list[int]
    p4: list[int]
    w4: list[int]
    t: list[int]
    cc1: list[int]
    cc2: list[int]
    ccx: list[int]
    tr1: list[int]
    tr2: list[int]
    c23: list[int]
    c24: list[int]


def pairwise_p2(idx: TupleIndex, cn: CommonNeighbours) -> list[int]:
    """P2(u, v) = |N1(u) & N1(v)| for every indexed pair: segment lengths."""
    start = cn.start
    return list(map(sub, islice(start, 1, None), start))


def node_triangles(idx: TupleIndex, p2: list[int]) -> list[int]:
    """C3(u): each triangle at u is seen once per incident triangle edge."""
    return [
        _exact_half(sum(p2[row[u] + 1 : row[u] + 1 + len(nbrs)]))
        for u, (row, nbrs) in enumerate(zip(idx.rows, idx.graph.adjacency))
    ]


def _walk(
    idx: TupleIndex,
    near: Near,
    weights: Iterable[tuple[int, int, int]],
    p2: list[int],
) -> list[int]:
    """Per tuple (u, v), the sum of c * P2(y, v) over the (u, y, c) in
    ``weights`` and the v at distance 1 or 2 from y.

    The walk keeps v when (u, v) is in the index: v = u and the v beyond
    distance d land on (u, u), which is reset to 0 at the end.
    """
    rows = idx.rows
    acc = [0] * idx.tuple_count
    for u, y, c in weights:
        first, ys = near[y]
        row = rows[u]
        for t, x in zip(map(row.get, ys, repeat(row[u])), p2[first : first + len(ys)]):
            acc[t] += c * x
    for u, row in enumerate(rows):
        acc[row[u]] = 0
    return acc


def pairwise_w3(idx: TupleIndex, p2: list[int], near: Near) -> list[int]:
    """3-walks u->v: the sum of 2-walks w->v over the neighbours w of u,
    which is P2(w, v) for w != v and deg(v) for w = v."""
    g = idx.graph
    deg = g.degrees()
    weights = ((u, w, 1) for u, nbrs in enumerate(g.adjacency) for w in nbrs)
    acc = _walk(idx, near, weights, p2)
    return [x + deg[v] if k == 1 else x for x, (_, v, k) in zip(acc, idx.pairs)]


def pairwise_p3(idx: TupleIndex, w3: list[int]) -> list[int]:
    """3-paths: strip the degree-many backtracking walks on adjacent pairs.

    At distance >= 2 every 3-walk is already a path (and W3(u, u) = 0).
    """
    deg = idx.graph.degrees()
    return [x - deg[u] - deg[v] + 1 if k == 1 else x for x, (u, v, k) in zip(w3, idx.pairs)]


def pairwise_p22(idx: TupleIndex, p2: list[int], near: Near) -> list[int]:
    """Sum over middle nodes y (distinct from u, v) of P2(u,y) * P2(y,v).

    y runs over the nodes at distance 1 or 2 from u with P2(u, y) > 0.
    """
    weights = (
        (u, y, c)
        for u, (first, ys) in enumerate(near)
        for y, c in zip(ys, p2[first : first + len(ys)])
        if c
    )
    return _walk(idx, near, weights, p2)


def pairwise_p4(
    idx: TupleIndex,
    cn: CommonNeighbours,
    p2: list[int],
    p22: list[int],
    c3: list[int],
) -> list[int]:
    """4-paths from the middle-split walks minus the coalescence terms."""
    deg = idx.graph.degrees()
    # sum of deg(x) - 2 over the common neighbours x of u and v
    coalesced = map(sub, cn.sums(map(deg.__getitem__, cn.w)), map(mul, p2, repeat(2)))
    return [
        a - b - (2 * c3[u] + 2 * c3[v] - 3 * x if k == 1 else 0)
        for a, b, x, (u, v, k) in zip(p22, coalesced, p2, idx.pairs)
    ]


def pairwise_w4(idx: TupleIndex, p2: list[int], p22: list[int]) -> list[int]:
    """4-walks: middle-split walks plus the walks whose midpoint is u or v
    (both terms are 0 on the diagonal)."""
    deg = idx.graph.degrees()
    return [a + (deg[u] + deg[v]) * x for a, x, (u, v, _) in zip(p22, p2, idx.pairs)]


def _pairwise_motifs(
    idx: TupleIndex, cn: CommonNeighbours, p2: list[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """T, CC1, CC2 and CCX from the common-neighbour segments."""
    nbr = idx.graph.neighbor_sets()
    ks = [k for _, _, k in idx.pairs]
    tail = cn.sums(map(p2.__getitem__, cn.wv))
    sum_uw = cn.sums(map(p2.__getitem__, cn.uw))
    t_arr = [a - x if k == 1 else a for a, x, k in zip(tail, p2, ks)]
    cc1 = [a - x if k == 1 else 0 for a, x, k in zip(sum_uw, p2, ks)]
    cc2 = [x * (x - 1) // 2 if k == 1 else 0 for x, k in zip(p2, ks)]
    # adjacent pairs among the common neighbours, for tuples with two or more
    ccx = [0] * idx.tuple_count
    start, ws = cn.start, cn.w
    for t, x in enumerate(p2):
        if x > 1:
            common = ws[start[t] : start[t + 1]]
            ccx[t] = sum(
                1 for i, w in enumerate(common) for y in common[i + 1 :] if y in nbr[w]
            )
    return t_arr, cc1, cc2, ccx


def _pairwise_split_cycles(
    idx: TupleIndex,
    cn: CommonNeighbours,
    p2: list[int],
    p3: list[int],
    p4: list[int],
    t_arr: list[int],
    cc1: list[int],
    ccx: list[int],
) -> tuple[list[int], list[int]]:
    """C23 and C24: the path-product counts minus every coalescence.

    C24 subtracts three degenerate families from P2 * P4; over the common
    neighbours x of u and v (m = P2(u, v) of them, adj = [u ~ v]):

      num_b = sum P3(x,v) - m(m-1) - adj * CC1(u,v)
      num_d = sum P3(u,x) - m(m-1) - adj * T(u,v)
      num_c = sum P2(u,x) P2(x,v) - adj * (CC1(u,v) + m + CC1(v,u)) - 2 CCX(u,v)

    (on adjacent pairs, CC1(u,v) = sum (P2(u,x) - 1) and T(u,v) = sum
    (P2(x,v) - 1)).  num_c is a chordal cycle with u, v off the chord;
    each occurrence appears twice, as the chord ends swap roles.  The three
    sums over x are one segment sum.
    """
    ks = [k for _, _, k in idx.pairs]
    linear = cn.sums(p3[a] + p3[b] + p2[a] * p2[b] for a, b in zip(cn.uw, cn.wv))
    c23 = [
        m * x - a - t_arr[r] if 0 < k < 3 else 0
        for m, x, a, r, k in zip(p2, p3, t_arr, cn.rev, ks)
    ]
    # C24 = m * P4 - (num_b + num_c + num_d)
    c24 = [
        m * x - lin + 2 * m * (m - 1) + 2 * c
        + (2 * cc1[t] + t_arr[t] + m + cc1[r] if k == 1 else 0)
        if 0 < k < 3 else 0
        for t, (m, x, lin, c, r, k) in enumerate(zip(p2, p4, linear, ccx, cn.rev, ks))
    ]
    return c23, c24


def _pairwise_tr(
    idx: TupleIndex,
    cn: CommonNeighbours,
    p2: list[int],
    p3: list[int],
    t_arr: list[int],
    cc1: list[int],
    ccx: list[int],
) -> tuple[list[int], list[int]]:
    """TR1 (apex / shared-edge pairs) and TR2 (shared-edge / corner pairs)."""
    ks = [k for _, _, k in idx.pairs]
    tr2 = [
        tail_vu * (x - 1) - 2 * c if 0 < k < 3 else 0
        for tail_vu, x, c, k in zip(map(t_arr.__getitem__, cn.rev), p2, ccx, ks)
    ]
    # TR1 = sum over the common neighbours z of P3(z, v) - (P2(u, z) - 1),
    # less m(m - 1); the second sum is CC1(u, v)
    tr1 = [
        a - b - x * (x - 1) if k == 1 else 0
        for a, b, x, k in zip(cn.sums(map(p3.__getitem__, cn.wv)), cc1, p2, ks)
    ]
    return tr1, tr2


def compute_pair_stats(idx: TupleIndex) -> PairStats:
    """Build the common-neighbour table, then run every pairwise pass in
    dependency order."""
    if idx.d < 2:
        raise ValueError(f"closed-form counts need an index with d >= 2, got d={idx.d}")
    cn = common_neighbours(idx)
    near = _near(idx)
    p2 = pairwise_p2(idx, cn)
    c3 = node_triangles(idx, p2)
    w3 = pairwise_w3(idx, p2, near)
    p3 = pairwise_p3(idx, w3)
    p22 = pairwise_p22(idx, p2, near)
    p4 = pairwise_p4(idx, cn, p2, p22, c3)
    w4 = pairwise_w4(idx, p2, p22)
    t_arr, cc1, cc2, ccx = _pairwise_motifs(idx, cn, p2)
    c23, c24 = _pairwise_split_cycles(idx, cn, p2, p3, p4, t_arr, cc1, ccx)
    tr1, tr2 = _pairwise_tr(idx, cn, p2, p3, t_arr, cc1, ccx)
    return PairStats(
        cn, near, c3, p2, w3, p3, p22, p4, w4, t_arr, cc1, cc2, ccx, tr1, tr2, c23, c24
    )


def node_walks(g: Graph, k: int) -> list[int]:
    """W_k(u): k-walks starting at u, by repeated neighbor summation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    walks = [len(a) for a in g.adjacency]
    for _ in range(k - 1):
        walks = [sum(walks[v] for v in g.adjacency[u]) for u in range(g.n)]
    return walks


class NodeCounts(NamedTuple):
    """Per-node counts over the supported catalog (cycle7 needs d >= 3)."""

    n: int
    d: int
    deg: list[int]
    cycle3: list[int]
    cycle4: list[int]
    cycle5: list[int]
    cycle6: list[int]
    cycle7: list[int] | None
    path2: list[int]
    path3: list[int]
    path4: list[int]
    tailed_triangle: list[int]
    cc1: list[int]
    cc2: list[int]
    tr1: list[int]
    tr2: list[int]
    tr3: list[int]

    def by_name(self, name: str) -> list[int]:
        field = {
            "chordal_cycle_cc1": "cc1",
            "chordal_cycle_cc2": "cc2",
        }.get(name, name)
        value = getattr(self, field) if name in GRAPH_LEVEL_FACTOR else None
        if value is None:
            if name == "cycle7":
                raise CapabilityError("cycle7 counts require an index with d >= 3")
            if name == "clique4":
                raise CapabilityError(
                    "4-cliques have no closed form here; use the oracle"
                )
            raise ValueError(f"unknown substructure {name!r}")
        return value


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

    Seven families reduce to aggregated node-level quantities; the other
    five (b, c, g, i, k) are summed over witnesses or walked triples
    (u, w, v) with explicit coalescence terms.  C7(u) is half of (product
    sum minus all twelve).
    """
    g = idx.graph
    n = g.n
    rows, pairs = idx.rows, idx.pairs
    cn = s.common
    start, ws, uw_ids, wv_ids = cn.start, cn.w, cn.uw, cn.wv
    p2, p3, p4, c23, t_arr = s.p2, s.p3, s.p4, s.c23, s.t
    nbr = g.neighbor_sets()
    near = s.near
    # node u's tuples are the ids first[u] .. first[u+1]-1; witnessed[u] and
    # adjacent[u] are the entry ranges of their witnesses, and of those of
    # its tuples at distance 1
    first = [row[u] for u, row in enumerate(rows)] + [idx.tuple_count]
    witnessed = list(zip(map(start.__getitem__, first), map(start.__getitem__, first[1:])))
    adjacent = [(start[a + 1], start[a + 1 + len(nbrs)]) for a, nbrs in zip(first, g.adjacency)]

    def squares(ids: list[int]) -> int:
        return sum(x * (x - 1) for x in map(p2.__getitem__, ids))

    # sum over v of P3(u,v) * P4(u,v), distances 1..3 (P3(u,u) = 0)
    prod34 = [sum(map(mul, p3[a:b], p4[a:b])) for a, b in zip(first, first[1:])]
    sum_e = [
        sum(map(mul, map(p3.__getitem__, uw_ids[a:b]), map(p2.__getitem__, wv_ids[a:b])))
        for a, b in witnessed
    ]
    # adjacent v: sums of P2(u,w)(P2(u,w)-1) and P2(w,v)(P2(w,v)-1) over common w
    acc_uw = [squares(uw_ids[a:b]) for a, b in adjacent]
    acc_wv = [squares(wv_ids[a:b]) for a, b in adjacent]

    # family (b): both paths leave u for the same first vertex w; count
    # 3-paths w->v that avoid u and the pendant a exactly
    sum_b = [0] * n
    for t, (u, v, k) in enumerate(pairs):
        if not p2[t]:
            continue
        adj = k == 1
        nbrv = nbr[v]
        acc = 0
        for p in range(start[t], start[t + 1]):
            tuw = uw_ids[p]
            base = p3[wv_ids[p]] - (p2[t] - 1) - adj * (p2[tuw] - 1) + adj
            for q in range(start[tuw], start[tuw + 1]):  # a in N1(u) & N1(w)
                a = ws[q]
                if a == v:
                    continue
                a_adj_v = a in nbrv
                tav = rows[a].get(v)
                p2av = 0 if tav is None else p2[tav]
                acc += base - (p2av - 1) - a_adj_v * (p2[wv_ids[q]] - 1) + a_adj_v
        sum_b[u] += acc

    sum_a, sum_c, sum_g, sum_i, sum_k = [0] * n, [0] * n, [0] * n, [0] * n, [0] * n
    # walk u -> w in N1(u) -> v at distance 1 or 2 from w, by middle node w;
    # only the v with P2(w, v) > 0 add anything
    for w, (lo, vs) in enumerate(near):
        hi = lo + len(vs)
        live = [(v, t, x) for v, t, x in zip(vs, range(lo, hi), p2[lo:hi]) if x]
        nbrw = nbr[w]
        for u in g.adjacency[w]:
            row_u = rows[u]
            nbru = nbr[u]
            tuw = row_u[w]
            p2uw = p2[tuw]
            tri = ws[start[tuw] : start[tuw + 1]]  # N1(u) & N1(w)
            acc_a = acc_c = acc_g = acc_i = acc_k = 0
            for v, twv, p2wv in live:
                t = row_u.get(v)
                if t is None or v == u:
                    continue
                acc_a += c23[twv]
                adj = v in nbru
                w_adj_v = v in nbrw
                # |N1(u) & N1(v) & N1(w)|, read off the common neighbours of u, w
                triple = len(nbr[v].intersection(tri)) if tri else 0
                beta = p2wv - adj  # the nodes b in N1(w) & N1(v) other than u
                # family (c): the 3-path's first interior vertex w sits in
                # the middle of the 4-path
                if beta > 0:
                    acc_c += (p2uw - adj * w_adj_v) * beta * (beta - 1) - 2 * (beta - 1) * triple
                # families (g), (i), (k): the two paths share the middle edge
                # w-b of the 3-path (g, k) or traverse it in opposite
                # directions (i); summed over the beta nodes b in closed form,
                # with sum P2(b, v) over b in N1(w) & N1(v) = T(w, v) + w_adj_v * P2(w, v)
                acc_g += t_arr[twv] + adj * (w_adj_v - p2[t] - triple)
                acc_k += beta * (p2uw - adj * w_adj_v) - triple
                acc_i += triple * (p2wv - adj - 1)
            sum_a[u] += acc_a
            sum_c[u] += acc_c
            sum_g[u] += acc_g
            sum_i[u] += acc_i
            sum_k[u] += acc_k

    sum_d, sum_f, sum_h = [0] * n, [0] * n, [0] * n
    for u, row_u in enumerate(rows):
        # walk u -> w at distance 1 or 2 -> v in N1(w)
        acc_d = acc_f = acc_h = 0
        lo_u, ws_u = near[u]
        for w, tuw in zip(ws_u, range(lo_u, lo_u + len(ws_u))):
            lo = near[w][0]
            nbrs = g.adjacency[w]
            kept = [x for v, x in zip(nbrs, p2[lo : lo + len(nbrs)]) if v != u and v in row_u]
            p2uw = p2[tuw]
            acc_d += p2uw * (p2uw - 1) * sum(kept)
            acc_f += c23[tuw] * len(kept)
            acc_h += t_arr[tuw] * len(kept)
        sum_d[u], sum_f[u], sum_h[u] = acc_d, acc_f, acc_h

    letters = {
        "a": [sum_a[u] - 4 * nc.cycle5[u] - nc.tr2[u] for u in range(n)],
        "b": sum_b,
        "c": sum_c,
        "d": [
            sum_d[u] - acc_uw[u] - 4 * nc.cc1[u] - 4 * nc.tr3[u] for u in range(n)
        ],
        "e": [
            sum_e[u]
            - 2 * acc_wv[u]
            + 2 * nc.cc1[u]
            - 2 * nc.cc2[u]
            - nc.tr2[u]
            - 2 * nc.tr3[u]
            for u in range(n)
        ],
        "f": [sum_f[u] - 4 * nc.cycle5[u] - nc.tr3[u] for u in range(n)],
        "g": sum_g,
        "h": [sum_h[u] - 4 * nc.tailed_triangle[u] for u in range(n)],
        "i": sum_i,
        "j": [acc_wv[u] - 4 * nc.cc1[u] for u in range(n)],
        "k": sum_k,
        "l": list(nc.tr3),
    }
    return prod34, letters


def _node_cycle7(idx: TupleIndex, s: PairStats, nc: "NodeCounts") -> list[int]:
    prod34, letters = cycle7_correction_terms(idx, s, nc)
    out = []
    for u in range(idx.graph.n):
        corrections = sum(arr[u] for arr in letters.values())
        out.append(_exact_half(prod34[u] - corrections))
    return out


def compute_node_counts(idx: TupleIndex) -> NodeCounts:
    """Node-level counts for the full catalog supported at the index's d."""
    g = idx.graph
    n = g.n
    stats = compute_pair_stats(idx)
    deg = g.degrees()
    rev = stats.common.rev
    # node u's tuples at distance 1 are the ids lo .. hi-1, one per
    # neighbour; those at distance 1 or 2 run on to the end of near[u]
    spans = [(row[u] + 1, row[u] + 1 + deg[u]) for u, row in enumerate(idx.rows)]
    near = [(lo, lo + len(ys)) for lo, ys in stats.near]

    def around(values: list[int], spans: list[tuple[int, int]] = spans) -> list[int]:
        """Per node u, the sum of values at (u, v) over v in its span."""
        return [sum(values[lo:hi]) for lo, hi in spans]

    def toward(values: list[int], spans: list[tuple[int, int]] = spans) -> list[int]:
        """Per node u, the sum of values at (v, u) over v in its span."""
        return [sum(map(values.__getitem__, rev[lo:hi])) for lo, hi in spans]

    cycle3 = stats.c3
    cycle4 = [_exact_half(x) for x in around(stats.p3)]
    cycle5 = [_exact_half(x) for x in around(stats.p4)]
    cycle6 = [_exact_half(x) for x in around(stats.c24, near)]
    path2, path3, path4 = (around(x, near) for x in (stats.p2, stats.p3, stats.p4))
    near_w3 = around(stats.w3, near)  # sum of W3(u, v) over v at distance 1..2
    near_w4 = around(stats.w4, near)
    tr3 = toward(stats.tr2, near)

    tailed = [
        sum(map(cycle3.__getitem__, nbrs)) - x
        for nbrs, x in zip(g.adjacency, around(stats.p2))
    ]
    cc1_node = [_exact_half(x) for x in toward(stats.cc1)]
    cc2_node = [_exact_half(x) for x in around(stats.cc1)]
    if cc2_node != around(stats.cc2):
        raise InvariantError("chordal-cycle aggregation routes disagree")

    tr1_node = [_exact_half(x) for x in around(stats.tr1)]
    tr2_node = toward(stats.tr1)
    if tr2_node != around(stats.tr2, near):
        raise InvariantError("triangle-rectangle aggregation routes disagree")

    w3_node = node_walks(g, 3)
    w4_node = node_walks(g, 4)
    for u in range(n):
        path3[u] += w3_node[u] - 2 * cycle3[u] - near_w3[u]
        closed4 = 2 * cycle4[u] + deg[u] * deg[u] + path2[u]
        path4[u] += w4_node[u] - closed4 - near_w4[u]

    counts = NodeCounts(
        n=n,
        d=idx.d,
        deg=deg,
        cycle3=cycle3,
        cycle4=cycle4,
        cycle5=cycle5,
        cycle6=cycle6,
        cycle7=None,
        path2=path2,
        path3=path3,
        path4=path4,
        tailed_triangle=tailed,
        cc1=cc1_node,
        cc2=cc2_node,
        tr1=tr1_node,
        tr2=tr2_node,
        tr3=tr3,
    )
    if idx.d >= 3:
        counts = counts._replace(cycle7=_node_cycle7(idx, stats, counts))
    return counts


def graph_level(counts: NodeCounts, name: str) -> int:
    """Whole-graph count: node total divided by the marked-orbit factor."""
    per_node = counts.by_name(name)
    factor = GRAPH_LEVEL_FACTOR[name]
    total = sum(per_node)
    if total % factor:
        raise InvariantError(f"{name}: node total {total} not divisible by {factor}")
    return total // factor


def supported_motifs(d: int) -> tuple[str, ...]:
    return COUNT_MOTIFS_D3 if d >= 3 else COUNT_MOTIFS_D2


def counts_to_report(counts: NodeCounts, motifs: tuple[str, ...] | None = None) -> dict:
    """JSON-ready report in the stable output schema."""
    if motifs is None:
        motifs = supported_motifs(counts.d)
    subs = {}
    for name in motifs:
        per_node = counts.by_name(name)
        subs[name] = {"per_node": list(per_node), "graph_level": graph_level(counts, name)}
    return {"n": counts.n, "substructures": subs}
