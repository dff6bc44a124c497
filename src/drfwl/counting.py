"""Closed-form substructure counting over the distance-restricted index.

The pipeline runs a fixed sequence of sparse passes.  Each pass is a pure
map over the indexed pairs that reads only earlier passes, so a wrong
count localizes to one formula.  Everything is exact 64-bit-safe integer
arithmetic; an inexact division raises InvariantError.

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

from dataclasses import dataclass

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


@dataclass
class PairStats:
    """Per-pair statistics, one slot per TupleIndex tuple id."""

    index: TupleIndex
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

    def pair_value(self, array: list[int], u: int, v: int) -> int:
        """array value at pair (u, v); 0 when the pair is out of range."""
        t = self.index.pair_id.get((u, v))
        return 0 if t is None else array[t]


def pairwise_p2(idx: TupleIndex) -> list[int]:
    """P2(u, v) = |N1(u) & N1(v)| for every indexed pair."""
    pairs = idx.pairs

    def one(t: int) -> int:
        u, v, k = pairs[t]
        if k == 0:
            return 0
        return len(intersect(idx, u, v, 1, 1))

    return [one(t) for t in range(idx.tuple_count)]


def node_triangles(idx: TupleIndex, p2: list[int]) -> list[int]:
    """C3(u): each triangle at u is seen once per incident triangle edge."""
    g = idx.graph
    pid = idx.pair_id
    out = []
    for u in range(g.n):
        acc = sum(p2[pid[(u, v)]] for v in g.adjacency[u])
        out.append(_exact_half(acc))
    return out


def pairwise_w3(idx: TupleIndex, p2: list[int]) -> list[int]:
    """3-walk counts from the one-sided neighbor sums, averaged exactly."""
    g = idx.graph
    pairs = idx.pairs
    pid = idx.pair_id
    deg = g.degrees()

    def one(t: int) -> int:
        u, v, k = pairs[t]
        if k == 0 or k > 3:
            return 0
        acc = 0
        for w in intersect(idx, u, v, 1, 1):
            acc += p2[pid[(u, w)]] + p2[pid[(w, v)]]
        for w in intersect(idx, u, v, 1, 2):
            acc += p2[pid[(w, v)]]
        for w in intersect(idx, u, v, 2, 1):
            acc += p2[pid[(u, w)]]
        if k == 1:
            acc += deg[u] + deg[v]
        return _exact_half(acc)

    return [one(t) for t in range(idx.tuple_count)]


def pairwise_p3(idx: TupleIndex, w3: list[int]) -> list[int]:
    """3-paths: strip the degree-many backtracking walks on adjacent pairs."""
    g = idx.graph
    pairs = idx.pairs
    deg = g.degrees()

    def one(t: int) -> int:
        u, v, k = pairs[t]
        if k == 0:
            return 0
        if k == 1:
            return w3[t] - (deg[u] + deg[v] - 1)
        return w3[t]  # distance >= 2: every 3-walk is already a path

    return [one(t) for t in range(idx.tuple_count)]


def pairwise_p22(idx: TupleIndex, p2: list[int]) -> list[int]:
    """Sum over middle nodes y (distinct from u, v) of P2(u,y) * P2(y,v)."""
    pairs = idx.pairs
    pid = idx.pair_id

    def one(t: int) -> int:
        u, v, k = pairs[t]
        if k == 0:
            return 0
        acc = 0
        for i in (1, 2):
            for j in (1, 2):
                for w in intersect(idx, u, v, i, j):
                    acc += p2[pid[(u, w)]] * p2[pid[(w, v)]]
        return acc

    return [one(t) for t in range(idx.tuple_count)]


def pairwise_p4(
    idx: TupleIndex,
    p2: list[int],
    p22: list[int],
    c3: list[int],
) -> list[int]:
    """4-paths from the middle-split walks minus the coalescence terms."""
    g = idx.graph
    pairs = idx.pairs
    deg = g.degrees()

    def one(t: int) -> int:
        u, v, k = pairs[t]
        if k == 0:
            return 0
        acc = p22[t]
        if k <= 2:
            acc -= sum(deg[x] - 2 for x in intersect(idx, u, v, 1, 1))
        if k == 1:
            acc -= 2 * c3[u] + 2 * c3[v] - 3 * p2[t]
        return acc

    return [one(t) for t in range(idx.tuple_count)]


def pairwise_w4(idx: TupleIndex, p2: list[int], p22: list[int]) -> list[int]:
    """4-walks: middle-split walks plus the walks whose midpoint is u or v."""
    g = idx.graph
    pairs = idx.pairs
    deg = g.degrees()

    def one(t: int) -> int:
        u, v, k = pairs[t]
        if k == 0:
            return 0
        return p22[t] + (deg[u] + deg[v]) * p2[t]

    return [one(t) for t in range(idx.tuple_count)]


def _pairwise_motifs(
    idx: TupleIndex, p2: list[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """T, CC1, CC2 and CCX in a single pass over the common neighborhoods."""
    g = idx.graph
    pairs = idx.pairs
    pid = idx.pair_id
    nbr = g.neighbor_sets()

    def one(t: int) -> tuple[int, int, int, int]:
        u, v, k = pairs[t]
        if k == 0 or k > 2:
            return (0, 0, 0, 0)
        common = intersect(idx, u, v, 1, 1)
        tail = sum(p2[pid[(w, v)]] for w in common)
        ccx = 0
        for a_pos, w in enumerate(common):
            nw = nbr[w]
            for x in common[a_pos + 1 :]:
                if x in nw:
                    ccx += 1
        if k == 1:
            tail -= p2[t]
            cc1 = sum(p2[pid[(u, w)]] - 1 for w in common)
            cc2 = p2[t] * (p2[t] - 1) // 2
        else:
            cc1 = 0
            cc2 = 0
        return (tail, cc1, cc2, ccx)

    rows = [one(t) for t in range(idx.tuple_count)]
    t_arr = [r[0] for r in rows]
    cc1_arr = [r[1] for r in rows]
    cc2_arr = [r[2] for r in rows]
    ccx_arr = [r[3] for r in rows]
    return t_arr, cc1_arr, cc2_arr, ccx_arr


def _pairwise_split_cycles(
    idx: TupleIndex,
    p2: list[int],
    p3: list[int],
    p4: list[int],
    t_arr: list[int],
    cc1: list[int],
    ccx: list[int],
) -> tuple[list[int], list[int]]:
    """C23 and C24: the path-product counts minus every coalescence."""
    pairs = idx.pairs
    pid = idx.pair_id

    def one(t: int) -> tuple[int, int]:
        u, v, k = pairs[t]
        if k == 0 or k > 2:
            return (0, 0)
        p2uv = p2[t]
        c23 = p2uv * p3[t] - t_arr[t] - t_arr[pid[(v, u)]]
        common = intersect(idx, u, v, 1, 1)
        # corrections shared by the three degenerate families of C24
        sum_p3_xv = sum(p3[pid[(x, v)]] for x in common)
        sum_p3_ux = sum(p3[pid[(u, x)]] for x in common)
        sum_p2_ux_minus1 = sum(p2[pid[(u, x)]] - 1 for x in common)
        sum_p2_xv_minus1 = sum(p2[pid[(x, v)]] - 1 for x in common)
        sum_prod = sum(p2[pid[(u, x)]] * p2[pid[(x, v)]] for x in common)
        pair_sq = p2uv * (p2uv - 1)
        adj = 1 if k == 1 else 0
        num_b = sum_p3_xv - pair_sq - adj * sum_p2_ux_minus1
        num_d = sum_p3_ux - pair_sq - adj * sum_p2_xv_minus1
        # the merged-endpoint family is a chordal cycle with u, v off the
        # chord; each occurrence appears twice (the chord ends swap roles)
        num_c = (
            sum_prod
            - adj * (sum_p2_ux_minus1 + cc1[pid[(v, u)]] + p2uv)
            - 2 * ccx[t]
        )
        c24 = p2uv * p4[t] - num_b - num_c - num_d
        return (c23, c24)

    rows = [one(t) for t in range(idx.tuple_count)]
    return [r[0] for r in rows], [r[1] for r in rows]


def _pairwise_tr(
    idx: TupleIndex,
    p2: list[int],
    p3: list[int],
    t_arr: list[int],
    ccx: list[int],
) -> tuple[list[int], list[int]]:
    """TR1 (apex / shared-edge pairs) and TR2 (shared-edge / corner pairs)."""
    pairs = idx.pairs
    pid = idx.pair_id

    def one(t: int) -> tuple[int, int]:
        u, v, k = pairs[t]
        if k == 0 or k > 2:
            return (0, 0)
        p2uv = p2[t]
        tr2 = t_arr[pid[(v, u)]] * (p2uv - 1) - 2 * ccx[t]
        if k != 1:
            return (0, tr2)
        common = intersect(idx, u, v, 1, 1)
        tr1 = (
            sum(p3[pid[(z, v)]] for z in common)
            - sum(p2[pid[(u, z)]] - 1 for z in common)
            - p2uv * (p2uv - 1)
        )
        return (tr1, tr2)

    rows = [one(t) for t in range(idx.tuple_count)]
    return [r[0] for r in rows], [r[1] for r in rows]


def compute_pair_stats(idx: TupleIndex, threads: int = 1) -> PairStats:
    """Run every pairwise pass in dependency order.

    ``threads`` has no effect; results are identical for every value.
    """
    if idx.d < 2:
        raise ValueError(f"closed-form counts need an index with d >= 2, got d={idx.d}")
    p2 = pairwise_p2(idx)
    c3 = node_triangles(idx, p2)
    w3 = pairwise_w3(idx, p2)
    p3 = pairwise_p3(idx, w3)
    p22 = pairwise_p22(idx, p2)
    p4 = pairwise_p4(idx, p2, p22, c3)
    w4 = pairwise_w4(idx, p2, p22)
    t_arr, cc1, cc2, ccx = _pairwise_motifs(idx, p2)
    c23, c24 = _pairwise_split_cycles(idx, p2, p3, p4, t_arr, cc1, ccx)
    tr1, tr2 = _pairwise_tr(idx, p2, p3, t_arr, ccx)
    return PairStats(
        index=idx,
        p2=p2,
        w3=w3,
        p3=p3,
        p22=p22,
        p4=p4,
        w4=w4,
        t=t_arr,
        cc1=cc1,
        cc2=cc2,
        ccx=ccx,
        tr1=tr1,
        tr2=tr2,
        c23=c23,
        c24=c24,
    )


def node_walks(g: Graph, k: int) -> list[int]:
    """W_k(u): k-walks starting at u, by repeated neighbor summation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    walks = [len(a) for a in g.adjacency]
    for _ in range(k - 1):
        walks = [sum(walks[v] for v in g.adjacency[u]) for u in range(g.n)]
    return walks


@dataclass
class NodeCounts:
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
        value = getattr(self, field, None)
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
    five (b, c, g, i, k) are summed pair by pair with explicit
    coalescence terms.  C7(u) is half of (product sum minus all twelve).
    """
    g = idx.graph
    n = g.n
    pid = idx.pair_id
    p2, p3, p4 = s.p2, s.p3, s.p4
    nbr = g.neighbor_sets()

    def p2_at(a: int, b: int) -> int:
        t = pid.get((a, b))
        return 0 if t is None else p2[t]

    prod34 = [0] * n  # sum over v of P3(u,v) * P4(u,v), distances 1..3
    sum_a = [0] * n
    sum_b = [0] * n
    sum_c = [0] * n
    sum_d = [0] * n
    sum_e = [0] * n
    sum_f = [0] * n
    sum_g = [0] * n
    sum_h = [0] * n
    sum_i = [0] * n
    sum_k = [0] * n
    acc_uw = [0] * n  # adjacent v: sum of P2(u,w)(P2(u,w)-1) over common w
    acc_wv = [0] * n  # adjacent v: sum of P2(w,v)(P2(w,v)-1) over common w

    for t, (u, v, k) in enumerate(idx.pairs):
        if k == 0:
            continue
        prod34[u] += p3[t] * p4[t]
        adj = 1 if k == 1 else 0
        nbrv = nbr[v]
        common = intersect(idx, u, v, 1, 1)
        if k <= 2:
            for w in common:
                tw_uw = pid[(u, w)]
                tw_wv = pid[(w, v)]
                p2uw = p2[tw_uw]
                p2wv = p2[tw_wv]
                sum_a[u] += s.c23[tw_wv]
                sum_d[u] += p2uw * p2wv * (p2uw - 1)
                sum_e[u] += p3[tw_uw] * p2wv
                sum_f[u] += s.c23[tw_uw]
                sum_h[u] += s.t[tw_uw]
                if k == 1:
                    acc_uw[u] += p2uw * (p2uw - 1)
                    acc_wv[u] += p2wv * (p2wv - 1)
                # family (b): both paths leave u for the same first vertex;
                # count 3-paths w->v that avoid u and the pendant a exactly
                base = (
                    p3[tw_wv]
                    - (p2[t] - 1)
                    - adj * (p2uw - 1)
                    + adj
                )
                for a in intersect(idx, u, w, 1, 1):
                    if a == v:
                        continue
                    a_adj_v = 1 if a in nbrv else 0
                    sum_b[u] += (
                        base
                        - (p2_at(a, v) - 1)
                        - a_adj_v * (p2[pid[(a, w)]] - 1)
                        + a_adj_v
                    )
        # the same channels reached through one distance-2 hop
        for w in intersect(idx, u, v, 1, 2):
            sum_a[u] += s.c23[pid[(w, v)]]
        for w in intersect(idx, u, v, 2, 1):
            tw_uw = pid[(u, w)]
            sum_d[u] += p2[tw_uw] * p2[pid[(w, v)]] * (p2[tw_uw] - 1)
            sum_f[u] += s.c23[tw_uw]
            sum_h[u] += s.t[tw_uw]
        # family (c): paths share the 3-path's first interior vertex s,
        # which sits in the middle of the 4-path
        common_set = set(common)
        for sv in g.adjacency[u]:
            if sv == v:
                continue
            p2sv = p2_at(sv, v)
            beta = p2sv - adj
            if beta <= 0:
                continue
            s_adj_v = 1 if sv in nbrv else 0
            xi = p2[pid[(u, sv)]] - adj * s_adj_v
            triple = sum(1 for w in common_set if w in nbr[sv])
            sum_c[u] += xi * beta * (beta - 1) - 2 * (beta - 1) * triple
        # families (g), (i), (k): the two paths share the middle edge of
        # the 3-path (g, k) or traverse it in opposite directions (i)
        nbru = nbr[u]
        for a in g.adjacency[u]:
            if a == v:
                continue
            a_adj_v = 1 if a in nbrv else 0
            p2ua = p2[pid[(u, a)]]
            p2av = p2_at(a, v)
            for b in intersect(idx, a, v, 1, 1):
                if b == u:
                    continue
                b_adj_u = 1 if b in nbru else 0
                sum_g[u] += p2_at(b, v) - adj * b_adj_u - a_adj_v
                sum_k[u] += p2ua - adj * a_adj_v - b_adj_u
                if b_adj_u:
                    sum_i[u] += p2av - adj - 1

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


def compute_node_counts(
    idx: TupleIndex, stats: PairStats | None = None, threads: int = 1
) -> NodeCounts:
    """Node-level counts for the full catalog supported at the index's d.

    ``threads`` has no effect; results are identical for every value.
    """
    g = idx.graph
    n = g.n
    if stats is None:
        stats = compute_pair_stats(idx)
    pid = idx.pair_id
    deg = g.degrees()

    p2s = stats.p2
    cycle3 = node_triangles(idx, p2s)
    cycle4 = [
        _exact_half(sum(stats.p3[pid[(u, v)]] for v in g.adjacency[u]))
        for u in range(n)
    ]
    cycle5 = [
        _exact_half(sum(stats.p4[pid[(u, v)]] for v in g.adjacency[u]))
        for u in range(n)
    ]

    cycle6 = [0] * n
    path2 = [0] * n
    path3 = [0] * n
    path4 = [0] * n
    near_w3 = [0] * n  # sum of W3(u, v) over in-range v at distance 1..2
    near_w4 = [0] * n
    tr2_alt = [0] * n
    tr3 = [0] * n
    for t, (u, v, k) in enumerate(idx.pairs):
        if k == 0 or k > 2:
            continue
        cycle6[u] += stats.c24[t]
        path2[u] += stats.p2[t]
        path3[u] += stats.p3[t]
        path4[u] += stats.p4[t]
        near_w3[u] += stats.w3[t]
        near_w4[u] += stats.w4[t]
        tr2_alt[u] += stats.tr2[t]
        tr3[u] += stats.tr2[pid[(v, u)]]
    cycle6 = [_exact_half(x) for x in cycle6]

    tailed = [
        sum(cycle3[v] - stats.p2[pid[(u, v)]] for v in g.adjacency[u])
        for u in range(n)
    ]
    cc1_node = [
        _exact_half(sum(stats.cc1[pid[(v, u)]] for v in g.adjacency[u]))
        for u in range(n)
    ]
    cc2_node = [
        _exact_half(sum(stats.cc1[pid[(u, v)]] for v in g.adjacency[u]))
        for u in range(n)
    ]
    cc2_direct = [
        sum(stats.cc2[pid[(u, v)]] for v in g.adjacency[u]) for u in range(n)
    ]
    if cc2_node != cc2_direct:
        raise InvariantError("chordal-cycle aggregation routes disagree")

    tr1_node = [
        _exact_half(sum(stats.tr1[pid[(u, v)]] for v in g.adjacency[u]))
        for u in range(n)
    ]
    tr2_node = [
        sum(stats.tr1[pid[(v, u)]] for v in g.adjacency[u]) for u in range(n)
    ]
    if tr2_node != tr2_alt:
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
        counts.cycle7 = _node_cycle7(idx, stats, counts)
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
