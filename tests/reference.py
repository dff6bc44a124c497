"""Reference implementations that the runtime code must agree with.

These are the straightforward forms that the runtime replaced with faster
ones:

* a sorted-merge ``intersect`` over the shell tuples;
* WL(1) and dense FWL(2) refinement that build every unit's key with a
  per-unit function, ``(color[v], sorted neighbour colors)`` and
  ``(color[u, v], sorted((color[w, v], color[u, w]) for every node w))``;
* d-DRFWL(2) refinement from the paper's per-(i, j) witness blocks,
  built with the merge-loop ``intersect``.  Its default key merges a
  unit's blocks into one sorted tuple of color pairs, as the runtime
  does, so the color ids must match; ``nested=True`` keeps the paper's
  key, one sorted tuple per channel, whose partitions must match;
* the counting passes and the cycle-7 terms as per-tuple maps that
  re-intersect every witness set ``N_i(u) & N_j(v)`` they read and look
  every id up in ``pair_id(idx)[(a, b)]`` (``pair_stats`` and
  ``cycle7_correction_terms``).

They live here, not in the package, so there is one runtime path; the
tests compare the two on every input they draw.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, Sequence

from drfwl import counting
from drfwl.counting import NodeCounts
from drfwl.errors import exact_quotient
from drfwl.graph import Graph, khop
from drfwl.tuples import TupleIndex, build_index

PAIR_FIELDS = (
    "p2", "w3", "p3", "p22", "p4", "w4", "t", "cc2", "ccx", "tr1", "tr2", "c23", "c24"
)


def runtime_pair_fields(idx: TupleIndex, s: counting.PairStats) -> dict[str, list[int]]:
    """Every PAIR_FIELDS field of the runtime's PairStats ``s``, in that
    order.  W3, W4, CC2, C23 and TR2 have no field there.  They are
    built from the stored fields and the degrees: W3 = P3 + adj * (deg u +
    deg v - 1), the 3-paths plus the walks that step back; W4 = P22 +
    (deg u + deg v) * P2, the middle-split walks plus those whose midpoint
    is u or v; CC2 = C(P2, 2) on adjacent pairs; and the forms that the
    runtime's readers of C23 and TR2 build, P2 * P3 - T - T(rev) and
    T(rev) * (P2 - 1) - 2 * CCX."""
    deg, adj = s.deg, [k == 1 for k in idx.ks]
    t_rev = [s.t[r] for r in idx.rev]
    derived = {
        "w3": [x + a * (deg[u] + deg[v] - 1) for x, a, u, v in zip(s.p3, adj, idx.us, idx.vs)],
        "w4": [a + (deg[u] + deg[v]) * x for a, x, u, v in zip(s.p22, s.p2, idx.us, idx.vs)],
        "cc2": [x * (x - 1) // 2 if a else 0 for x, a in zip(s.p2, adj)],
        "c23": [x * y - a - b for x, y, a, b in zip(s.p2, s.p3, s.t, t_rev)],
        "tr2": [b * (x - 1) - 2 * c for b, x, c in zip(t_rev, s.p2, s.ccx)],
    }
    return {f: derived[f] if f in derived else getattr(s, f) for f in PAIR_FIELDS}


def pair_id(idx: TupleIndex) -> dict[tuple[int, int], int]:
    """The index's ids keyed by pairs: ``pair_id(idx)[(u, v)] == idx.rows[u][v]``."""
    return {(u, v): t for u, row in enumerate(idx.rows) for v, t in row.items()}


def admissible_triples(d: int) -> list[tuple[int, int, int]]:
    """All (i, j, k) with 0 <= i,j,k <= d and |i-j| <= k <= i+j, in
    lexicographic order."""
    return [
        (i, j, k)
        for i in range(d + 1)
        for j in range(d + 1)
        for k in range(d + 1)
        if abs(i - j) <= k <= i + j
    ]


def shell(idx: TupleIndex, u: int, k: int) -> tuple[int, ...]:
    """N_k(u), for any k <= d, by BFS from u in the indexed graph, not from
    the index under test: ``khop`` stops at the last non-empty shell."""
    shells = khop(idx.graph, u, idx.d)
    return shells[k] if k < len(shells) else ()


def intersect(idx: TupleIndex, u: int, v: int, i: int, j: int) -> list[int]:
    """Sorted merge-intersection of N_i(u) and N_j(v); N_0(x) = {x}."""
    a = shell(idx, u, i)
    b = shell(idx, v, j)
    if len(b) < len(a):
        a, b = b, a
    out: list[int] = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        x, y = a[ia], b[ib]
        if x == y:
            out.append(x)
            ia += 1
            ib += 1
        elif x < y:
            ia += 1
        else:
            ib += 1
    return out


def _compress(keys: list) -> tuple[list[int], int]:
    distinct = sorted(set(keys))
    rank = {k: i for i, k in enumerate(distinct)}
    return [rank[k] for k in keys], len(distinct)


def _refine_to_stability(init_keys: list, key_fn) -> tuple[list[int], int, tuple[int, ...]]:
    total = len(init_keys)
    if total == 0:
        return [], 0, ()
    colors, classes = _compress(init_keys)
    history = [classes]
    iterations = 0
    for _ in range(total + 1):
        new_colors, new_classes = _compress([key_fn(t, colors) for t in range(total)])
        iterations += 1
        history.append(new_classes)
        if new_classes == classes:
            return new_colors, iterations, tuple(history)
        colors, classes = new_colors, new_classes
    raise AssertionError("refinement exceeded its iteration cap")


def _offsets(sizes: list[int]) -> list[int]:
    out, total = [], 0
    for size in sizes:
        out.append(total)
        total += size
    return out


def _split(colors: list[int], sizes: list[int]) -> list[list[int]]:
    out, start = [], 0
    for size in sizes:
        out.append(colors[start : start + size])
        start += size
    return out


def wl1_multi(graphs: Sequence[Graph]) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Lockstep WL(1) over the graphs, from per-node keys."""
    sizes = [g.n for g in graphs]
    units = [(g, off, v) for g, off in zip(graphs, _offsets(sizes)) for v in range(g.n)]

    def key_fn(t: int, colors: list[int]):
        g, off, v = units[t]
        return (colors[t], tuple(sorted(colors[off + w] for w in g.adjacency[v])))

    colors, iterations, history = _refine_to_stability([0] * len(units), key_fn)
    return _split(colors, sizes), iterations, history


def fwl2_multi(graphs: Sequence[Graph]) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Lockstep dense FWL(2) over the graphs, from per-pair keys over all
    n witnesses; initial colors 0 (u = v), 1 (edge), 2 (non-edge)."""
    sizes = [g.n * g.n for g in graphs]
    units = []
    init = []
    for g, off in zip(graphs, _offsets(sizes)):
        for u in range(g.n):
            for v in range(g.n):
                units.append((g, off, u, v))
                init.append(0 if u == v else 1 if g.has_edge(u, v) else 2)

    def key_fn(t: int, colors: list[int]):
        g, off, u, v = units[t]
        n = g.n
        row_u = off + u * n
        return (
            colors[t],
            tuple(sorted((colors[off + w * n + v], colors[row_u + w]) for w in range(n))),
        )

    colors, iterations, history = _refine_to_stability(init, key_fn)
    return _split(colors, sizes), iterations, history


def _drfwl_blocks(
    idx: TupleIndex, offset: int, masked: frozenset
) -> list[list[tuple[tuple[int, int], ...]]]:
    """Per tuple, per admissible (i, j) channel, the (id(w,v), id(u,w))
    index pairs that feed its multiset."""
    d = idx.d
    pid = pair_id(idx)
    blocks: list[list[tuple[tuple[int, int], ...]]] = []
    channels_for_k: list[list[tuple[int, int]]] = [[] for _ in range(d + 1)]
    for i, j, k in admissible_triples(d):
        if (i, j, k) not in masked:
            channels_for_k[k].append((i, j))
    for u, v, k in zip(idx.us, idx.vs, idx.ks):
        per_pair = []
        for i, j in channels_for_k[k]:
            ws = intersect(idx, u, v, i, j)
            per_pair.append(tuple((offset + pid[(w, v)], offset + pid[(u, w)]) for w in ws))
        blocks.append(per_pair)
    return blocks


def drfwl_multi(
    graphs: Sequence[Graph],
    d: int,
    mask: Iterable[tuple[int, int, int]] | None = None,
    nested: bool = False,
) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """Lockstep d-DRFWL(2) over the graphs: per-graph colors, rounds, and
    class counts per round, from per-unit keys over the per-channel
    blocks, merged into one sorted tuple or, with ``nested``, one per
    channel."""
    masked = frozenset(tuple(t) for t in mask or ())
    indexes = [build_index(g, d) for g in graphs]
    sizes = [idx.tuple_count for idx in indexes]
    init = [k for idx in indexes for k in idx.ks]
    blocks: list[list[tuple[tuple[int, int], ...]]] = []
    for idx, offset in zip(indexes, _offsets(sizes)):
        blocks.extend(_drfwl_blocks(idx, offset, masked))

    def merged_key(t: int, colors: list[int]):
        return (
            colors[t],
            tuple(sorted((colors[a], colors[b]) for block in blocks[t] for a, b in block)),
        )

    def nested_key(t: int, colors: list[int]):
        return (
            colors[t],
            tuple(
                tuple(sorted((colors[a], colors[b]) for a, b in block))
                for block in blocks[t]
            ),
        )

    colors, iterations, history = _refine_to_stability(
        init, nested_key if nested else merged_key
    )
    return _split(colors, sizes), iterations, history


# ---------------------------------------------------------------------------
# counting passes


def pairwise_p2(idx: TupleIndex) -> list[int]:
    """P2(u, v) = |N1(u) & N1(v)| for every indexed pair."""
    us, vs, ks = idx.us, idx.vs, idx.ks

    def one(t: int) -> int:
        u, v, k = us[t], vs[t], ks[t]
        if k == 0:
            return 0
        return len(intersect(idx, u, v, 1, 1))

    return [one(t) for t in range(idx.tuple_count)]


def node_triangles(idx: TupleIndex, p2: list[int]) -> list[int]:
    """C3(u): each triangle at u is seen once per incident triangle edge."""
    g = idx.graph
    pid = pair_id(idx)
    out = []
    for u in range(g.n):
        acc = sum(p2[pid[(u, v)]] for v in g.adjacency[u])
        out.append(exact_quotient(acc, 2, "cycle3"))
    return out


def pairwise_w3(idx: TupleIndex, p2: list[int]) -> list[int]:
    """3-walk counts from the one-sided neighbor sums, averaged exactly."""
    g = idx.graph
    us, vs, ks = idx.us, idx.vs, idx.ks
    pid = pair_id(idx)
    deg = g.degrees()

    def one(t: int) -> int:
        u, v, k = us[t], vs[t], ks[t]
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
        return exact_quotient(acc, 2, "W3")

    return [one(t) for t in range(idx.tuple_count)]


def pairwise_p3(idx: TupleIndex, w3: list[int]) -> list[int]:
    """3-paths: strip the degree-many backtracking walks on adjacent pairs."""
    g = idx.graph
    us, vs, ks = idx.us, idx.vs, idx.ks
    deg = g.degrees()

    def one(t: int) -> int:
        u, v, k = us[t], vs[t], ks[t]
        if k == 0:
            return 0
        if k == 1:
            return w3[t] - (deg[u] + deg[v] - 1)
        return w3[t]  # distance >= 2: every 3-walk is already a path

    return [one(t) for t in range(idx.tuple_count)]


def pairwise_p22(idx: TupleIndex, p2: list[int]) -> list[int]:
    """Sum over middle nodes y (distinct from u, v) of P2(u,y) * P2(y,v)."""
    us, vs, ks = idx.us, idx.vs, idx.ks
    pid = pair_id(idx)

    def one(t: int) -> int:
        u, v, k = us[t], vs[t], ks[t]
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
    us, vs, ks = idx.us, idx.vs, idx.ks
    deg = g.degrees()

    def one(t: int) -> int:
        u, v, k = us[t], vs[t], ks[t]
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
    us, vs, ks = idx.us, idx.vs, idx.ks
    deg = g.degrees()

    def one(t: int) -> int:
        u, v, k = us[t], vs[t], ks[t]
        if k == 0:
            return 0
        return p22[t] + (deg[u] + deg[v]) * p2[t]

    return [one(t) for t in range(idx.tuple_count)]


def _pairwise_motifs(
    idx: TupleIndex, p2: list[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """T, CC1, CC2 and CCX in a single pass over the common neighborhoods."""
    g = idx.graph
    us, vs, ks = idx.us, idx.vs, idx.ks
    pid = pair_id(idx)
    nbr = g.neighbor_sets()

    def one(t: int) -> tuple[int, int, int, int]:
        u, v, k = us[t], vs[t], ks[t]
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
    us, vs, ks = idx.us, idx.vs, idx.ks
    pid = pair_id(idx)

    def one(t: int) -> tuple[int, int]:
        u, v, k = us[t], vs[t], ks[t]
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
    us, vs, ks = idx.us, idx.vs, idx.ks
    pid = pair_id(idx)

    def one(t: int) -> tuple[int, int]:
        u, v, k = us[t], vs[t], ks[t]
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


def pair_stats(idx: TupleIndex) -> SimpleNamespace:
    """Every pairwise pass in dependency order; one attribute per
    PAIR_FIELDS field, plus ``cc1``, which the runtime reads as T of the
    reversed pair instead of storing it."""
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
    return SimpleNamespace(
        p2=p2, w3=w3, p3=p3, p22=p22, p4=p4, w4=w4, t=t_arr, cc1=cc1, cc2=cc2,
        ccx=ccx, tr1=tr1, tr2=tr2, c23=c23, c24=c24,
    )


def cycle7_correction_terms(
    idx: TupleIndex, s: SimpleNamespace, nc: NodeCounts
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
    pid = pair_id(idx)
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

    for t, (u, v, k) in enumerate(zip(idx.us, idx.vs, idx.ks)):
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
            sum_d[u] - acc_uw[u] - 4 * nc.chordal_cycle_cc1[u] - 4 * nc.tr3[u] for u in range(n)
        ],
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
