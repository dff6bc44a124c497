"""Stable d-DRFWL(2) colours determine the substructure counts.

The paper's main result ties refinement to counting: 2-DRFWL(2) counts
3- to 6-cycles and 3-DRFWL(2) counts 7-cycles.  So, in one lockstep run,
two tuples of one stable colour have equal pair statistics, and two nodes
whose (u, u) tuples share a colour have equal per-node cycle counts.
These tests check that tie between ``refine`` and ``counting`` on a fixed
family of graphs that WL(1) cannot tell apart (2-regular graphs and
4-regular circulants, grouped by node count and run in lockstep per
group) and on hypothesis pairs of regular graphs.  Three controls pin that
the family is hard enough for the check to mean something: cycle7 at d=2
is not determined by the colours, and masking the (1, 1) or the (2, 2)
witnesses breaks the cycle counts.  Partitions also refine monotonically:
the d + 1 colours of the tuples within d refine the d colours, and a mask
only coarsens.
"""
from __future__ import annotations

from collections import defaultdict

import hypothesis.strategies as st
from hypothesis import given, settings

from drfwl.counting import compute_node_counts, compute_pair_stats
from drfwl.graph import Graph, gen_cycle, gen_disjoint_union, gen_random_regular, permute
from drfwl.refine import _drfwl_multi
from drfwl.tuples import build_index
from reference import PAIR_FIELDS, admissible_triples

CYCLES = ("cycle3", "cycle4", "cycle5", "cycle6")


def _circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return Graph.from_edges(
        n, sorted({tuple(sorted((v, (v + s) % n))) for v in range(n) for s in jumps})
    )


def _family() -> list[list[Graph]]:
    """Per (n, degree), n = 6..14: the cycle and the unions of two cycles
    (degree 2), and the circulants C_n(a, b) with a < b < n / 2 (degree 4)."""
    groups: dict[tuple[int, int], list[Graph]] = defaultdict(list)
    for n in range(6, 15):
        groups[n, 2].append(gen_cycle(n))
        groups[n, 2] += [
            gen_disjoint_union([gen_cycle(a), gen_cycle(n - a)]) for a in range(3, n // 2 + 1)
        ]
        groups[n, 4] += [
            _circulant(n, (a, b)) for b in range(2, (n + 1) // 2) for a in range(1, b)
        ]
    return [gs for gs in groups.values() if len(gs) > 1]


FAMILY = _family()


def _violations(colors: list[list[int]], values: list[list]) -> int:
    """Units whose value differs from the first value seen for their colour,
    over all graphs of one lockstep run."""
    first: dict[int, object] = {}
    return sum(
        first.setdefault(c, x) != x
        for cs, xs in zip(colors, values)
        for c, x in zip(cs, xs)
    )


def _node_colors(colors: list[list[int]], indexes) -> list[list[int]]:
    """The colour of each node's tuple (u, u)."""
    return [[cs[row[u]] for u, row in enumerate(idx.rows)] for cs, idx in zip(colors, indexes)]


def _check(gs: list[Graph], d: int, mask=None) -> dict[str, int]:
    """Violations of colour determination in the lockstep run of ``gs`` at
    ``d``: of the PairStats fields, of cycle3..cycle6, and of cycle7 (its
    counts from a d=3 index, whatever ``d`` is)."""
    colors, _, _ = _drfwl_multi(gs, d, mask)
    indexes = [build_index(g, d) for g in gs]
    pair_values, node_values, cycle7 = [], [], []
    for g, idx in zip(gs, indexes):
        stats = compute_pair_stats(idx)
        pair_values.append(list(zip(*(getattr(stats, f) for f in PAIR_FIELDS))))
        counts = compute_node_counts(idx)
        node_values.append(list(zip(*(getattr(counts, name) for name in CYCLES))))
        cycle7.append(compute_node_counts(build_index(g, 3)).cycle7)
    node_colors = _node_colors(colors, indexes)
    return {
        "pairs": _violations(colors, pair_values),
        "cycles": _violations(node_colors, node_values),
        "cycle7": _violations(node_colors, cycle7),
    }


def _channel_mask(i: int, j: int, d: int) -> list[tuple[int, int, int]]:
    """Every triple (i, j, k) of the channel (i, j)."""
    return [t for t in admissible_triples(d) if t[:2] == (i, j)]


def _total(gs_list, d: int, mask=None) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for gs in gs_list:
        for key, bad in _check(gs, d, mask).items():
            out[key] += bad
    return out


def test_d2_colors_determine_pair_stats_and_cycles_3_to_6():
    total = _total(FAMILY, 2)
    assert total["pairs"] == 0
    assert total["cycles"] == 0
    # negative control: d=2 cannot count 7-cycles (C14 against C7 + C7 is
    # in the family), so some d=2 class holds nodes of unequal cycle7
    assert total["cycle7"] > 0


def test_d3_colors_determine_pair_stats_and_cycles_3_to_7():
    total = _total(FAMILY, 3)
    assert total == {"pairs": 0, "cycles": 0, "cycle7": 0}


def test_masking_the_11_or_22_witnesses_breaks_the_cycle_counts():
    # the check sees a refinement that loses either channel
    for i, j in ((1, 1), (2, 2)):
        assert _total(FAMILY, 2, _channel_mask(i, j, 2))["cycles"] > 0, (i, j)


@st.composite
def regular_pairs(draw) -> list[Graph]:
    """A random r-regular graph and either a relabelled copy or a second
    random r-regular graph on as many nodes."""
    r = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=r + 2, max_value=14).filter(lambda n: n * r % 2 == 0))
    g = gen_random_regular(n, r, draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        return [g, permute(g, draw(st.permutations(range(n))))]
    return [g, gen_random_regular(n, r, draw(st.integers(0, 10**6)))]


@settings(max_examples=25, deadline=None)
@given(regular_pairs())
def test_colors_determine_counts_on_random_regular_pairs(gs):
    bad = _check(gs, 2)
    assert (bad["pairs"], bad["cycles"]) == (0, 0)
    assert _check(gs, 3) == {"pairs": 0, "cycles": 0, "cycle7": 0}


def _refines(fine: list[int], coarse: list[int]) -> bool:
    """Every class of ``fine`` lies inside one class of ``coarse``."""
    return len(set(zip(fine, coarse))) == len(set(fine))


@settings(max_examples=25, deadline=None)
@given(st.data(), regular_pairs(), st.integers(min_value=1, max_value=3))
def test_partitions_refine_with_d_and_coarsen_under_masks(data, gs, d):
    colors, _, _ = _drfwl_multi(gs, d, None)
    flat = [c for cs in colors for c in cs]
    # the d + 1 colours, on the tuples within d, refine the d colours
    wider, _, _ = _drfwl_multi(gs, d + 1, None)
    restricted = []
    for cs, g in zip(wider, gs):
        rows = build_index(g, d + 1).rows
        restricted += [cs[rows[u][v]] for u, v, _ in build_index(g, d).pairs]
    assert _refines(restricted, flat)
    # a mask drops witnesses, so its partition is never finer
    mask = data.draw(st.sets(st.sampled_from(admissible_triples(d))))
    masked, _, _ = _drfwl_multi(gs, d, sorted(mask))
    assert _refines(flat, [c for cs in masked for c in cs])
