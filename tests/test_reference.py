"""The runtime refinement, intersection and counting agree with
tests/reference.py.

The witness-table refinements must reproduce the per-unit key references
exactly: same colour ids, same number of rounds, same class count per
round, for single graphs and for pairs refined in one id space (also of
different sizes), for WL(1), dense FWL(2) and d-DRFWL(2), with and without
masks.  One check, ``_check``, compares each method with its row of
``REFERENCES``.
The runtime d-DRFWL(2) merges a tuple's witnesses into one multiset; the
paper's key, one multiset per channel (i, j), must give the same
partition, rounds and class counts.  The counting passes, which read a
common-neighbour table and walk the wide channels, must reproduce every
pair field of the per-tuple ``intersect`` reference at d = 2, 3 and 4
(W3, W4 and CC2 from the runtime passes and C(P2, 2), as PairStats keeps
none of them), read the reference's CC1 as T of the reversed pair, and
reproduce every cycle-7 term at d = 3 and 4; the closed-form cycle-7
terms refuse a d = 2 index, whose terms would be truncated.
"""
from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference
from conftest import small_graphs
from golden_corpus import VARIANTS
from graph_helpers import diameter, double_cycle, gen_path, gen_petersen
from drfwl import counting
from drfwl.counting import compute_node_counts, compute_pair_stats, cycle7_correction_terms
from drfwl.errors import METHODS, CapabilityError
from drfwl.graph import Graph, gen_cycle, gen_disjoint_union, gen_erdos_renyi, gen_random_regular
from drfwl.refine import _drfwl_blocks, _refine_multi, drfwl_refine, refine_pair
from drfwl.tuples import TupleIndex, build_index, intersect

DEPTHS = st.integers(min_value=1, max_value=3)


@st.composite
def graphs(draw, max_n: int = 8) -> Graph:
    """Small graphs, also empty, disconnected or with isolated nodes."""
    kind = draw(st.sampled_from(("plain", "empty", "disconnected", "isolated")))
    if kind == "empty":
        return Graph.from_edges(0, [])
    g = draw(small_graphs(max_n=max_n))
    if kind == "disconnected":
        return gen_disjoint_union([g, draw(small_graphs(max_n=max_n))])
    if kind == "isolated":
        return Graph.from_edges(g.n + draw(st.integers(1, 3)), g.edges())
    return g


@st.composite
def masks(draw, d: int):
    """None or a random set of valid (i, j, k) triples for d."""
    if draw(st.booleans()):
        return None
    return sorted(draw(st.sets(st.sampled_from(reference.admissible_triples(d)))))


def _lockstep(gs: list[Graph], method: str, d: int = 2, mask=None):
    """``_refine_multi``'s colorings in the references' form: each graph's
    colour list, the rounds and the class counts, which every coloring of
    the run carries alike."""
    colorings = _refine_multi(gs, method, d, mask)
    (run,) = {(c.iterations, c.class_counts) for c in colorings}
    return [list(c.colors) for c in colorings], *run


# method -> its per-unit key reference over (graphs, d, mask); only drfwl reads d and a mask
REFERENCES = {
    "wl1": lambda gs, d, mask: reference.wl1_multi(gs),
    "fwl2": lambda gs, d, mask: reference.fwl2_multi(gs),
    "drfwl": reference.drfwl_multi,
}


def _check(method: str, gs: list[Graph], d: int = 2, mask=None) -> None:
    """The lockstep run of the graphs equals the method's reference; on a
    pair, so do ``refine_pair``'s verdict, rounds and both histograms."""
    expected = REFERENCES[method](gs, d, mask)
    assert _lockstep(gs, method, d, mask) == expected
    if len(gs) == 2:
        (ca, cb), iterations, _ = expected
        ha, hb = (tuple(sorted(Counter(c).items())) for c in (ca, cb))
        v = refine_pair(*gs, method, d=d, mask=mask)
        assert (v.distinguished, v.iterations, v.histogram_a, v.histogram_b) == (
            ha != hb, iterations, ha, hb
        )


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), g1=graphs(), g2=graphs())
def test_refinement_matches_reference(method, data, g1, g2):
    # one graph, then a pair in one id space; drfwl also draws d and a mask
    d, mask = 2, None
    if method == "drfwl":
        d = data.draw(DEPTHS)
        mask = data.draw(masks(d))
    _check(method, [g1], d, mask)
    _check(method, [g1, g2], d, mask)


def test_benchmark_shaped_pair_matches_reference():
    # two random 4-regular graphs on 150 nodes at d=2, as in the benchmark
    _check("drfwl", [gen_random_regular(150, 4, 11), gen_random_regular(150, 4, 12)])


EMPTY = Graph.from_edges(0, [])
# a 0-node graph owns no unit, so the cut of the stable colors gives it [];
# the path pair refines for about n rounds (29 under wl1, 28 under drfwl)
# while most of its units are settled; in a pair of different sizes the unit
# count of a graph, its channel width and the total all differ
FIXED = {
    "E": [EMPTY],
    "E-C3": [EMPTY, gen_cycle(3)],
    "C3-E": [gen_cycle(3), EMPTY],
    "E-E": [EMPTY, EMPTY],
    "C3-E-Petersen": [gen_cycle(3), EMPTY, gen_petersen()],
    "P30-P30chord": [gen_path(30), Graph.from_edges(30, gen_path(30).edges() + [(0, 2)])],
    "Petersen-C7": [gen_petersen(), gen_cycle(7)],
    "C7-C3+Petersen": [gen_cycle(7), gen_disjoint_union([gen_cycle(3), gen_petersen()])],
    "ER30-ER25": [gen_erdos_renyi(30, 0.1, 3), gen_erdos_renyi(25, 0.1, 4)],
    # the paper's pairs: 2 x C3 against C6 splits under every variant but
    # WL(1), and 2 x C7 against C14 only under FWL(2) and at d = 3
    "2C3-C6": [double_cycle(3), gen_cycle(6)],
    "2C7-C14": [double_cycle(7), gen_cycle(14)],
}


# each fixed case under every variant of the golden corpus
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("gs", FIXED.values(), ids=FIXED)
def test_fixed_cases_match_reference(variant, gs):
    spec = VARIANTS[variant]
    _check(spec["method"], gs, spec["d"] or 2, spec["mask"])


def test_empty_graph_next_to_a_triangle():
    c3 = gen_cycle(3)
    assert _lockstep([EMPTY, c3], "wl1") == ([[], [0, 0, 0]], 1, (1, 1))
    assert _lockstep([EMPTY, c3], "drfwl", 2) == ([[], [0, 1, 1, 0, 1, 1, 0, 1, 1]], 1, (2, 2))


def _check_per_channel_partition(gs: list[Graph], d: int, mask) -> None:
    """The runtime's merged multisets and the paper's per-channel ones give
    one partition: their ids pair one to one, in every graph together."""
    merged, iterations, history = _lockstep(gs, "drfwl", d, mask)
    nested, want_iterations, want_history = reference.drfwl_multi(gs, d, mask, nested=True)
    ids = [c for colors in merged for c in colors]
    want = [c for colors in nested for c in colors]
    assert len(set(zip(ids, want))) == len(set(ids)) == len(set(want))
    assert (iterations, history) == (want_iterations, want_history)


@settings(max_examples=60, deadline=None)
@given(st.data(), graphs(), graphs(), DEPTHS)
def test_per_channel_multisets_give_the_same_partition(data, g1, g2, d):
    mask = data.draw(masks(d))
    _check_per_channel_partition([g1], d, mask)
    _check_per_channel_partition([g1, g2], d, mask)


def test_per_channel_multisets_give_the_same_partition_on_the_benchmark_pair():
    g1 = gen_random_regular(150, 4, 11)
    g2 = gen_random_regular(150, 4, 12)
    _check_per_channel_partition([g1, g2], 2, None)


def test_witness_table_stops_at_the_largest_distance():
    # C6 has diameter 3: a larger d adds no tuple, so no witness either
    at_3, at_50 = (_drfwl_blocks(build_index(gen_cycle(6), d), frozenset()) for d in (3, 50))
    assert len(at_50.wv) == len(at_3.wv)
    assert at_50 == at_3


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_d_beyond_the_diameter_changes_no_color(g):
    g = Graph.from_edges(g.n, g.edges() + [(u, u + 1) for u in range(g.n - 1)])  # connected
    top = max(diameter(g), 1)
    at_top, beyond = drfwl_refine(g, top), drfwl_refine(g, top + 3)
    assert at_top.colors == beyond.colors
    assert at_top.iterations == beyond.iterations
    assert at_top.class_counts == beyond.class_counts


@settings(max_examples=60, deadline=None)
@given(graphs(), DEPTHS)
def test_intersect_matches_merge_loop(g, d):
    idx = build_index(g, d)
    for u in range(g.n):
        for v in range(g.n):
            for i in range(d + 1):
                for j in range(d + 1):
                    shells = set(reference.shell(idx, u, i)), set(reference.shell(idx, v, j))
                    assert intersect(*shells) == reference.intersect(idx, u, v, i, j)


# ---------------------------------------------------------------------------
# counting


COUNT_DEPTHS = st.integers(min_value=2, max_value=4)


@st.composite
def dense_graphs(draw) -> Graph:
    """Erdős–Rényi graphs dense enough for many triangles and chords."""
    n = draw(st.integers(min_value=6, max_value=13))
    p = draw(st.sampled_from((0.3, 0.45, 0.6, 0.75)))
    return gen_erdos_renyi(n, p, draw(st.integers(min_value=0, max_value=10**6)))


def _check_counting(g: Graph, d: int) -> None:
    idx = build_index(g, d)
    stats = compute_pair_stats(idx)
    expected = reference.pair_stats(idx)
    for field, values in reference.runtime_pair_fields(idx, stats).items():
        assert values == getattr(expected, field), field
    # the runtime keeps no CC1: it is T of the reversed pair on adjacent pairs
    assert expected.cc1 == [stats.t[r] if k == 1 else 0 for r, k in zip(idx.rev, idx.ks)]
    counts = compute_node_counts(idx)
    if d < 3:
        with pytest.raises(CapabilityError, match="cycle7 counts need d >= 3"):
            cycle7_correction_terms(idx, stats, counts)
        return
    prod34, letters = cycle7_correction_terms(idx, stats, counts)
    want_prod34, want_letters = reference.cycle7_correction_terms(idx, expected, counts)
    assert prod34 == want_prod34
    assert sorted(letters) == sorted(want_letters) == list("abcdefghijkl")
    for name, values in want_letters.items():
        assert letters[name] == values, name


@settings(max_examples=60, deadline=None)
@given(graphs(), COUNT_DEPTHS)
def test_pair_stats_and_cycle7_terms_match_reference(g, d):
    _check_counting(g, d)


@settings(max_examples=30, deadline=None)
@given(dense_graphs(), COUNT_DEPTHS)
def test_counting_matches_reference_on_dense_graphs(g, d):
    _check_counting(g, d)


def test_benchmark_shaped_counting_matches_reference():
    # a random 4-regular graph on 120 nodes at d=3, as in the benchmark
    _check_counting(gen_random_regular(120, 4, 7), 3)


@settings(max_examples=20, deadline=None)
@given(graphs(), COUNT_DEPTHS)
def test_pair_stats_intersect_once_per_near_tuple(g, d):
    idx = build_index(g, d)
    calls = []
    real = counting.intersect

    def counted(*args):
        calls.append(args)
        return real(*args)

    counting.intersect = counted
    try:
        compute_pair_stats(idx)
    finally:
        counting.intersect = real
    assert len(calls) == sum(1 for k in idx.ks if 1 <= k <= 2)


def test_node_counts_build_near_spans_and_triangles_once(monkeypatch):
    # compute_pair_stats keeps the spans, C3 and the degrees on PairStats, and
    # the common-neighbour table keeps the neighbour sets; the later passes read
    # them.  W4 is read off W3, so the node walks run once
    calls = Counter()
    real_triangles, real_span = counting.node_triangles, TupleIndex.span
    real_walks = counting.node_walks

    def triangles(*args):
        calls["node_triangles"] += 1
        return real_triangles(*args)

    def walks(*args):
        calls["node_walks"] += 1
        return real_walks(*args)

    def span(idx, u, lo, hi):
        calls[lo, hi] += 1
        return real_span(idx, u, lo, hi)

    for name in ("degrees", "neighbor_sets"):
        def counted(g, _name=name, _real=getattr(Graph, name)):
            calls[_name] += 1
            return _real(g)

        monkeypatch.setattr(Graph, name, counted)
    monkeypatch.setattr(counting, "node_triangles", triangles)
    monkeypatch.setattr(counting, "node_walks", walks)
    monkeypatch.setattr(TupleIndex, "span", span)
    g = gen_random_regular(30, 4, 1)
    for d in (2, 3):
        idx = build_index(g, d)
        calls.clear()
        compute_node_counts(idx)
        assert calls["node_triangles"] == 1
        assert calls[1, 2] == g.n  # one span at distance 1 or 2 per node
        assert calls[1, 1] == g.n  # and one at distance 1
        assert calls["degrees"] == 1
        assert calls["neighbor_sets"] == 1
        assert calls["node_walks"] == 1
