"""The runtime refinement, intersection and counting agree with
tests/reference.py.

The witness-table refinements must reproduce the per-unit key references
exactly: same colour ids, same number of rounds, same class count per
round, for single graphs and for lockstep pairs (also of different
sizes), for WL(1), dense FWL(2) and d-DRFWL(2), with and without masks.
The runtime d-DRFWL(2) merges a tuple's witnesses into one multiset; the
paper's key, one multiset per channel (i, j), must give the same
partition, rounds and class counts.  The counting passes, which read a common-neighbour table and walk the
wide channels, must reproduce every PairStats field and every cycle-7
term of the per-tuple ``intersect`` reference at d = 2, 3 and 4.
"""
from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference
from conftest import small_graphs
from drfwl import counting
from drfwl.counting import compute_node_counts, compute_pair_stats, cycle7_correction_terms
from drfwl.graph import (
    Graph,
    diameter,
    gen_cycle,
    gen_disjoint_union,
    gen_erdos_renyi,
    gen_petersen,
    gen_random_regular,
)
from drfwl.refine import (
    _drfwl_blocks,
    _drfwl_multi,
    _refine_multi,
    drfwl_refine,
    fwl2_refine,
    refine_pair,
    wl1_refine,
)
from drfwl.tuples import build_index, intersect

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


def _check_single(g: Graph, d: int, mask) -> None:
    col = drfwl_refine(g, d, mask=mask)
    (colors,), iterations, history = reference.drfwl_multi([g], d, mask)
    assert list(col.colors) == colors
    assert col.iterations == iterations
    assert col.class_counts == history


def _check_pair(g1: Graph, g2: Graph, d: int, mask) -> None:
    expected = reference.drfwl_multi([g1, g2], d, mask)
    assert _drfwl_multi([g1, g2], d, mask) == expected
    verdict = refine_pair(g1, g2, "drfwl", d=d, mask=mask)
    (ca, cb), iterations, _ = expected
    assert verdict.iterations == iterations
    assert verdict.histogram_a == tuple(sorted(Counter(ca).items()))
    assert verdict.histogram_b == tuple(sorted(Counter(cb).items()))


@settings(max_examples=60, deadline=None)
@given(graphs(), DEPTHS)
def test_drfwl_refine_matches_reference(g, d):
    _check_single(g, d, None)


@settings(max_examples=40, deadline=None)
@given(graphs(), graphs(), DEPTHS)
def test_refine_pair_matches_reference(g1, g2, d):
    _check_pair(g1, g2, d, None)


@settings(max_examples=60, deadline=None)
@given(st.data(), graphs(), graphs(), DEPTHS)
def test_masked_refinement_matches_reference(data, g1, g2, d):
    mask = data.draw(masks(d))
    _check_single(g1, d, mask)
    _check_pair(g1, g2, d, mask)


def test_benchmark_shaped_pair_matches_reference():
    # two random 4-regular graphs on 150 nodes at d=2, as in the benchmark
    g1 = gen_random_regular(150, 4, 11)
    g2 = gen_random_regular(150, 4, 12)
    _check_pair(g1, g2, 2, None)


def _check_per_channel_partition(gs: list[Graph], d: int, mask) -> None:
    """The runtime's merged multisets and the paper's per-channel ones give
    one partition: their ids pair one to one, in every graph together."""
    merged, iterations, history = _drfwl_multi(gs, d, mask)
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
    at_3, at_50 = (_drfwl_blocks([build_index(gen_cycle(6), d)], frozenset()) for d in (3, 50))
    assert len(at_50.a) == len(at_3.a)
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


DENSE = {"wl1": (wl1_refine, reference.wl1_multi), "fwl2": (fwl2_refine, reference.fwl2_multi)}


def _check_dense(method: str, g1: Graph, g2: Graph) -> None:
    """WL(1) or FWL(2) on g1 alone, then on g1 and g2 in lockstep."""
    refine_one, reference_multi = DENSE[method]
    col = refine_one(g1)
    (colors,), iterations, history = reference_multi([g1])
    assert (list(col.colors), col.iterations, col.class_counts) == (colors, iterations, history)
    expected = reference_multi([g1, g2])
    assert _refine_multi([g1, g2], method) == expected
    verdict = refine_pair(g1, g2, method)
    (ca, cb), iterations, _ = expected
    assert verdict.iterations == iterations
    assert verdict.histogram_a == tuple(sorted(Counter(ca).items()))
    assert verdict.histogram_b == tuple(sorted(Counter(cb).items()))


def _other_size(g1: Graph, g2: Graph) -> Graph:
    """g2, with an isolated node appended if it is as large as g1."""
    return Graph.from_edges(g2.n + 1, g2.edges()) if g2.n == g1.n else g2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DENSE)), graphs(), graphs())
def test_dense_refinements_match_reference(method, g1, g2):
    _check_dense(method, g1, _other_size(g1, g2))


@pytest.mark.parametrize("method", sorted(DENSE))
def test_dense_lockstep_of_different_sizes_matches_reference(method):
    # lockstep ids are offset per graph; with graphs of different sizes the
    # unit count of a graph, its channel width and the total all differ
    _check_dense(method, gen_petersen(), gen_cycle(7))
    _check_dense(method, gen_cycle(7), gen_disjoint_union([gen_cycle(3), gen_petersen()]))
    _check_dense(method, gen_erdos_renyi(30, 0.1, 3), gen_erdos_renyi(25, 0.1, 4))


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
    for field in reference.PAIR_FIELDS:
        assert getattr(stats, field) == getattr(expected, field), field
    counts = compute_node_counts(idx)
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
    assert len(calls) == sum(1 for _, _, k in idx.pairs if 1 <= k <= 2)


def test_node_counts_build_near_spans_and_triangles_once(monkeypatch):
    # compute_pair_stats keeps both on PairStats; the later passes read them
    calls = Counter()
    for name in ("_near", "node_triangles"):

        def counted(*args, _real=getattr(counting, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(counting, name, counted)
    compute_node_counts(build_index(gen_random_regular(30, 4, 1), 3))
    assert calls == {"_near": 1, "node_triangles": 1}
