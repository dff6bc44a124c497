"""Metamorphic properties of the closed-form counts.

Three transformations whose effect on every per-node count is known
without computing any count: a disjoint union concatenates the two
reports, an appended isolated node adds a zero row, and a relabelling
permutes the rows.  Certificates under relabelling are covered by
acceptance criterion 6.
"""
from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import small_graphs
from graph_helpers import permute
from drfwl.counting import check_motifs, compute_node_counts, counts_to_report
from drfwl.graph import Graph, gen_disjoint_union
from drfwl.tuples import build_index

DEPTHS = st.integers(min_value=2, max_value=3)


def per_node(g: Graph, d: int) -> dict[str, list[int]]:
    counts = compute_node_counts(build_index(g, d))
    return {name: counts.by_name(name) for name in check_motifs(d)}


def totals(g: Graph, d: int) -> dict[str, int]:
    report = counts_to_report(compute_node_counts(build_index(g, d)))
    return {name: entry["graph_level"] for name, entry in report["substructures"].items()}


@settings(max_examples=80, deadline=None)
@given(small_graphs(), small_graphs(), DEPTHS)
def test_disjoint_union_concatenates_reports(g1, g2, d):
    a, b = per_node(g1, d), per_node(g2, d)
    union = per_node(gen_disjoint_union([g1, g2]), d)
    for name in check_motifs(d):
        assert union[name] == a[name] + b[name], name
    ta, tb = totals(g1, d), totals(g2, d)
    assert totals(gen_disjoint_union([g1, g2]), d) == {k: ta[k] + tb[k] for k in ta}


@settings(max_examples=80, deadline=None)
@given(small_graphs(), DEPTHS, st.integers(min_value=1, max_value=2))
def test_isolated_nodes_add_zero_rows(g, d, extra):
    before = per_node(g, d)
    after = per_node(Graph.from_edges(g.n + extra, g.edges()), d)
    for name in check_motifs(d):
        assert after[name] == before[name] + [0] * extra, name


@settings(max_examples=80, deadline=None)
@given(st.data(), small_graphs(), DEPTHS)
def test_relabelling_permutes_rows(data, g, d):
    perm = data.draw(st.permutations(range(g.n)))
    before = per_node(g, d)
    after = per_node(permute(g, perm), d)
    for name in check_motifs(d):
        # node u of g is node perm[u] of the relabelled graph
        assert [after[name][perm[u]] for u in range(g.n)] == before[name], name
