"""A third, independent cycle counter: networkx's bounded simple_cycles.

It shares no code with either the closed-form counts or the oracle, so
agreement of graph-level cycle totals (3 to 7) is a check on both.
Skipped when networkx is not installed.
"""
from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from graph_helpers import gen_complete, gen_petersen, gen_rook44, gen_shrikhande
from drfwl.counting import compute_node_counts, graph_level
from drfwl.graph import Graph, gen_erdos_renyi, gen_random_regular
from drfwl.oracle import oracle_graph_count
from drfwl.tuples import build_index

nx = pytest.importorskip("networkx")


def _nx_cycles(g: Graph, max_len: int) -> Counter:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return Counter(len(c) for c in nx.simple_cycles(h, length_bound=max_len))


def _check(g: Graph) -> None:
    by_length = _nx_cycles(g, 7)
    d2 = compute_node_counts(build_index(g, 2))
    for k in range(3, 7):
        assert graph_level(d2, f"cycle{k}") == by_length[k], f"cycle{k}"
    d3 = compute_node_counts(build_index(g, 3))
    assert graph_level(d3, "cycle7") == by_length[7], "cycle7"
    for k in range(3, 8):
        assert oracle_graph_count(g, f"cycle{k}") == by_length[k], f"oracle cycle{k}"


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_petersen(),
        lambda: gen_random_regular(14, 4, 3),
        lambda: gen_random_regular(16, 3, 8),
        lambda: gen_erdos_renyi(13, 0.35, 21),
        lambda: gen_erdos_renyi(15, 0.25, 22),
        # dense: the cycle-7 overlap families are large
        lambda: gen_complete(7),
        lambda: gen_erdos_renyi(12, 0.7, 5),
        lambda: gen_erdos_renyi(14, 0.6, 6),
    ],
)
def test_cycle_totals_match_networkx(make):
    _check(make())


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=9))
def test_cycle_totals_match_networkx_hypothesis(g):
    _check(g)


def test_strongly_regular_pair_differs_first_in_8_cycles():
    # the counting ceiling's pair (test_counting_ceiling.py), by length
    short = {3: 32, 4: 60, 5: 288, 6: 1248, 7: 4032}
    assert _nx_cycles(gen_rook44(), 8) == {**short, 8: 11952}
    assert _nx_cycles(gen_shrikhande(), 8) == {**short, 8: 11688}
