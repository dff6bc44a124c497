"""Every graph with at most 7 nodes: the closed-form counts equal the oracle's.

networkx's graph atlas (``graph_atlas_g``, after Read and Wilson, *An Atlas
of Graphs*, 1998) lists all 1,253 graphs on 0 to 7 nodes, one per
isomorphism class, and ships inside networkx.  On each graph, every
per-node count that ``check_motifs(d)`` reports must equal the oracle's, at
d = 2 and at d = 3.  The oracle runs once per graph, over the d = 3 list,
which holds the d = 2 one.  The cases are split by node count, so a
failure names its size.  Skipped when networkx is not installed.
"""
from __future__ import annotations

import pytest

from drfwl.counting import check_motifs, compute_node_counts
from drfwl.graph import Graph
from drfwl.oracle import oracle_node_counts
from drfwl.tuples import build_index

nx = pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def atlas():
    return nx.graph_atlas_g()


def test_atlas_holds_every_graph_up_to_7_nodes(atlas):
    assert len(atlas) == 1253
    assert {h.number_of_nodes() for h in atlas} == set(range(8))


@pytest.mark.parametrize("n", range(8))
def test_counting_matches_oracle_on_every_graph_of_n_nodes(atlas, n):
    for number, h in enumerate(atlas):
        if h.number_of_nodes() != n:
            continue
        g = Graph.from_edges(n, h.edges())
        want = {name: oracle_node_counts(g, name) for name in check_motifs(3)}
        for d in (2, 3):
            counts = compute_node_counts(build_index(g, d))
            for name in check_motifs(d):
                assert counts.by_name(name) == want[name], (number, d, name)
