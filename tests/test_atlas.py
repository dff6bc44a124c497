"""Every graph with at most 7 nodes: counts and colours against the oracle.

networkx's graph atlas (``graph_atlas_g``, after Read and Wilson, *An Atlas
of Graphs*, 1998) lists all 1,253 graphs on 0 to 7 nodes, one per
isomorphism class, and ships inside networkx.  Two gates run on it, and the
oracle runs once per graph for both, over the d = 3 motif list, which holds
the d = 2 one:

* on each graph, every per-node count that ``check_motifs(d)`` reports must
  equal the oracle's, at d = 2 and at d = 3;
* the paper's main theorem as partitions: the stable d-DRFWL(2) colours of
  the (u, u) tuples determine each node's cycle3-cycle6 counts at d = 2 and
  its cycle3-cycle7 counts at d = 3.  All graphs with one node count are
  refined together in one ``_refine_multi``, so colours compare across them.
  A control shows that this check can fail: at d = 1 the colours do not
  determine (cycle6, cycle7), first on 6 nodes.

The atlas is too small for the d = 2 controls of
``test_colors_determine_counts.py`` (here the d = 2 colours determine
cycle6 and cycle7 together, even with the (1, 1) witnesses masked) and to
separate any method above d = 1, so the hierarchy checks keep the
separation family.  The cases are split by node count, so a failure names
its size.  Skipped when networkx is not installed.
"""
from __future__ import annotations

import pytest

from graph_helpers import undetermined
from drfwl.counting import check_motifs, compute_node_counts
from drfwl.graph import Graph
from drfwl.oracle import oracle_node_counts
from drfwl.refine import _refine_multi
from drfwl.tuples import build_index

nx = pytest.importorskip("networkx")

CYCLES = ("cycle3", "cycle4", "cycle5", "cycle6", "cycle7")
SIZES = range(8)


@pytest.fixture(scope="module")
def atlas():
    return nx.graph_atlas_g()


@pytest.fixture(scope="module")
def graphs(atlas):
    """Per node count, the atlas number and the graph of each of its graphs."""
    out: dict[int, list[tuple[int, Graph]]] = {n: [] for n in SIZES}
    for number, h in enumerate(atlas):
        n = h.number_of_nodes()
        out[n].append((number, Graph.from_edges(n, h.edges())))
    return out


@pytest.fixture(scope="module")
def oracle(graphs):
    """Per node count, each graph's oracle counts of ``check_motifs(3)``,
    computed on first use and kept for the module."""
    cache: dict[int, list[dict[str, list[int]]]] = {}

    def counts(n: int) -> list[dict[str, list[int]]]:
        if n not in cache:
            cache[n] = [
                {name: oracle_node_counts(g, name) for name in check_motifs(3)}
                for _, g in graphs[n]
            ]
        return cache[n]

    return counts


def _undetermined(gs: list[Graph], counts: list[dict], d: int, names: tuple[str, ...]) -> int:
    """Nodes, over one lockstep drfwl run of ``gs`` at ``d``, whose counts
    of ``names`` differ from the first counts seen for their (u, u) colour."""
    colorings = _refine_multi(gs, "drfwl", d)
    values = [list(zip(*(want[name] for name in names))) for want in counts]
    return undetermined(colorings, values, [build_index(g, d) for g in gs])


def test_atlas_holds_every_graph_up_to_7_nodes(atlas, graphs):
    assert len(atlas) == 1253
    assert [len(graphs[n]) for n in SIZES] == [1, 1, 2, 4, 11, 34, 156, 1044]


@pytest.mark.parametrize("n", SIZES)
def test_counting_matches_oracle_on_every_graph_of_n_nodes(graphs, oracle, n):
    for (number, g), want in zip(graphs[n], oracle(n)):
        for d in (2, 3):
            counts = compute_node_counts(build_index(g, d))
            for name in check_motifs(d):
                assert counts.by_name(name) == want[name], (number, d, name)


@pytest.mark.parametrize("d, names", [(2, CYCLES[:4]), (3, CYCLES)], ids=["d2", "d3"])
@pytest.mark.parametrize("n", SIZES)
def test_drfwl_colours_determine_cycle_counts_on_every_graph_of_n_nodes(
    graphs, oracle, n, d, names
):
    gs = [g for _, g in graphs[n]]
    assert _undetermined(gs, oracle(n), d, names) == 0


def test_d1_colours_do_not_determine_cycle6_and_cycle7(graphs, oracle):
    """The control: at d = 1, six nodes of the 6-node graphs have a (u, u)
    colour first seen on a node with other (cycle6, cycle7) counts.  The
    7-node graphs, with 13 more, are left out to keep the module's time."""
    gs = [g for _, g in graphs[6]]
    assert _undetermined(gs, oracle(6), 1, ("cycle6", "cycle7")) > 0
