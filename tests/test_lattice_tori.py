"""Counting past the oracle's node cap, on cycle-rich lattice tori.

The oracle refuses graphs above ``ORACLE_NODE_CAP`` nodes, and the large
golden and benchmark graphs are random regular graphs with almost no
short cycles.  A lattice torus is vertex-transitive, so every node has one
count per motif.  A catalog motif reaches at most distance 4 from its
marked vertex, so its count at a node depends only on the node's ball of
radius 4, which is the lattice's own on any torus whose sides are long
enough.  So the oracle's values on a small torus are exact for a large
one: counting on the 1,024-node 32 x 32 tori must give them on every
node.  A control shows the check can fail: on tori with a side of 3 or 4,
short wrap-around cycles change some count.
"""
from __future__ import annotations

import pytest

from graph_helpers import gen_hexagonal_torus, gen_triangular_torus
from drfwl.counting import check_motifs, compute_node_counts
from drfwl.oracle import ORACLE_NODE_CAP, oracle_node_counts
from drfwl.tuples import build_index

MOTIFS = check_motifs(3)
ZERO = dict.fromkeys(MOTIFS, 0)
# generator, small torus, every node's count of each motif, narrow tori
LATTICES = {
    "triangular": (
        gen_triangular_torus,
        (10, 10),
        ZERO
        | {
            "cycle3": 6, "cycle4": 12, "cycle5": 30, "cycle6": 90, "cycle7": 294,
            "path2": 30, "path3": 138, "path4": 618, "tailed_triangle": 24,
            "chordal_cycle_cc1": 6, "chordal_cycle_cc2": 6, "tr1": 12, "tr2": 24, "tr3": 24,
        },
        [(3, 3), (4, 4)],
    ),
    "hexagonal": (
        gen_hexagonal_torus,
        (10, 12),
        ZERO | {"cycle6": 3, "path2": 6, "path3": 12, "path4": 24},
        [(4, 4), (4, 6)],
    ),
}


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_oracle_on_a_small_torus(lattice):
    make, sides, values, _ = LATTICES[lattice]
    g = make(*sides)
    for name, value in values.items():
        assert oracle_node_counts(g, name) == [value] * g.n, name


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_counting_past_the_oracle_cap(lattice):
    make, _, values, controls = LATTICES[lattice]
    g = make(32, 32)
    assert g.n > ORACLE_NODE_CAP
    for d in (2, 3):
        counts = compute_node_counts(build_index(g, d))
        for name in check_motifs(d):
            assert counts.by_name(name) == [values[name]] * g.n, (d, name)
    # control: short wrap-around cycles change the counts on narrow tori
    for sides in controls:
        small = make(*sides)
        counts = compute_node_counts(build_index(small, 3))
        assert any(counts.by_name(n) != [v] * small.n for n, v in values.items()), sides
