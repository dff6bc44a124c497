"""Pin each 7-cycle correction family against its pattern row.

The closed-form pipeline subtracts twelve families of overlapping
(3-path, 4-path) pairs from the path product.  Each family is a row of
``pair_oracle.FAMILY_PATTERNS``, counted by the oracle's matcher rooted at
each node, and every family must match the pipeline term by term, on
indexes to distance 3 and 4: the closed forms read distance 3 and must
ignore deeper tuples.  A regression in one family's formula fails here
with its letter name.  The rows leave no overlap out: at every node the
path product is twice the node's 7-cycles plus the twelve families.  A
distance-2 index is refused.
"""
from __future__ import annotations

from operator import mul

import pytest

from graph_helpers import gen_complete, gen_petersen
from pair_oracle import PAIR_PATTERNS, family_counts, rooted_counts
from drfwl.counting import compute_node_counts, compute_pair_stats, cycle7_correction_terms
from drfwl.errors import CapabilityError
from drfwl.graph import gen_cycle, gen_erdos_renyi, gen_random_regular
from drfwl.oracle import oracle_node_counts
from drfwl.tuples import build_index

GRAPHS = [
    gen_complete(4),
    gen_complete(5),
    gen_complete(6),
    gen_petersen(),
    gen_cycle(7),
    gen_random_regular(10, 4, 3),
    gen_erdos_renyi(11, 0.3, 0),
    gen_erdos_renyi(11, 0.4, 1),
    gen_erdos_renyi(11, 0.5, 2),
    gen_erdos_renyi(12, 0.35, 3),
]


@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_families_match_pattern_rows(gi):
    g = GRAPHS[gi]
    n = g.n
    want = family_counts(g, list(range(n)))
    # a path pair with disjoint interiors is a 7-cycle through u, met once
    # from each side; any other is in exactly one family
    pairs = [(u, v) for u in range(n) for v in range(n)]
    p3, p4 = (rooted_counts(g, PAIR_PATTERNS[k], pairs) for k in ("P3", "P4"))
    prod = [sum(map(mul, p3[u * n : u * n + n], p4[u * n : u * n + n])) for u in range(n)]
    cycle7 = oracle_node_counts(g, "cycle7")
    for u in range(n):
        assert prod[u] == 2 * cycle7[u] + sum(per_node[u] for per_node in want.values()), u
    # the closed forms read distance 3; a deeper index must not change them
    for d in (3, 4):
        idx = build_index(g, d)
        stats = compute_pair_stats(idx)
        prod34, letters = cycle7_correction_terms(idx, stats, compute_node_counts(idx))
        assert prod34 == prod, d
        for name, per_node in want.items():
            assert letters[name] == per_node, (name, d)


def test_d2_index_is_refused():
    idx = build_index(gen_petersen(), 2)
    stats = compute_pair_stats(idx)
    counts = compute_node_counts(idx)
    with pytest.raises(CapabilityError, match=r"cycle7 counts need d >= 3, got d=2"):
        cycle7_correction_terms(idx, stats, counts)
