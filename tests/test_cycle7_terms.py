"""Pin each 7-cycle correction family against brute-force classification.

The closed-form pipeline subtracts twelve families of overlapping
(3-path, 4-path) pairs from the path product.  This module enumerates
those pairs directly, classifies each by its exact interior-coincidence
pattern, and requires every family to match the pipeline term by term,
on indexes to distance 3 and 4: the closed forms read distance 3 and must
ignore deeper tuples.  A regression in one family's formula fails here
with its letter name.  A distance-2 index is refused.
"""
from __future__ import annotations

import pytest

from graph_helpers import bfs_distances, gen_complete, gen_petersen
from pair_oracle import interior_paths
from drfwl.counting import compute_node_counts, compute_pair_stats, cycle7_correction_terms
from drfwl.errors import CapabilityError
from drfwl.graph import Graph, gen_cycle, gen_erdos_renyi, gen_random_regular
from drfwl.tuples import build_index

# exact coincidence patterns: (3-path interior slot, 4-path interior slot)
PATTERNS = {
    "a": {(0, 0)},
    "b": {(1, 0)},
    "c": {(0, 1)},
    "d": {(1, 1)},
    "e": {(0, 2)},
    "f": {(1, 2)},
    "g": {(0, 0), (1, 1)},
    "h": {(0, 0), (1, 2)},
    "i": {(0, 1), (1, 0)},
    "j": {(0, 2), (1, 0)},
    "k": {(0, 1), (1, 2)},
    "l": {(0, 2), (1, 1)},
}


def brute_families(g: Graph, u: int) -> tuple[int, dict[str, int]]:
    totals = {name: 0 for name in PATTERNS}
    prod = 0
    dist = bfs_distances(g, u)
    for v in range(g.n):
        if not 1 <= dist[v] <= 3:
            continue
        threes = interior_paths(g, u, v, 3)
        fours = interior_paths(g, u, v, 4)
        prod += len(threes) * len(fours)
        for pq in threes:
            for xyz in fours:
                pattern = {
                    (i, j)
                    for i in range(2)
                    for j in range(3)
                    if pq[i] == xyz[j]
                }
                if not pattern:
                    continue
                for name, want in PATTERNS.items():
                    if pattern == want:
                        totals[name] += 1
                        break
                else:
                    raise AssertionError(f"unclassified overlap {pattern}")
    return prod, totals


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
def test_families_match_brute_force(gi):
    g = GRAPHS[gi]
    want = [brute_families(g, u) for u in range(g.n)]
    # the closed forms read distance 3; a deeper index must not change them
    for d in (3, 4):
        idx = build_index(g, d)
        stats = compute_pair_stats(idx)
        counts = compute_node_counts(idx)
        prod34, letters = cycle7_correction_terms(idx, stats, counts)
        for u, (want_prod, want_letters) in enumerate(want):
            assert prod34[u] == want_prod, f"prod34 at node {u}, d={d}"
            for name in PATTERNS:
                assert letters[name][u] == want_letters[name], f"family {name} at node {u}, d={d}"


def test_d2_index_is_refused():
    idx = build_index(gen_petersen(), 2)
    stats = compute_pair_stats(idx)
    counts = compute_node_counts(idx)
    with pytest.raises(CapabilityError, match=r"cycle7 counts need d >= 3, got d=2"):
        cycle7_correction_terms(idx, stats, counts)
