"""The paper's counting ceiling, shown on one strongly regular pair.

d-DRFWL(2) is bounded by FWL(2), which counts cycles up to length 7 but
not 8 (Fürer 2017; Arvind, Fuhlbrück, Köbler and Verbitsky 2020).  The 4x4
rook's graph and the Shrikhande graph, both strongly regular with
parameters (16, 6, 2, 2), show the whole ceiling at once.  No method
separates them at any d (``test_refine.py``'s
``test_hierarchy_as_partitions_of_a_pool``).  Every node of both
has the same cycle3-cycle7 counts, by counting and by the oracle, but
their 8-cycle counts differ (``test_networkx_cycles.py`` finds the same totals
with networkx).  So on the pair's disjoint union the stable colours of the
(u, u) tuples determine the short cycle counts and not the 8-cycle counts:
the colour check that passes on the atlas can fail.
"""
from __future__ import annotations

import pytest

from graph_helpers import gen_rook44, gen_shrikhande, undetermined
from drfwl.counting import compute_node_counts
from drfwl.oracle import _cycle, match_pattern, oracle_node_counts
from drfwl.refine import _refine_multi
from drfwl.tuples import build_index

PAIR = (gen_rook44(), gen_shrikhande())
COUNTS = [compute_node_counts(build_index(g, 3)) for g in PAIR]
# every node's count of each cycle, the same in both graphs
CYCLES = {"cycle3": 6, "cycle4": 15, "cycle5": 90, "cycle6": 468, "cycle7": 1764}
# the 8-cycles of the rook's graph and of the Shrikhande graph
CYCLE8 = (11952, 11688)
# per node, the oracle matcher's hits of an 8-cycle whose every vertex is
# marked: on these graphs, the graph's 8-cycle total at every node
HITS8 = [match_pattern(g, _cycle(8), tuple(range(8))) for g in PAIR]


def test_every_node_has_the_same_short_cycle_counts():
    for g, counts in zip(PAIR, COUNTS):
        for name, per_node in CYCLES.items():
            assert counts.by_name(name) == oracle_node_counts(g, name) == [per_node] * g.n, name


def test_the_8_cycle_counts_differ():
    assert HITS8 == [[total] * 16 for total in CYCLE8]


@pytest.mark.parametrize("d", (2, 3))
def test_union_colours_determine_short_cycles_but_not_8_cycles(d):
    colorings = _refine_multi(list(PAIR), "drfwl", d)
    indexes = [build_index(g, d) for g in PAIR]
    short = [list(zip(*(counts.by_name(name) for name in CYCLES))) for counts in COUNTS]
    assert undetermined(colorings, short, indexes) == 0
    assert undetermined(colorings, HITS8, indexes) > 0
