"""The result types are immutable."""
from __future__ import annotations

import pytest

from graph_helpers import gen_petersen
from drfwl.counting import GRAPH_LEVEL_FACTOR, NodeCounts, compute_node_counts, compute_pair_stats
from drfwl.graph import gen_cycle
from drfwl.refine import certificate, drfwl_refine, refine_pair
from drfwl.tuples import build_index


def _values():
    g = gen_petersen()
    idx = build_index(g, 3)
    coloring = drfwl_refine(g, 2)
    stats = compute_pair_stats(idx)
    return {
        "Graph": g,
        "TupleIndex": idx,
        "Coloring": coloring,
        "Certificate": certificate(coloring),
        "PairVerdict": refine_pair(g, gen_cycle(10), "drfwl"),
        "NodeCounts": compute_node_counts(idx),
        "PairStats": stats,
        "WitnessTable": stats.common,
    }


@pytest.mark.parametrize("name", list(_values()))
def test_fields_cannot_be_set(name):
    value = _values()[name]
    assert type(value).__name__ == name
    assert value._fields
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_node_counts_by_name_reads_only_the_catalog():
    counts = compute_node_counts(build_index(gen_cycle(6), 2))
    assert counts.by_name("cycle6") == [1] * 6
    assert counts.by_name("chordal_cycle_cc1") == counts.chordal_cycle_cc1
    for name in ("count", "index", "n", "deg", "cc1"):
        with pytest.raises(ValueError, match="unknown motif"):
            counts.by_name(name)


def test_node_counts_fields_are_the_catalog():
    # one field per catalog motif, under its catalog name, and nothing else
    assert NodeCounts._fields == ("n", "d", *GRAPH_LEVEL_FACTOR)


def test_node_counts_carry_cycle7_only_from_d3():
    g = gen_cycle(7)
    assert compute_node_counts(build_index(g, 2)).cycle7 is None
    assert compute_node_counts(build_index(g, 3)).cycle7 == [1] * 7

