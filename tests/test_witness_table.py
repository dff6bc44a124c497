"""Both legs keep their witnesses in one ``tuples.WitnessTable``.

Counting's common-neighbour table is the (1, 1) channel of refinement's
unmasked d-DRFWL(2) table: on each tuple at distance 1 or 2 its entries
are the drfwl entries whose (u, w) and (w, v) are both at distance 1,
entry for entry and in order, and on every other tuple it has none.
"""
from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from drfwl.counting import common_neighbours
from drfwl.graph import Graph, parse_edge_list
from drfwl.refine import _drfwl_blocks
from drfwl.tuples import WitnessTable, build_index

GOLDEN_GRAPHS = sorted((Path(__file__).resolve().parent / "golden" / "graphs").glob("*.el"))
DEPTHS = (2, 3, 4)


def _entries(table: WitnessTable, t: int) -> list[tuple[int, int]]:
    lo, hi = table.starts[t], table.starts[t + 1]
    return list(zip(table.uw[lo:hi], table.wv[lo:hi]))


def _check_common_neighbours_are_the_11_channel(g: Graph, d: int) -> None:
    idx = build_index(g, d)
    common = common_neighbours(idx, g.neighbor_sets())
    drfwl = _drfwl_blocks(idx, frozenset())
    ks = idx.ks
    for table in (common, drfwl):
        assert type(table) is WitnessTable
        assert len(table.starts) == idx.tuple_count + 1
    for t, k in enumerate(ks):
        channel = [e for e in _entries(drfwl, t) if ks[e[0]] == ks[e[1]] == 1]
        assert _entries(common, t) == (channel if 0 < k < 3 else [])


@pytest.mark.parametrize("d", DEPTHS)
@pytest.mark.parametrize("path", GOLDEN_GRAPHS, ids=lambda p: p.stem)
def test_common_neighbours_are_the_11_channel_on_the_golden_graphs(path, d):
    _check_common_neighbours_are_the_11_channel(parse_edge_list(path.read_bytes()), d)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=10), st.sampled_from(DEPTHS))
def test_common_neighbours_are_the_11_channel(g, d):
    _check_common_neighbours_are_the_11_channel(g, d)
