"""Both legs keep their witnesses in one ``tuples.WitnessTable``.

Entry p of a tuple (u, v) in either leg's table is one witness w, written
as ``uw[p] = id(u, w)`` and ``wv[p] = id(w, v)``, and a tuple's witnesses
are ascending.

Counting's common-neighbour table is the (1, 1) channel of refinement's
unmasked d-DRFWL(2) table: on each tuple at distance 1 or 2 its entries
are the drfwl entries whose (u, w) and (w, v) are both at distance 1,
entry for entry and in order, and on every other tuple it has none.

A mask drops one channel's entries and nothing else: for each admissible
triple (i, j, k), the table masked by it alone is the unmasked table less
the entries of the tuples at distance k whose (u, w) is at distance i and
whose (w, v) is at distance j, entry for entry and in order.
"""
from __future__ import annotations

from itertools import accumulate, compress, islice
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from golden_corpus import GRAPHS, graph_file
from drfwl.counting import common_neighbours
from drfwl.graph import Graph, parse_edge_list
from drfwl.refine import _drfwl_blocks
from drfwl.tuples import TupleIndex, WitnessTable, build_index
from reference import admissible_triples

DEPTHS = (2, 3, 4)
MASK_DEPTHS = (2, 3)


def _entries(table: WitnessTable, t: int) -> list[tuple[int, int]]:
    lo, hi = table.starts[t], table.starts[t + 1]
    return list(zip(table.uw[lo:hi], table.wv[lo:hi]))


def _check_layout(idx: TupleIndex, table: WitnessTable) -> None:
    us, vs = idx.us, idx.vs
    assert type(table) is WitnessTable
    assert len(table.starts) == idx.tuple_count + 1
    for t in range(idx.tuple_count):
        entries = _entries(table, t)
        assert all(us[a] == us[t] and vs[b] == vs[t] and vs[a] == us[b] for a, b in entries)
        witnesses = [vs[a] for a, _ in entries]
        assert witnesses == sorted(set(witnesses))


def _check_common_neighbours_are_the_11_channel(g: Graph, d: int) -> None:
    idx = build_index(g, d)
    common = common_neighbours(idx, g.neighbor_sets())
    drfwl = _drfwl_blocks(idx, frozenset())
    ks = idx.ks
    for table in (common, drfwl):
        _check_layout(idx, table)
    for t, k in enumerate(ks):
        channel = [e for e in _entries(drfwl, t) if ks[e[0]] == ks[e[1]] == 1]
        assert _entries(common, t) == (channel if 0 < k < 3 else [])


@pytest.mark.parametrize("d", DEPTHS)
@pytest.mark.parametrize("name", GRAPHS)
def test_common_neighbours_are_the_11_channel_on_the_golden_graphs(name, d):
    _check_common_neighbours_are_the_11_channel(parse_edge_list(graph_file(name).read_bytes()), d)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=10), st.sampled_from(DEPTHS))
def test_common_neighbours_are_the_11_channel(g, d):
    _check_common_neighbours_are_the_11_channel(g, d)


def _check_single_masks_drop_one_channel(g: Graph, d: int) -> None:
    idx = build_index(g, d)
    ks = idx.ks
    full = _drfwl_blocks(idx, frozenset())
    # entry p of tuple t is in channel (d(u, w), d(w, v), d(u, v)) = ks at uw[p], wv[p], t
    sizes = map(sub, islice(full.starts, 1, None), full.starts)
    units = [t for t, size in enumerate(sizes) for _ in range(size)]
    channels = list(zip(*(map(ks.__getitem__, ids) for ids in (full.uw, full.wv, units))))
    for triple in admissible_triples(d):
        keep = [channel != triple for channel in channels]
        kept = list(accumulate(keep, initial=0))
        masked = _drfwl_blocks(idx, frozenset({triple}))
        assert list(masked.starts) == [kept[p] for p in full.starts], triple
        assert masked.uw == list(compress(full.uw, keep)), triple
        assert masked.wv == list(compress(full.wv, keep)), triple


@pytest.mark.parametrize("d", MASK_DEPTHS)
@pytest.mark.parametrize("name", GRAPHS)
def test_single_masks_drop_one_channel_on_the_golden_graphs(name, d):
    _check_single_masks_drop_one_channel(parse_edge_list(graph_file(name).read_bytes()), d)


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=10), st.sampled_from(MASK_DEPTHS))
def test_single_masks_drop_one_channel(g, d):
    _check_single_masks_drop_one_channel(g, d)
