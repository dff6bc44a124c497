from __future__ import annotations

import time
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import small_graphs
from graph_helpers import bfs_distances, gen_complete, gen_star
from drfwl.counting import compute_node_counts
from drfwl.graph import Graph, gen_cycle, gen_erdos_renyi, gen_random_regular
from drfwl.tuples import build_index, intersect


class TestBuildIndex:
    def test_cycle6_d2_count(self):
        idx = build_index(gen_cycle(6), 2)
        assert idx.tuple_count == 6 + 12 + 12

    def test_k4_d2_count(self):
        idx = build_index(gen_complete(4), 2)
        assert idx.tuple_count == 4 + 12 + 0

    def test_er_count_matches_all_pairs_bfs(self):
        g = gen_erdos_renyi(30, 0.15, 3)
        idx = build_index(g, 2)
        by_bfs = sum(
            1
            for u in range(g.n)
            for d in [bfs_distances(g, u)]
            for v in range(g.n)
            if 0 <= d[v] <= 2
        )
        assert idx.tuple_count == by_bfs == 504

    def test_ids_dense_and_ordered(self):
        idx = build_index(gen_erdos_renyi(12, 0.3, 1), 2)
        assert [idx.rows[u][v] for u, v in zip(idx.us, idx.vs)] == list(range(idx.tuple_count))
        keys = list(zip(idx.us, idx.ks, idx.vs))
        assert keys == sorted(keys)

    def test_diagonal_present(self):
        idx = build_index(gen_cycle(5), 1)
        for u in range(5):
            t = idx.rows[u][u]
            assert (idx.us[t], idx.vs[t], idx.ks[t]) == (u, u, 0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_index_memory_per_tuple(self, d):
        # the index is the method's footprint: four id-order columns and
        # one dict per node read about 101 B a tuple at d = 2 and 105 B at
        # d = 3; storing each tuple again as a (u, v, k) triple and in
        # per-node shells read 150-160 B
        g = gen_random_regular(2000, 4, 0)
        tracemalloc.start()
        try:
            idx = build_index(g, d)
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert used / idx.tuple_count <= 120

    @pytest.mark.parametrize("n, d, bound", [(1000, 2, 150), (500, 3, 135)])
    def test_counting_memory_per_tuple(self, n, d, bound):
        # what compute_node_counts allocates above the index, at its peak,
        # reads about 122 B a tuple at d = 2 and 108 B at d = 3; storing
        # W3, W4, CC1, CC2, C23 and TR2 per tuple as well reads 178 and 161 B
        idx = build_index(gen_random_regular(n, 4, 0), d)
        tracemalloc.start()
        try:
            compute_node_counts(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / idx.tuple_count <= bound

    # the rule is checked before any node is read, so an empty graph refuses too
    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("d", [0, -1, True, 2.0, "2"])
    def test_d_must_be_an_int_at_least_1(self, d, n):
        g = gen_cycle(n) if n else Graph.from_edges(0, [])
        with pytest.raises(ValueError, match="d must be an int >= 1"):
            build_index(g, d)

    @settings(max_examples=40)
    @given(small_graphs())
    def test_symmetry_and_distances(self, g):
        idx = build_index(g, 2)
        for u, v, k, r in zip(idx.us, idx.vs, idx.ks, idx.rev):
            assert (idx.us[r], idx.vs[r], idx.ks[r]) == (v, u, k)
            dist = bfs_distances(g, u)
            assert dist[v] == k

    @settings(max_examples=40)
    @given(small_graphs(), st.integers(min_value=1, max_value=3))
    def test_columns(self, g, d):
        idx = build_index(g, d)
        assert len(idx.us) == len(idx.vs) == len(idx.ks) == len(idx.rev) == idx.tuple_count
        dist = [bfs_distances(g, u) for u in range(g.n)]
        for t, (u, v, k, r) in enumerate(zip(idx.us, idx.vs, idx.ks, idx.rev)):
            assert idx.rows[u][v] == t
            assert k == dist[u][v]
            # rev is the id of (v, u): an involution onto the reversed tuple
            assert r == idx.rows[v][u]
            assert idx.rev[r] == t
            assert (idx.us[r], idx.vs[r], idx.ks[r]) == (v, u, k)
        keys = list(zip(idx.us, idx.ks, idx.vs))
        assert keys == sorted(keys)
        assert idx.tuple_count == sum(0 <= x <= d for row in dist for x in row)

    @settings(max_examples=40)
    @given(small_graphs())
    def test_rows_and_distance(self, g):
        idx = build_index(g, 2)
        for u in range(g.n):
            assert idx.rows[u] == {v: t for t, (a, v) in enumerate(zip(idx.us, idx.vs)) if a == u}
            dist = bfs_distances(g, u)
            for v in range(g.n):
                t = idx.rows[u].get(v)
                assert (-1 if t is None else idx.ks[t]) == (dist[v] if 0 <= dist[v] <= 2 else -1)

    @settings(max_examples=60)
    @given(small_graphs(), st.integers(min_value=1, max_value=4))
    # node 3 is isolated, and the BFS from 0 stops at depth 2 of 4
    @example(Graph.from_edges(4, [(0, 1), (1, 2)]), 4)
    def test_span_is_the_ids_at_a_distance_range(self, g, d):
        idx = build_index(g, d)
        for u in range(g.n):
            for lo in range(d + 2):
                for hi in range(lo, d + 2):
                    want = [
                        t for t, (a, k) in enumerate(zip(idx.us, idx.ks)) if a == u and lo <= k <= hi
                    ]
                    assert list(range(*idx.span(u, lo, hi))) == want

    def test_regular_graph_space_bound_exact_form(self):
        for seed in range(5):
            g = gen_random_regular(16, 4, seed)
            idx = build_index(g, 2)
            r = 4
            assert idx.tuple_count <= g.n * (1 + r + r * (r - 1))
            assert idx.space_bound() == g.n * (1 + r + r * r)

    def test_doubling_n_doubles_tuples_on_cycles(self):
        # cycle graphs are 2-regular: tuple count is exactly n * (1 + 2d)
        t1 = build_index(gen_cycle(100), 2).tuple_count
        t2 = build_index(gen_cycle(200), 2).tuple_count
        assert t2 == 2 * t1 == 200 * 5

    @pytest.mark.parametrize("degmax", range(6))
    def test_space_bound_equals_the_term_by_term_sum(self, degmax):
        g = gen_star(degmax)  # max degree degmax, also 0 and 1
        for d in range(1, 13):
            want = g.n * (1 + sum(degmax**k for k in range(1, d + 1)))
            assert build_index(g, d).space_bound() == want

    def test_space_bound_at_a_huge_d_is_fast(self):
        idx = build_index(gen_random_regular(20, 4, 0), 10**5)
        start = time.process_time()
        bound = idx.space_bound()
        assert time.process_time() - start < 1.0
        assert bound == 20 * ((4 ** (10**5 + 1) - 1) // 3)

    @settings(max_examples=40)
    @given(small_graphs())
    def test_space_bound_holds(self, g):
        for d in (1, 2, 3):
            idx = build_index(g, d)
            assert idx.tuple_count <= idx.space_bound()


def _common(idx, u, v, i, j):
    """N_i(u) & N_j(v) through ``intersect``."""
    return intersect(set(reference.shell(idx, u, i)), set(reference.shell(idx, v, j)))


class TestIntersect:
    def test_cycle_common_neighbor(self):
        idx = build_index(gen_cycle(6), 2)
        assert _common(idx, 0, 2, 1, 1) == [1]

    def test_identity_case(self):
        idx = build_index(gen_cycle(6), 2)
        assert _common(idx, 3, 3, 0, 0) == [3]

    def test_complete_graph_common_neighbors(self):
        idx = build_index(gen_complete(4), 2)
        assert _common(idx, 0, 1, 1, 1) == [2, 3]

    def test_row_keys_give_the_common_ball(self):
        # refinement's witnesses of (0, 2) on C6 at d=2: every w within 2 of both
        idx = build_index(gen_cycle(6), 2)
        assert intersect(idx.rows[0].keys(), idx.rows[2].keys()) == [0, 1, 2, 4]

    def test_zero_shell_is_singleton(self):
        idx = build_index(gen_cycle(6), 2)
        assert _common(idx, 0, 1, 0, 1) == [0]
        assert _common(idx, 0, 1, 1, 0) == [1]

    @settings(max_examples=40)
    @given(small_graphs())
    def test_symmetric_and_bounded(self, g):
        idx = build_index(g, 2)
        for u, v in islice(zip(idx.us, idx.vs), 40):
            for i in range(3):
                for j in range(3):
                    a = _common(idx, u, v, i, j)
                    assert a == _common(idx, v, u, j, i)
                    assert len(a) <= min(len(reference.shell(idx, u, i)), len(reference.shell(idx, v, j)))

    @settings(max_examples=40)
    @given(small_graphs())
    def test_triangle_inequality_pruning(self, g):
        idx = build_index(g, 2)
        for u, v, k in zip(idx.us, idx.vs, idx.ks):
            for i in range(3):
                for j in range(3):
                    if abs(i - j) > k or i + j < k:
                        assert _common(idx, u, v, i, j) == []
