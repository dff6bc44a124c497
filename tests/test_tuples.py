from __future__ import annotations

import pytest
from hypothesis import given, settings

import reference
from conftest import small_graphs
from drfwl.graph import bfs_distances, gen_complete, gen_cycle, gen_erdos_renyi, gen_random_regular
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
        assert [idx.rows[u][v] for (u, v, _) in idx.pairs] == list(range(idx.tuple_count))
        keys = [(u, k, v) for (u, v, k) in idx.pairs]
        assert keys == sorted(keys)

    def test_diagonal_present(self):
        idx = build_index(gen_cycle(5), 1)
        for u in range(5):
            assert idx.pairs[idx.rows[u][u]] == (u, u, 0)

    def test_d_must_be_positive(self):
        with pytest.raises(ValueError):
            build_index(gen_cycle(3), 0)

    @settings(max_examples=40)
    @given(small_graphs())
    def test_symmetry_and_distances(self, g):
        idx = build_index(g, 2)
        for u, v, k in idx.pairs:
            assert idx.pairs[idx.rows[v][u]] == (v, u, k)
            dist = bfs_distances(g, u)
            assert dist[v] == k

    @settings(max_examples=40)
    @given(small_graphs())
    def test_rows_and_distance(self, g):
        idx = build_index(g, 2)
        for u in range(g.n):
            assert idx.rows[u] == {v: t for t, (a, v, _) in enumerate(idx.pairs) if a == u}
            dist = bfs_distances(g, u)
            for v in range(g.n):
                t = idx.rows[u].get(v)
                assert (-1 if t is None else idx.pairs[t][2]) == (dist[v] if 0 <= dist[v] <= 2 else -1)

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
        for u, v, _ in idx.pairs[: 40]:
            for i in range(3):
                for j in range(3):
                    a = _common(idx, u, v, i, j)
                    assert a == _common(idx, v, u, j, i)
                    assert len(a) <= min(len(reference.shell(idx, u, i)), len(reference.shell(idx, v, j)))

    @settings(max_examples=40)
    @given(small_graphs())
    def test_triangle_inequality_pruning(self, g):
        idx = build_index(g, 2)
        for u, v, k in idx.pairs:
            for i in range(3):
                for j in range(3):
                    if abs(i - j) > k or i + j < k:
                        assert _common(idx, u, v, i, j) == []
