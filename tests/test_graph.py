from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from drfwl.graph import (
    Graph,
    GraphFormatError,
    bfs_distances,
    gen_cycle,
    gen_disjoint_union,
    gen_erdos_renyi,
    gen_random_regular,
    gen_star,
    khop,
    parse_edge_list,
    permute,
)


def check_invariants(g: Graph) -> None:
    assert len(g.adjacency) == g.n
    total = 0
    for u, nbrs in enumerate(g.adjacency):
        assert list(nbrs) == sorted(set(nbrs))
        assert u not in nbrs
        for v in nbrs:
            assert u in g.adjacency[v]
        total += len(nbrs)
    assert total == 2 * g.m


class TestParse:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert (g.n, g.m) == (3, 3)
        check_invariants(g)

    def test_empty_input(self):
        g = parse_edge_list("")
        assert (g.n, g.m) == (0, 0)

    def test_duplicate_edges_collapse(self):
        g = parse_edge_list("0 1\n0 1\n1 0")
        assert (g.n, g.m) == (2, 1)

    def test_header_forces_node_count(self):
        g = parse_edge_list("n 5\n0 1\n")
        assert g.n == 5
        assert g.adjacency[4] == ()

    def test_header_does_not_shrink(self):
        g = parse_edge_list("n 2\n0 4\n")
        assert g.n == 5

    def test_gaps_become_isolated_nodes(self):
        g = parse_edge_list("0 3")
        assert g.n == 4
        assert g.adjacency[1] == ()

    def test_comments_blank_lines_crlf(self):
        g = parse_edge_list(b"# header\r\n\r\n0 1\r\n# mid\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n3 3\n")

    def test_non_integer_rejected_with_line(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("a b\n")

    def test_negative_id_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("-1 2\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("0 1 2\n")

    def test_round_trip(self):
        g = gen_erdos_renyi(12, 0.3, 4)
        assert parse_edge_list(g.to_edge_list()).adjacency == g.adjacency


def bfs_shells(g: Graph, v: int, d: int) -> tuple[tuple[int, ...], ...]:
    """N_0(v) .. N_d(v) from a full BFS, less the empty shells at the end."""
    dist = bfs_distances(g, v)
    shells = [tuple(w for w in range(g.n) if dist[w] == k) for k in range(d + 1)]
    while not shells[-1]:
        shells.pop()
    return tuple(shells)


class TestKhop:
    def test_cycle_shells(self):
        shells = khop(gen_cycle(6), 0, 2)
        assert shells == ((0,), (1, 5), (2, 4))

    def test_complete_graph_exhausts_at_one(self):
        shells = khop(parse_edge_list("0 1\n0 2\n0 3\n1 2\n1 3\n2 3"), 0, 2)
        assert shells == ((0,), (1, 2, 3))

    def test_stops_at_the_last_shell_whatever_d(self):
        assert khop(gen_cycle(6), 0, 10**6) == ((0,), (1, 5), (2, 4), (3,))
        assert khop(parse_edge_list("n 2\n"), 1, 10**6) == ((1,),)

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            khop(gen_cycle(3), 5, 1)

    def test_matches_full_bfs(self):
        g = gen_erdos_renyi(20, 0.2, 7)
        assert khop(g, 0, 3) == bfs_shells(g, 0, 3)

    @settings(max_examples=60)
    @given(small_graphs())
    def test_khop_agrees_with_bfs_everywhere(self, g):
        for v in range(g.n):
            assert khop(g, v, 3) == bfs_shells(g, v, 3)

    def test_khop_on_100_random_graphs(self):
        for seed in range(100):
            n = 10 + seed % 31  # up to 40 nodes
            g = gen_erdos_renyi(n, 0.12, 500 + seed)
            for v in range(g.n):
                assert khop(g, v, 3) == bfs_shells(g, v, 3)


class TestGenerators:
    def test_cycle_is_2_regular(self):
        g = gen_cycle(6)
        assert g.degrees() == [2] * 6
        check_invariants(g)

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            gen_cycle(2)

    def test_disjoint_union_two_triangles(self):
        g = gen_disjoint_union([gen_cycle(3), gen_cycle(3)])
        assert (g.n, g.m) == (6, 6)
        dist = bfs_distances(g, 0)
        assert dist.count(-1) == 3

    def test_er_deterministic(self):
        a = gen_erdos_renyi(30, 0.15, 0)
        b = gen_erdos_renyi(30, 0.15, 0)
        assert a.adjacency == b.adjacency
        assert a.adjacency != gen_erdos_renyi(30, 0.15, 1).adjacency

    def test_er_extremes(self):
        assert gen_erdos_renyi(8, 0.0, 1).m == 0
        assert gen_erdos_renyi(8, 1.0, 1).m == 28

    def test_regular_degrees(self):
        g = gen_random_regular(12, 3, 5)
        assert g.degrees() == [3] * 12
        check_invariants(g)

    def test_regular_deterministic(self):
        assert gen_random_regular(12, 4, 9).adjacency == gen_random_regular(12, 4, 9).adjacency

    def test_regular_parity_rejected(self):
        with pytest.raises(ValueError):
            gen_random_regular(5, 3, 0)

    def test_regular_r_too_big(self):
        with pytest.raises(ValueError):
            gen_random_regular(4, 4, 0)

    def test_star_shape(self):
        g = gen_star(3)
        assert g.degrees() == [3, 1, 1, 1]

    @settings(max_examples=40)
    @given(small_graphs())
    def test_random_graph_invariants(self, g):
        check_invariants(g)

    def test_permute_roundtrip(self):
        g = gen_erdos_renyi(10, 0.4, 2)
        perm = [3, 1, 4, 0, 9, 5, 8, 2, 7, 6]
        h = permute(g, perm)
        check_invariants(h)
        inverse = [0] * 10
        for i, p in enumerate(perm):
            inverse[p] = i
        assert permute(h, inverse).adjacency == g.adjacency
