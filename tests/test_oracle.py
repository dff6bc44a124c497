from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from graph_helpers import gen_complete, gen_petersen, gen_star
from pair_oracle import (
    FAMILY_PATTERNS,
    PAIR_PATTERNS,
    oracle_pair_count,
    rooted_counts,
    walk_matrix_power,
)
from drfwl import counting, oracle
from drfwl.cli import main
from drfwl.errors import InvariantError
from drfwl.graph import Graph, gen_cycle, gen_erdos_renyi
from drfwl.oracle import CapabilityError, oracle_graph_count, oracle_node_counts

# motif shapes used by the generic reference counter below:
# (vertex count, edge set, marked vertex)
MOTIF_SHAPES = {
    "cycle3": (3, [(0, 1), (1, 2), (2, 0)], 0),
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 0),
    "cycle5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 0),
    "path2": (3, [(0, 1), (1, 2)], 0),
    "path3": (4, [(0, 1), (1, 2), (2, 3)], 0),
    "path4": (5, [(0, 1), (1, 2), (2, 3), (3, 4)], 0),
    "tailed_triangle": (4, [(0, 1), (1, 2), (1, 3), (2, 3)], 0),
    "chordal_cycle_cc1": (4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], 0),
    "chordal_cycle_cc2": (4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], 1),
    "tr1": (5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 2)], 0),
    "tr2": (5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 2)], 1),
    "tr3": (5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 2)], 3),
    "clique4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 0),
}


def reference_marked_count(g: Graph, name: str, u: int) -> int:
    """Occurrences of the motif with u at the marked slot, by exhaustive
    injection enumeration with edge-set deduplication.  Slow but obviously
    correct; it validates the oracle's matcher in both its forms."""
    size, edges, marked = MOTIF_SHAPES[name]
    nbr = g.neighbor_sets()
    seen: set[frozenset] = set()
    others = [x for x in range(size) if x != marked]
    for subset in combinations([x for x in range(g.n) if x != u], size - 1):
        for perm in permutations(subset):
            assign = {marked: u}
            assign.update(dict(zip(others, perm)))
            image = [(assign[a], assign[b]) for a, b in edges]
            if all(b in nbr[a] for a, b in image):
                seen.add(frozenset(frozenset(e) for e in image))
    return len(seen)


CROSS_CHECK_GRAPHS = [
    gen_complete(5),
    gen_petersen(),
    gen_erdos_renyi(9, 0.4, 2),
    gen_erdos_renyi(9, 0.5, 7),
    gen_star(4),
]


@pytest.mark.parametrize("name", sorted(MOTIF_SHAPES))
def test_oracle_matches_generic_injection_counter(name):
    # the all-nodes matcher, with its orbit pruning, and the rooted one
    for g in CROSS_CHECK_GRAPHS:
        counts = oracle_node_counts(g, name)
        rooted = rooted_counts(g, oracle.PATTERNS[name], [(u,) for u in range(g.n)])
        for u in range(g.n):
            assert counts[u] == rooted[u] == reference_marked_count(g, name, u), (name, u)


# every row the tests hand the matcher, with its number r of roots
MATCHER_ROWS = [
    *(pytest.param(edges, 1, id=name) for name, edges in oracle.PATTERNS.items()),
    *(pytest.param(edges, 2, id=f"pair-{name}") for name, edges in PAIR_PATTERNS.items()),
    *(pytest.param(edges, 1, id=f"family-{name}") for name, edges in FAMILY_PATTERNS.items()),
]


class TestPatterns:
    @pytest.mark.parametrize("edges, r", MATCHER_ROWS)
    def test_pattern_is_a_search_order(self, edges, r):
        # the matcher places vertices 0..r-1 at the roots and each later
        # vertex next to an already placed one
        pairs = [frozenset(e) for e in edges]
        assert all(len(e) == 2 for e in pairs) and len(set(pairs)) == len(pairs)
        k = 1 + max(map(max, edges))
        assert {v for e in edges for v in e} == set(range(k))
        for v in range(r, k):
            assert any(min(e) < v == max(e) for e in edges), v

    @pytest.mark.parametrize("name", list(oracle.PATTERNS))
    def test_pattern_contains_itself_once(self, name):
        # vertex 0's orbit, by trying every relabelling of the pattern
        edges = oracle.PATTERNS[name]
        k = 1 + max(map(max, edges))
        edge_set = {frozenset(e) for e in edges}
        orbit = {
            perm[0]
            for perm in permutations(range(k))
            if {frozenset((perm[a], perm[b])) for a, b in edges} == edge_set
        }
        g = Graph.from_edges(k, edges)
        assert oracle_graph_count(g, name) == 1
        assert oracle_node_counts(g, name) == [int(v in orbit) for v in range(k)]
        assert oracle.GRAPH_FACTOR[name] == len(orbit)


class TestCycles:
    def test_cycles_match_itertools_brute_force(self):
        # a k-cycle is one vertex sequence with its smallest vertex first
        # and second < last whose steps, the closing one too, are edges
        for n in range(6, 10):
            for seed in range(3):
                g = gen_erdos_renyi(n, 0.6, seed)
                nbr = g.neighbor_sets()
                for k in range(3, min(7, n) + 1):
                    per_node, total = [0] * n, 0
                    for first, *rest in combinations(range(n), k):
                        for tail in permutations(rest):
                            cycle = (first, *tail, first)
                            if tail[0] < tail[-1] and all(b in nbr[a] for a, b in zip(cycle, cycle[1:])):
                                total += 1
                                for x in cycle[:-1]:
                                    per_node[x] += 1
                    assert oracle_node_counts(g, f"cycle{k}") == per_node, (n, seed, k)
                    assert oracle_graph_count(g, f"cycle{k}") == total, (n, seed, k)


class TestPairCounts:
    def test_w2_equals_p2_off_diagonal(self):
        g = gen_erdos_renyi(12, 0.35, 1)
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert oracle_pair_count(g, "W2", u, v) == oracle_pair_count(g, "P2", u, v)

    def test_walks_match_matrix_power(self):
        for seed in range(3):
            g = gen_erdos_renyi(10, 0.3, seed)
            for k in (2, 3, 4):
                mat = walk_matrix_power(g, k)
                for u in range(g.n):
                    for v in range(g.n):
                        assert oracle_pair_count(g, f"W{k}", u, v) == mat[u][v]

    @pytest.mark.parametrize("k, l", [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    def test_split_cycle_consistency_with_node_cycles(self, k, l):
        # a (k+l)-cycle through u splits into a k-path and an l-path at
        # each of the two nodes k steps from u along it, as k != l
        g = gen_erdos_renyi(12, 0.35, 3)
        cycles = oracle_node_counts(g, f"cycle{k + l}")
        assert any(cycles)
        for u in range(g.n):
            total = sum(oracle_pair_count(g, f"C{k}{l}", u, v) for v in range(g.n))
            assert total == 2 * cycles[u], u

    @pytest.mark.parametrize("seed", range(6))
    def test_p_kinds_match_ordered_interior_tuples(self, seed):
        # a u-v path with k edges is an ordered tuple of k - 1 distinct
        # interior nodes, none of them u or v, with every step an edge
        g = gen_erdos_renyi(8, 0.45, seed)
        nbr = g.neighbor_sets()
        for u in range(g.n):
            for v in range(g.n):
                others = [x for x in range(g.n) if x != u and x != v]
                for k in range(1, 5):
                    want = 0
                    if u != v:
                        for interior in permutations(others, k - 1):
                            walk = (u, *interior, v)
                            want += all(b in nbr[a] for a, b in zip(walk, walk[1:]))
                    assert oracle_pair_count(g, f"P{k}", u, v) == want, (k, u, v)


class TestGuards:
    def test_unknown_motif(self):
        with pytest.raises(ValueError):
            oracle_node_counts(gen_cycle(5), "cycle99")

    def test_catalog_is_the_count_catalog_plus_clique4(self):
        # the oracle derives its orbit sizes, counting keeps its own by hand
        assert tuple(oracle.GRAPH_FACTOR) == (*counting.GRAPH_LEVEL_FACTOR, "clique4")
        assert oracle.GRAPH_FACTOR == {**counting.GRAPH_LEVEL_FACTOR, "clique4": 4}

    def test_default_report_is_the_count_report_at_d3(self):
        assert oracle.check_motifs() == counting.check_motifs(3)

    def test_check_motifs_names_each_motif_once_in_first_seen_order(self):
        names = ["clique4", "cycle7", "path2", "cycle7", "clique4"]
        assert oracle.check_motifs(names) == ("clique4", "cycle7", "path2")
        with pytest.raises(ValueError, match="unknown motif 'tr9'"):
            oracle.check_motifs(["cycle3", "tr9", "cycle99"])

    def test_cycles_stop_at_seven(self, tmp_path, capsys):
        g = gen_cycle(8)
        with pytest.raises(ValueError, match="unknown motif 'cycle8'"):
            oracle_node_counts(g, "cycle8")
        path = tmp_path / "c8.el"
        path.write_text(g.to_edge_list())
        assert main(["oracle", "--motifs", "cycle8", str(path)]) == 2
        assert "unknown motif 'cycle8'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [5, 600])
    @pytest.mark.parametrize("entry", [oracle_node_counts, oracle_graph_count])
    def test_unknown_motif_is_reported_before_the_size_cap(self, entry, n):
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(ValueError, match="unknown motif 'cycle99'"):
            entry(g, "cycle99")
        with pytest.raises(ValueError, match="unknown motif 'tr9'"):
            entry(g, "tr9")

    def test_size_cap(self):
        big = Graph.from_edges(600, [(i, i + 1) for i in range(599)])
        with pytest.raises(CapabilityError):
            oracle_node_counts(big, "cycle3")

    @pytest.mark.parametrize("name", ["path2", "path3", "path4"])
    def test_odd_path_total_is_an_invariant_error(self, monkeypatch, tmp_path, capsys, name):
        # each path is counted from both ends, so an odd total is a bug
        monkeypatch.setattr(oracle, "match_pattern", lambda g, edges, orbit: [1] + [0] * (g.n - 1))
        g = gen_cycle(5)
        with pytest.raises(InvariantError, match=f"{name} node total: 1 is not divisible by 2"):
            oracle_graph_count(g, name)
        path = tmp_path / "c5.el"
        path.write_text(g.to_edge_list())
        assert main(["oracle", "--motifs", name, str(path)]) == 4
        assert "consistency check failed" in capsys.readouterr().err

    def test_oracle_subcommand_enumerates_each_motif_once(self, monkeypatch, tmp_path):
        # the graph count comes from the per-node list, not a second pass
        calls = []
        real = oracle.match_pattern

        def counted(g, edges, orbit):
            calls.append(edges)
            return real(g, edges, orbit)

        monkeypatch.setattr(oracle, "match_pattern", counted)
        g = gen_erdos_renyi(9, 0.5, 1)
        path = tmp_path / "g.el"
        path.write_text(g.to_edge_list())
        assert main(["oracle", "--motifs", "cycle5,path3,tr1,cycle5", str(path)]) == 0
        assert calls == [oracle.PATTERNS[name] for name in ("cycle5", "path3", "tr1")]

    def test_k4_has_one_clique4(self):
        assert oracle_node_counts(gen_complete(4), "clique4") == [1] * 4

    @pytest.mark.parametrize("name", ["clique4", "tailed_triangle"])
    def test_triangle_motifs_build_neighbour_sets_once(self, monkeypatch, name):
        # the matcher builds the graph's neighbour sets once per motif
        calls = []
        real = Graph.neighbor_sets

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(Graph, "neighbor_sets", counted)
        assert sum(oracle_node_counts(gen_complete(5), name)) > 0
        assert len(calls) == 1

    @settings(max_examples=25)
    @given(small_graphs(max_n=7))
    def test_paths_start_count_reversal(self, g):
        # summing directed starts over nodes double-counts each path
        for k in (2, 3):
            per_node = oracle_node_counts(g, f"path{k}")
            assert sum(per_node) % 2 == 0
