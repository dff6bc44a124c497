from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from conftest import run_child, small_graphs
from graph_helpers import gen_complete, gen_path, gen_petersen, gen_star
from pair_oracle import family_counts, oracle_pair_count, rooted_counts, walk_matrix_power
from reference import runtime_pair_fields
from drfwl import oracle
from drfwl.counting import (
    GRAPH_LEVEL_FACTOR,
    compute_node_counts,
    compute_pair_stats,
    check_motifs,
    counts_to_report,
    cycle7_correction_terms,
    graph_level,
    index_depth,
    node_walks,
)
from drfwl.errors import CapabilityError, InvariantError, exact_quotient
from drfwl.graph import gen_cycle, gen_disjoint_union, gen_erdos_renyi, gen_random_regular
from drfwl.tuples import build_index

ALL_MOTIFS = check_motifs(2)
PAIR_KINDS = ("P2", "P3", "P4", "W3", "W4", "T", "CC2", "CCX", "C23", "C24", "TR2")

# the graphs whose counts are known by hand, by the names the tables use
PINNED_GRAPHS = {
    **{f"C{n}": gen_cycle(n) for n in range(3, 8)},
    "K4": gen_complete(4),
    "star3": gen_star(3),
    "path4": gen_path(4),
    "path5": gen_path(5),
    "petersen": gen_petersen(),
    "er30": gen_erdos_renyi(30, 0.15, 1),
}

# (graph, motif, per-node counts, graph count); None where only the graph
# count is known by hand, and the two legs must agree node by node
NODE_TABLE = [
    *((f"C{n}", f"cycle{k}", [int(k == n)] * n, int(k == n)) for n in range(3, 8) for k in range(3, 8)),
    ("K4", "cycle3", [3] * 4, 4),
    ("K4", "cycle4", [3] * 4, 3),
    ("K4", "cycle5", [0] * 4, 0),
    ("K4", "cycle6", [0] * 4, 0),
    *(
        ("C6", name, [0] * 6, 0)
        for name in ("tailed_triangle", "chordal_cycle_cc1", "chordal_cycle_cc2", "tr1", "tr2", "tr3")
    ),
    ("star3", "path2", [0, 2, 2, 2], 3),
    ("path5", "path4", [1, 0, 0, 0, 1], 1),
    ("petersen", "cycle5", [6] * 10, 12),
    ("petersen", "cycle6", [6] * 10, 10),
    ("petersen", "cycle7", [0] * 10, 0),
    ("er30", "cycle5", None, 211),
]

# (graph, pair kind, u, v, index depth, count)
PAIR_TABLE = [
    ("C5", "P2", 0, 1, 2, 0),  # girth 5
    ("C5", "P4", 0, 1, 2, 1),
    ("C4", "P2", 0, 2, 2, 2),
    ("K4", "P2", 0, 1, 2, 2),
    ("K4", "W4", 0, 1, 2, 20),
    ("K4", "P4", 0, 1, 2, 0),
    ("C6", "P3", 0, 1, 2, 0),
    ("C6", "W4", 0, 2, 2, 5),
    ("path4", "P3", 0, 3, 3, 1),
    ("C5", "C23", 0, 2, 2, 1),
]

# the random graphs whose every count is checked against the oracle: (n, p, seed)
ORACLE_GRAPHS = [
    *((16, 0.28, 40 + seed) for seed in range(8)),
    *((14, 0.33, 60 + seed) for seed in range(4)),
    *((13, 0.3, 80 + seed) for seed in range(6)),
]


def check_against_oracle(g) -> None:
    """Every motif of ``check_motifs(3)``, per node and in total, counted at
    each d = 2, 3 that reaches it, against one oracle call per motif."""
    counts = {d: compute_node_counts(build_index(g, d)) for d in (2, 3)}
    for name in check_motifs(3):
        per_node = oracle.oracle_node_counts(g, name)
        total = oracle.graph_total(name, per_node)
        for d in range(index_depth([name]), 4):
            nc = counts[d]
            assert (nc.by_name(name), graph_level(nc, name)) == (per_node, total), (name, d)


@pytest.mark.parametrize(
    "graph, motif, per_node, total", NODE_TABLE, ids=[f"{g}-{m}" for g, m, *_ in NODE_TABLE]
)
def test_pinned_node_counts_on_both_legs(graph, motif, per_node, total):
    g = PINNED_GRAPHS[graph]
    by_oracle = oracle.oracle_node_counts(g, motif)
    if per_node is None:
        per_node = by_oracle
    assert (by_oracle, oracle.oracle_graph_count(g, motif)) == (per_node, total)
    for d in range(index_depth([motif]), 4):
        nc = compute_node_counts(build_index(g, d))
        assert (nc.by_name(motif), graph_level(nc, motif)) == (per_node, total), d


@pytest.mark.parametrize(
    "graph, kind, u, v, d, value",
    PAIR_TABLE,
    ids=[f"{g}-{kind}({u},{v})" for g, kind, u, v, *_ in PAIR_TABLE],
)
def test_pinned_pair_counts_on_both_legs(graph, kind, u, v, d, value):
    g = PINNED_GRAPHS[graph]
    idx = build_index(g, d)
    assert runtime_pair_fields(idx, compute_pair_stats(idx))[kind.lower()][idx.rows[u][v]] == value
    assert oracle_pair_count(g, kind, u, v) == value


class TestPairwise:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_pair_stats_match_oracle(self, seed):
        g = gen_erdos_renyi(14, 0.3, seed)
        idx = build_index(g, 2)
        s = compute_pair_stats(idx)
        fields = runtime_pair_fields(idx, s)
        for t, (u, v, k) in enumerate(zip(idx.us, idx.vs, idx.ks)):
            if k == 0:
                continue
            for kind in PAIR_KINDS:
                assert fields[kind.lower()][t] == oracle_pair_count(g, kind, u, v), (kind, u, v)
            if k == 1:
                assert s.t[s.rev[t]] == oracle_pair_count(g, "CC1", u, v)
                assert s.tr1[t] == oracle_pair_count(g, "TR1", u, v)

    @settings(max_examples=30)
    @given(small_graphs())
    def test_symmetries(self, g):
        idx = build_index(g, 2)
        f = runtime_pair_fields(idx, compute_pair_stats(idx))
        for t, (u, v, k) in enumerate(zip(idx.us, idx.vs, idx.ks)):
            if k == 0:
                continue
            rt = idx.rows[v][u]
            for name in ("p2", "p3", "p4", "w3", "w4", "c23", "c24", "cc2", "ccx"):
                assert f[name][t] == f[name][rt]
            assert f["p3"][t] <= f["w3"][t]
            assert f["p4"][t] <= f["w4"][t]

    def test_pair_stats_keep_no_mirrored_copy(self):
        # no per-tuple field is another one, read directly or through rev, on
        # every adjacent tuple, nor, on every tuple, a form of the others and
        # the degrees that its readers can build: adj * C(P2, 2) (CC2),
        # P3 + adj * (deg u + deg v - 1) (W3), P22 + (deg u + deg v) * P2
        # (W4), P2 * P3 - T - T(rev) (C23) or T(rev) * (P2 - 1) - 2 * CCX
        # (TR2); each pair fact is stored once
        graphs = (gen_erdos_renyi(40, 0.15, 1), gen_erdos_renyi(30, 0.3, 2))
        graphs += (gen_random_regular(50, 4, 3),)
        copies = []
        for g in graphs:
            for d in (2, 3):
                idx = build_index(g, d)
                s = compute_pair_stats(idx)
                fields = {
                    name: value
                    for name, value in s._asdict().items()
                    if name != "rev" and isinstance(value, list) and len(value) == idx.tuple_count
                }
                adjacent = [t for t, k in enumerate(idx.ks) if k == 1]
                adj = [k == 1 for k in idx.ks]
                degs = [s.deg[u] + s.deg[v] for u, v in zip(idx.us, idx.vs)]
                derived = {
                    "adj * C(P2, 2)": [a * x * (x - 1) // 2 for a, x in zip(adj, s.p2)],
                    "P3 + adj * (deg u + deg v - 1)": [
                        x + a * (e - 1) for x, a, e in zip(s.p3, adj, degs)
                    ],
                    "P22 + (deg u + deg v) * P2": [y + e * x for y, e, x in zip(s.p22, degs, s.p2)],
                    "P2 * P3 - T - T(rev)": [
                        x * y - a - s.t[r] for x, y, a, r in zip(s.p2, s.p3, s.t, s.rev)
                    ],
                    "T(rev) * (P2 - 1) - 2 * CCX": [
                        s.t[r] * (x - 1) - 2 * c for r, x, c in zip(s.rev, s.p2, s.ccx)
                    ],
                }
                copies.append({
                    (a, b, via)
                    for a, xs in fields.items()
                    for b, ys in fields.items()
                    if a != b
                    for via, ids in (("direct", range(idx.tuple_count)), ("rev", s.rev))
                    if all(xs[t] == ys[ids[t]] for t in adjacent)
                } | {
                    (a, form, "derived")
                    for a, xs in fields.items()
                    for form, ys in derived.items()
                    if xs == ys
                })
        assert set.intersection(*copies) == set()


class TestNodeCounts:
    @pytest.mark.parametrize("n, p, seed", ORACLE_GRAPHS, ids=repr)
    def test_counts_match_oracle(self, n, p, seed):
        check_against_oracle(gen_erdos_renyi(n, p, seed))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=8))
    def test_full_catalog_matches_oracle_on_arbitrary_graphs(self, g):
        check_against_oracle(g)

    def test_counts_past_the_oracle_cap_match_rooted_matches(self):
        # a node's count needs only the matches rooted at it, so the oracle
        # checks sampled nodes of a graph past its cap: 30 nodes of a
        # 4-regular part, which has few triangles, and every node of a
        # dense patch, so that each motif is found somewhere
        g = gen_disjoint_union([gen_random_regular(1000, 4, 2), gen_erdos_renyi(20, 0.3, 2)])
        assert g.n > oracle.ORACLE_NODE_CAP
        sample = [*random.Random(2).sample(range(1000), 30), *range(1000, 1020)]
        for d in (2, 3):
            idx = build_index(g, d)
            nc = compute_node_counts(idx)
            for name in check_motifs(d):
                per_node = nc.by_name(name)
                want = rooted_counts(g, oracle.PATTERNS[name], [(u,) for u in sample])
                assert [per_node[u] for u in sample] == want, (name, d)
                assert any(want), (name, d)
        # and the twelve cycle-7 families, on the d = 3 index
        _, letters = cycle7_correction_terms(idx, compute_pair_stats(idx), nc)
        for name, want in family_counts(g, sample).items():
            assert [letters[name][u] for u in sample] == want, name
            assert any(want), name

    def test_cycle7_requires_d3(self):
        nc = compute_node_counts(build_index(gen_cycle(7), 2))
        assert nc.cycle7 is None
        with pytest.raises(CapabilityError):
            nc.by_name("cycle7")

    def test_d1_index_is_refused(self):
        # the closed forms read N_2 shells; a d=1 index has none
        with pytest.raises(ValueError, match="d >= 2"):
            compute_node_counts(build_index(gen_cycle(7), 1))

    def test_clique4_never_closed_form(self):
        nc = compute_node_counts(build_index(gen_complete(5), 3))
        with pytest.raises(CapabilityError):
            nc.by_name("clique4")

    def test_d3_reuses_short_distance_results(self):
        g = gen_erdos_renyi(14, 0.3, 17)
        a = compute_node_counts(build_index(g, 2))
        b = compute_node_counts(build_index(g, 3))
        for name in ALL_MOTIFS:
            assert a.by_name(name) == b.by_name(name)

    def test_walks(self):
        g = gen_cycle(6)
        assert node_walks(g, 1) == [2] * 6
        assert node_walks(g, 3) == [8] * 6
        assert node_walks(gen_complete(4), 2) == [9] * 4
        for seed in range(3):
            h = gen_erdos_renyi(10, 0.3, seed)
            mat = walk_matrix_power(h, 4)
            assert node_walks(h, 4) == [sum(row) for row in mat]


class TestGraphLevel:
    def test_factor_table_covers_catalog(self):
        # the factor table is the catalog: the same names in report order,
        # with cycle7, the one motif that needs d >= 3, last
        catalog = tuple(GRAPH_LEVEL_FACTOR)
        assert check_motifs(3) == catalog
        assert check_motifs(2) == catalog[:-1]
        assert catalog[-1] == "cycle7"


class TestReport:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_schema(self, d):
        # the report prints check_motifs(d), in its order
        g = gen_erdos_renyi(10, 0.3, 0)
        report = counts_to_report(compute_node_counts(build_index(g, d)))
        assert set(report) == {"n", "substructures"}
        assert report["n"] == 10
        assert tuple(report["substructures"]) == check_motifs(d)
        for entry in report["substructures"].values():
            assert set(entry) == {"per_node", "graph_level"}
            assert len(entry["per_node"]) == 10

    def test_selected_motifs_only(self):
        g = gen_cycle(6)
        report = counts_to_report(
            compute_node_counts(build_index(g, 2)), ("cycle3", "cycle6")
        )
        assert list(report["substructures"]) == ["cycle3", "cycle6"]
        assert report["substructures"]["cycle6"]["graph_level"] == 1

    def test_check_motifs_names_each_motif_once_in_first_seen_order(self):
        assert check_motifs(3, ["cycle7", "path2", "cycle7", "cycle3", "path2"]) == (
            "cycle7", "path2", "cycle3",
        )
        assert check_motifs(2) == tuple(GRAPH_LEVEL_FACTOR)[:-1]
        assert check_motifs(7) == tuple(GRAPH_LEVEL_FACTOR)

    @pytest.mark.parametrize(
        "d, names, error, match",
        [
            (1, ["clique4"], CapabilityError, "clique4"),  # each name before d
            (1, ["cycle9"], ValueError, "unknown motif 'cycle9'"),
            (1, None, ValueError, "d >= 2"),
            (1, ["cycle7"], ValueError, "d >= 2"),  # d < 2 before cycle7
            (2, ["cycle3", "cycle7"], CapabilityError, "cycle7"),
        ],
    )
    def test_check_motifs_refusal_order(self, d, names, error, match):
        with pytest.raises(error, match=match):
            check_motifs(d, names)


class TestInvariants:
    def test_odd_aggregate_raises(self):
        assert exact_quotient(4, 2, "cycle4") == 2
        assert exact_quotient(-21, 7, "cycle7") == -3
        with pytest.raises(InvariantError, match="cycle4: 3 is not divisible by 2"):
            exact_quotient(3, 2, "cycle4")
        with pytest.raises(InvariantError, match="cycle7 node total: 15 is not divisible by 7"):
            exact_quotient(15, 7, "cycle7 node total")

    def test_checks_survive_optimize_flag(self):
        script = (
            "from drfwl.errors import InvariantError, exact_quotient\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    exact_quotient(3, 2, 'cycle4')\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        assert run_child("-O", "-c", script).stdout == "raised\n"
