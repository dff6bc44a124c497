from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from drfwl import oracle
from drfwl.counting import (
    GRAPH_LEVEL_FACTOR,
    compute_node_counts,
    compute_pair_stats,
    _exact_half,
    counts_to_report,
    graph_level,
    node_walks,
    pairwise_p2,
    supported_motifs,
)
from drfwl.errors import CapabilityError, InvariantError
from drfwl.graph import (
    gen_complete,
    gen_cycle,
    gen_erdos_renyi,
    gen_path,
    gen_petersen,
    gen_star,
)
from drfwl.tuples import build_index

ALL_MOTIFS = supported_motifs(2)
PAIR_KINDS = ("P2", "P3", "P4", "W3", "W4", "T", "CC2", "C23", "C24")


def pair_kind_value(stats, kind, t):
    return {
        "P2": stats.p2,
        "P3": stats.p3,
        "P4": stats.p4,
        "W3": stats.w3,
        "W4": stats.w4,
        "T": stats.t,
        "CC2": stats.cc2,
        "C23": stats.c23,
        "C24": stats.c24,
    }[kind][t]


class TestPairwise:
    def test_p2_small_cases(self):
        c5 = build_index(gen_cycle(5), 2)
        s = pairwise_p2(c5)
        assert s[c5.pair_id[(0, 1)]] == 0  # girth 5
        c4 = build_index(gen_cycle(4), 2)
        assert pairwise_p2(c4)[c4.pair_id[(0, 2)]] == 2
        k4 = build_index(gen_complete(4), 2)
        assert pairwise_p2(k4)[k4.pair_id[(0, 1)]] == 2

    def test_frozen_path_and_walk_values(self):
        idx = build_index(gen_cycle(6), 2)
        s = compute_pair_stats(idx)
        assert s.p3[idx.pair_id[(0, 1)]] == 0
        assert s.w4[idx.pair_id[(0, 2)]] == 5
        k4 = build_index(gen_complete(4), 2)
        sk = compute_pair_stats(k4)
        assert sk.w4[k4.pair_id[(0, 1)]] == 20
        assert sk.p4[k4.pair_id[(0, 1)]] == 0
        c5 = build_index(gen_cycle(5), 2)
        sc = compute_pair_stats(c5)
        assert sc.p4[c5.pair_id[(0, 1)]] == 1

    def test_path_graph_endpoints(self):
        idx = build_index(gen_path(4), 3)
        s = compute_pair_stats(idx)
        assert s.p3[idx.pair_id[(0, 3)]] == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_all_pair_stats_match_oracle(self, seed):
        g = gen_erdos_renyi(14, 0.3, seed)
        idx = build_index(g, 2)
        s = compute_pair_stats(idx)
        for t, (u, v, k) in enumerate(idx.pairs):
            if k == 0:
                continue
            for kind in PAIR_KINDS:
                want = oracle.oracle_pair_count(g, kind, u, v)
                if kind == "CC2" and k == 2:
                    want = 0  # positions are adjacent; off-range pairs hold 0
                assert pair_kind_value(s, kind, t) == want, (kind, u, v)
            if k == 1:
                assert s.cc1[t] == oracle.oracle_pair_count(g, "CC1", u, v)
                assert s.tr1[t] == oracle.oracle_pair_count(g, "TR1", u, v)
            assert s.tr2[t] == oracle.oracle_pair_count(g, "TR2", u, v)

    @settings(max_examples=30)
    @given(small_graphs())
    def test_symmetries(self, g):
        idx = build_index(g, 2)
        s = compute_pair_stats(idx)
        for t, (u, v, k) in enumerate(idx.pairs):
            if k == 0:
                continue
            rt = idx.pair_id[(v, u)]
            for arr in (s.p2, s.p3, s.p4, s.w3, s.w4, s.c23, s.c24, s.cc2, s.ccx):
                assert arr[t] == arr[rt]
            assert s.p3[t] <= s.w3[t]
            assert s.p4[t] <= s.w4[t]


class TestNodeCounts:
    def test_cycle_graphs(self):
        for n in range(3, 8):
            g = gen_cycle(n)
            nc = compute_node_counts(build_index(g, 3))
            for k in range(3, 8):
                want = [1] * n if k == n else [0] * n
                assert nc.by_name(f"cycle{k}") == want

    def test_k4(self):
        nc = compute_node_counts(build_index(gen_complete(4), 2))
        assert nc.cycle3 == [3] * 4
        assert nc.cycle4 == [3] * 4
        assert nc.cycle5 == [0] * 4
        assert nc.cycle6 == [0] * 4

    def test_star_paths(self):
        nc = compute_node_counts(build_index(gen_star(3), 2))
        assert nc.path2 == [0, 2, 2, 2]

    def test_path_graph_end(self):
        nc = compute_node_counts(build_index(gen_path(5), 2))
        assert nc.path4[0] == 1 and nc.path4[4] == 1

    def test_triangle_free_motifs_vanish(self):
        nc = compute_node_counts(build_index(gen_cycle(6), 2))
        for name in ("cycle3", "tailed_triangle", "chordal_cycle_cc1",
                     "chordal_cycle_cc2", "tr1", "tr2", "tr3"):
            assert nc.by_name(name) == [0] * 6

    @pytest.mark.parametrize("seed", range(8))
    def test_node_counts_match_oracle_d2(self, seed):
        g = gen_erdos_renyi(16, 0.28, 40 + seed)
        nc = compute_node_counts(build_index(g, 2))
        for name in ALL_MOTIFS:
            assert nc.by_name(name) == oracle.oracle_node_counts(g, name), name

    @pytest.mark.parametrize("seed", range(6))
    def test_node_counts_match_oracle_d3(self, seed):
        g = gen_erdos_renyi(13, 0.3, 80 + seed)
        nc = compute_node_counts(build_index(g, 3))
        for name in supported_motifs(3):
            assert nc.by_name(name) == oracle.oracle_node_counts(g, name), name

    def test_petersen(self):
        nc = compute_node_counts(build_index(gen_petersen(), 3))
        assert nc.cycle5 == [6] * 10
        assert nc.cycle6 == oracle.oracle_node_counts(gen_petersen(), "cycle6")
        assert nc.cycle7 == oracle.oracle_node_counts(gen_petersen(), "cycle7")

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=8))
    def test_full_catalog_matches_oracle_on_arbitrary_graphs(self, g):
        nc = compute_node_counts(build_index(g, 3))
        for name in supported_motifs(3):
            assert nc.by_name(name) == oracle.oracle_node_counts(g, name), name

    def test_cycle7_requires_d3(self):
        nc = compute_node_counts(build_index(gen_cycle(7), 2))
        assert nc.cycle7 is None
        with pytest.raises(CapabilityError):
            nc.by_name("cycle7")

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
            mat = oracle.walk_matrix_power(h, 4)
            assert node_walks(h, 4) == [sum(row) for row in mat]


class TestGraphLevel:
    def test_k4_triangles(self):
        nc = compute_node_counts(build_index(gen_complete(4), 2))
        assert graph_level(nc, "cycle3") == 4

    def test_c6_hexagon(self):
        nc = compute_node_counts(build_index(gen_cycle(6), 2))
        assert graph_level(nc, "cycle6") == 1

    def test_er_five_cycles(self):
        g = gen_erdos_renyi(30, 0.15, 1)
        nc = compute_node_counts(build_index(g, 2))
        assert graph_level(nc, "cycle5") == 211
        assert graph_level(nc, "cycle5") == oracle.oracle_graph_count(g, "cycle5")

    @pytest.mark.parametrize("seed", range(4))
    def test_factors_agree_with_oracle_everywhere(self, seed):
        g = gen_erdos_renyi(14, 0.33, 60 + seed)
        nc = compute_node_counts(build_index(g, 3))
        for name in supported_motifs(3):
            assert graph_level(nc, name) == oracle.oracle_graph_count(g, name), name

    def test_factor_table_covers_catalog(self):
        assert set(supported_motifs(3)) <= set(GRAPH_LEVEL_FACTOR)


class TestReport:
    def test_schema(self):
        g = gen_erdos_renyi(10, 0.3, 0)
        report = counts_to_report(compute_node_counts(build_index(g, 2)))
        assert set(report) == {"n", "substructures"}
        assert report["n"] == 10
        assert set(report["substructures"]) == set(ALL_MOTIFS)
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


class TestInvariants:
    def test_odd_aggregate_raises(self):
        assert _exact_half(4) == 2
        with pytest.raises(InvariantError, match="even aggregate"):
            _exact_half(3)

    def test_checks_survive_optimize_flag(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from drfwl.counting import _exact_half\n"
            "from drfwl.errors import InvariantError\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    _exact_half(3)\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised\n"
