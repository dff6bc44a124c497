from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from reference import admissible_triples
from drfwl import refine
from drfwl.errors import CapabilityError
from drfwl.graph import (
    SplitMix64,
    gen_complete,
    gen_cycle,
    gen_disjoint_union,
    gen_erdos_renyi,
    gen_random_regular,
    gen_star,
    permute,
)
from drfwl.refine import (
    certificate,
    distinguish,
    drfwl_refine,
    fwl2_refine,
    refine_pair,
    wl1_refine,
)
from drfwl.tuples import build_index


def double_cycle(k):
    return gen_disjoint_union([gen_cycle(k), gen_cycle(k)])


def random_permutation(n, seed):
    rng = SplitMix64(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class TestWL1:
    def test_vertex_transitive_cycle(self):
        col = wl1_refine(gen_cycle(6))
        assert len(set(col.colors)) == 1

    def test_star_two_classes(self):
        col = wl1_refine(gen_star(3))
        assert len(set(col.colors)) == 2
        assert col.colors[1] == col.colors[2] == col.colors[3] != col.colors[0]

    def test_blind_to_triangle_pair(self):
        assert not distinguish(double_cycle(3), gen_cycle(6), "wl1")

    def test_path_graph_classes(self):
        col = wl1_refine(gen_cycle(6))
        assert col.iterations >= 1


class TestFWL2:
    def test_separates_cycle_pairs(self):
        assert distinguish(double_cycle(7), gen_cycle(14), "fwl2")

    def test_k4_off_diagonal_single_class(self):
        col = fwl2_refine(gen_complete(4))
        off = {col.colors[u * 4 + v] for u in range(4) for v in range(4) if u != v}
        assert len(off) == 1

    def test_size_cap(self, monkeypatch):
        with pytest.raises(CapabilityError):
            fwl2_refine(gen_cycle(refine.FWL2_DENSE_CAP + 1))
        monkeypatch.setattr(refine, "FWL2_DENSE_CAP", 10)
        with pytest.raises(CapabilityError):
            fwl2_refine(gen_cycle(11))
        fwl2_refine(gen_cycle(10))

    def test_permuted_copy_equal(self):
        g = gen_erdos_renyi(10, 0.4, 3)
        h = permute(g, random_permutation(10, 1))
        assert not distinguish(g, h, "fwl2")


class TestDRFWL:
    def test_d1_sees_triangles(self):
        assert distinguish(double_cycle(3), gen_cycle(6), "drfwl", d=1)

    def test_d2_blind_at_its_horizon(self):
        assert not distinguish(double_cycle(7), gen_cycle(14), "drfwl", d=2)

    def test_d3_separates_same_pair(self):
        assert distinguish(double_cycle(7), gen_cycle(14), "drfwl", d=3)

    def test_initial_color_is_distance(self):
        # one refinement class per distance at iteration zero implies the
        # stable class count is at least d+1 on a long path
        col = drfwl_refine(gen_cycle(12), 2)
        assert len(set(col.colors)) >= 3

    def test_invalid_mask_rejected(self):
        with pytest.raises(ValueError):
            drfwl_refine(gen_cycle(6), 2, mask=[(0, 0, 2)])
        with pytest.raises(ValueError):
            drfwl_refine(gen_cycle(6), 2, mask=[(3, 0, 0)])
        with pytest.raises(ValueError):  # a bool is not an int here, though True == 1
            drfwl_refine(gen_cycle(6), 2, mask=[(True, 1, 0)])

    def test_admissible_triples_obey_triangle_inequality(self):
        for i, j, k in admissible_triples(3):
            assert abs(i - j) <= k <= i + j

    def test_full_mask_degenerates_to_distance_count(self):
        g = gen_erdos_renyi(12, 0.3, 5)
        col = drfwl_refine(g, 2, mask=admissible_triples(2))
        assert len(set(col.colors)) == 3  # nothing but d(u,v) survives

    def test_masked_test_still_separates_triangles(self):
        # dropping the (2,2,2) channel keeps triangle awareness intact
        assert distinguish(
            double_cycle(3), gen_cycle(6), "drfwl", d=2, mask=[(2, 2, 2)]
        )

    def test_rounds_skip_settled_units(self, monkeypatch):
        # a unit alone in its class builds no key, and the discrete last
        # round builds none at all
        built = []
        plain = refine.parallel_map

        def recording(fn, items):
            built.append(len(items))
            return plain(fn, items)

        monkeypatch.setattr(refine, "parallel_map", recording)
        g1, g2 = gen_random_regular(150, 4, 11), gen_random_regular(150, 4, 12)
        verdict = refine_pair(g1, g2, "drfwl", d=2)
        units = sum(len(build_index(g, 2).pairs) for g in (g1, g2))
        assert verdict.distinguished and len(built) < verdict.iterations
        assert built[0] == units
        assert sum(built) < 0.7 * units * verdict.iterations


class TestCertificates:
    def test_serialization_shape(self):
        cert = certificate(drfwl_refine(gen_cycle(6), 2))
        text = cert.serialize()
        assert text.startswith("certv2;drfwl;2;")
        assert all(":" in part for part in text.split(";")[3].split(","))

    def test_golden_serializations(self):
        assert certificate(drfwl_refine(gen_cycle(6), 2)).serialize() == (
            "certv2;drfwl;2;0:6,1:12,2:12"
        )
        assert certificate(wl1_refine(gen_star(3))).serialize() == "certv2;wl1;-;0:3,1:1"
        assert certificate(fwl2_refine(gen_cycle(4))).serialize() == (
            "certv2;fwl2;-;0:4,1:8,2:4"
        )

    def test_certificate_counts_total(self):
        col = drfwl_refine(gen_cycle(6), 2)
        cert = certificate(col)
        assert sum(k for _, k in cert.counts) == len(col.colors)

    def test_indistinguishable_family_equal_certs(self):
        a = certificate(drfwl_refine(double_cycle(7), 2)).serialize()
        b = certificate(drfwl_refine(gen_cycle(14), 2)).serialize()
        assert a == b

    @settings(max_examples=20)
    @given(small_graphs(max_n=7))
    def test_permutation_invariance_all_methods(self, g):
        perm = list(reversed(range(g.n)))
        h = permute(g, perm)
        for make in (
            wl1_refine,
            fwl2_refine,
            lambda x: drfwl_refine(x, 2),
        ):
            assert certificate(make(g)) == certificate(make(h))


class TestDistinguishProperties:
    def test_identical_inputs(self):
        g = gen_erdos_renyi(12, 0.3, 7)
        for method, kw in (("wl1", {}), ("fwl2", {}), ("drfwl", {"d": 2})):
            assert not distinguish(g, g, method, **kw)

    def test_verdict_payload(self):
        v = refine_pair(double_cycle(3), gen_cycle(6), "drfwl", d=1)
        assert v.distinguished
        assert v.iterations >= 1
        assert v.histogram_a != v.histogram_b

    def test_monotone_class_counts(self):
        # class counts strictly increase until the confirming round
        for make in (
            wl1_refine,
            fwl2_refine,
            lambda x: drfwl_refine(x, 2),
        ):
            for seed in range(5):
                col = make(gen_erdos_renyi(12, 0.3, 30 + seed))
                h = col.class_counts
                assert h[-1] == h[-2]
                assert all(a < b for a, b in zip(h, h[1:-1]))
                assert len(set(col.colors)) == h[-1]

    def test_wl1_dominance_sampled(self):
        pool = [gen_erdos_renyi(9, 0.35, s) for s in range(16)]
        for i in range(0, len(pool) - 1, 2):
            g1, g2 = pool[i], pool[i + 1]
            if distinguish(g1, g2, "wl1"):
                for d in (1, 2, 3):
                    assert distinguish(g1, g2, "drfwl", d=d)

    def test_hierarchy_sampled(self):
        pool = [gen_erdos_renyi(9, 0.35, 100 + s) for s in range(16)]
        for i in range(0, len(pool) - 1, 2):
            g1, g2 = pool[i], pool[i + 1]
            for d in (1, 2):
                if distinguish(g1, g2, "drfwl", d=d):
                    assert distinguish(g1, g2, "drfwl", d=d + 1)
                    assert distinguish(g1, g2, "fwl2")

    def test_empty_graphs(self):
        from drfwl.graph import Graph

        empty = Graph.from_edges(0, [])
        assert not distinguish(empty, empty, "wl1")

    def test_strongly_regular_pair_defeats_every_method(self):
        # rook's 4x4 graph vs the Shrikhande graph: non-isomorphic, same
        # strongly-regular parameters (16,6,2,2).  The dense 2-tuple test
        # provably cannot separate them, so the weaker tests must not
        # either; a refinement that "distinguished" here would be broken.
        from drfwl.graph import Graph

        def rook44():
            edges = []
            for i in range(4):
                for j in range(4):
                    for jj in range(j + 1, 4):
                        edges.append((4 * i + j, 4 * i + jj))
                        edges.append((4 * j + i, 4 * jj + i))
            return Graph.from_edges(16, edges)

        def shrikhande():
            conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
            edges = set()
            for x in range(4):
                for y in range(4):
                    for dx, dy in conn:
                        a = 4 * x + y
                        b = 4 * ((x + dx) % 4) + (y + dy) % 4
                        edges.add((min(a, b), max(a, b)))
            return Graph.from_edges(16, sorted(edges))

        r, s = rook44(), shrikhande()
        assert not distinguish(r, s, "wl1")
        assert not distinguish(r, s, "drfwl", d=2)
        assert not distinguish(r, s, "drfwl", d=3)
        assert not distinguish(r, s, "fwl2")
