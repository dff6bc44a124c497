from __future__ import annotations

import pytest

from reference import admissible_triples
from graph_helpers import double_cycle, gen_complete, gen_rook44, gen_shrikhande, gen_star, permute
from drfwl import refine
from drfwl.errors import CapabilityError
from drfwl.graph import SplitMix64, gen_cycle, gen_erdos_renyi, gen_random_regular
from drfwl.refine import (
    certificate,
    distinguish,
    drfwl_refine,
    fwl2_refine,
    refine_pair,
    wl1_refine,
)
from drfwl.tuples import build_index


def random_permutation(n, seed):
    rng = SplitMix64(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _groups(colorings) -> list[int]:
    """Each graph's group in one lockstep run: the index of the first graph
    with its colour histogram."""
    first: dict = {}
    return [first.setdefault(certificate(c).counts, i) for i, c in enumerate(colorings)]


class TestFWL2:
    def test_size_cap(self, monkeypatch):
        with pytest.raises(CapabilityError):
            fwl2_refine(gen_cycle(refine.FWL2_DENSE_CAP + 1))
        monkeypatch.setattr(refine, "FWL2_DENSE_CAP", 10)
        with pytest.raises(CapabilityError):
            fwl2_refine(gen_cycle(11))
        fwl2_refine(gen_cycle(10))


class TestDRFWL:
    # a bool is not an int here, though True == 1; an entry that is not
    # iterable is no triple, and a mask that is not iterable holds none
    @pytest.mark.parametrize(
        "mask, line",
        [
            ([(0, 0, 2)], "invalid mask triple (0, 0, 2) for d=2"),
            ([(3, 0, 0)], "invalid mask triple (3, 0, 0) for d=2"),
            ([(True, 1, 0)], "invalid mask triple (True, 1, 0) for d=2"),
            ([5], "invalid mask triple 5 for d=2"),
            ([None], "invalid mask triple None for d=2"),
            (5, "mask must be an iterable of (i, j, k) triples, not 5"),
        ],
        ids=["[(0, 0, 2)]", "[(3, 0, 0)]", "[(True, 1, 0)]", "[5]", "[None]", "5"],
    )
    def test_invalid_mask_rejected(self, mask, line):
        with pytest.raises(ValueError) as refused:
            drfwl_refine(gen_cycle(6), 2, mask=mask)
        assert str(refused.value) == line

    @pytest.mark.parametrize("method", ["wl1", "fwl2"])
    @pytest.mark.parametrize("mask", ["junk", [(1, 1, 1)], []])
    def test_mask_refused_for_other_methods(self, method, mask):
        # a mask drops d-DRFWL(2) witnesses; wl1 and fwl2 have none to drop
        g1, g2 = double_cycle(3), gen_cycle(6)
        with pytest.raises(ValueError, match="mask applies to method 'drfwl' only"):
            refine_pair(g1, g2, method, mask=mask)
        with pytest.raises(ValueError, match="mask applies to method 'drfwl' only"):
            distinguish(g1, g2, method, mask=mask)

    def test_mask_is_read_once(self):
        # check_request reads the mask once; a one-shot iterator masks the same
        g1, g2 = double_cycle(3), gen_cycle(6)
        listed = refine_pair(g1, g2, "drfwl", mask=[(1, 1, 1), (2, 2, 2)])
        assert refine_pair(g1, g2, "drfwl", mask=iter([(1, 1, 1), (2, 2, 2)])) == listed
        assert refine.check_request("drfwl", 2, iter([(1, 1, 1), (1, 1, 1)])) == {(1, 1, 1)}

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
        units = sum(len(build_index(g, 2).ks) for g in (g1, g2))
        assert verdict.distinguished and len(built) < verdict.iterations
        assert built[0] == units
        assert sum(built) < 0.7 * units * verdict.iterations

    def test_settled_units_are_never_sorted(self, monkeypatch):
        # a round sorts the codes of the live units handed to parallel_map
        # and of no other unit; _compress's one sort per ranking is left out,
        # and _refine_multi skips refine_pair's histogram sorts
        sorts, rankings, live = [0], [0], [0]
        plain_map, plain_compress = refine.parallel_map, refine._compress

        def counting_sorted(items):
            sorts[0] += 1
            return sorted(items)

        def counting_compress(keys):
            rankings[0] += 1
            return plain_compress(keys)

        def counting_map(fn, items):
            live[0] += len(items)
            return plain_map(fn, items)

        monkeypatch.setattr(refine, "sorted", counting_sorted, raising=False)
        monkeypatch.setattr(refine, "_compress", counting_compress)
        monkeypatch.setattr(refine, "parallel_map", counting_map)
        g1, g2 = gen_random_regular(150, 4, 11), gen_random_regular(150, 4, 12)
        refine._refine_multi([g1, g2], "drfwl", 2)
        assert sorts[0] - rankings[0] == live[0] == 13_091

    @pytest.mark.parametrize("method", ["wl1", "fwl2", "drfwl"])
    @pytest.mark.parametrize("d", [0, -5, "junk", 2.5, True], ids=repr)
    def test_d_refused_for_every_method(self, monkeypatch, method, d):
        # wl1 and fwl2 do not read d, but an invalid one is still refused,
        # before the first work: building a method's witness table or index
        def no_work(*args):
            raise AssertionError("refined with an invalid d")

        monkeypatch.setattr(refine, "witness_table", no_work)
        monkeypatch.setattr(refine, "build_index", no_work)
        c6 = gen_cycle(6)
        with pytest.raises(ValueError, match="d must be an int >= 1"):
            refine_pair(c6, c6, method, d=d)
        with pytest.raises(ValueError, match="d must be an int >= 1"):
            distinguish(c6, c6, method, d=d)
        if method == "drfwl":
            with pytest.raises(ValueError, match="d must be an int >= 1"):
                drfwl_refine(c6, d)

    @pytest.mark.parametrize("method", ["wl1", "fwl2", "drfwl"])
    def test_one_coloring_per_graph_names_d_under_drfwl_only(self, method):
        gs = [gen_cycle(6), double_cycle(3), gen_cycle(5)]
        colorings = refine._refine_multi(gs, method, 3)
        d = 3 if method == "drfwl" else None
        assert [(c.method, c.d) for c in colorings] == [(method, d)] * 3
        assert refine_pair(gs[0], gs[1], method, d=3).d == d


class TestCertificates:
    # each row a colouring known by hand, as the certificate that states it
    @pytest.mark.parametrize(
        "make, g, line",
        [
            (lambda g: drfwl_refine(g, 2), gen_cycle(6), "certv2;drfwl;2;0:6,1:12,2:12"),
            (wl1_refine, gen_cycle(6), "certv2;wl1;-;0:6"),
            (wl1_refine, gen_star(3), "certv2;wl1;-;0:3,1:1"),
            (fwl2_refine, gen_cycle(4), "certv2;fwl2;-;0:4,1:8,2:4"),
            (fwl2_refine, gen_complete(4), "certv2;fwl2;-;0:4,1:12"),
        ],
        ids=["C6-drfwl-d2", "C6-wl1", "star3-wl1", "C4-fwl2", "K4-fwl2"],
    )
    def test_golden_serializations(self, make, g, line):
        assert certificate(make(g)).serialize() == line


class TestDistinguishProperties:
    @pytest.mark.parametrize("method", ["wl1", "fwl2", "drfwl"])
    def test_identical_inputs(self, method):
        # the graph against itself and against a relabelled copy
        g = gen_erdos_renyi(12, 0.3, 7)
        h = permute(g, random_permutation(12, 1))
        assert not distinguish(g, g, method)
        assert not distinguish(g, h, method)

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

    def test_hierarchy_as_partitions_of_a_pool(self):
        # the paper's chain wl1 -> drfwl d=1 -> d=2 -> d=3 -> fwl2, checked on
        # whole groupings: one lockstep run per method groups 76 graphs by
        # colour histogram, and each grouping refines the one before it
        pool = [gen_random_regular(n, 3, s) for n in (10, 12) for s in range(12)]
        pool += [gen_random_regular(12, 4, s) for s in range(12)]
        chain = [("wl1", 2), ("drfwl", 1), ("drfwl", 2), ("drfwl", 3), ("fwl2", 2)]
        first_split = {}  # the pool index of a pair's first graph -> its first splitting step
        # 2 x C(3d+1) against C(6d+2) shares a group up to drfwl at its own d
        for d in (1, 2, 3):
            first_split[len(pool)] = d + 1
            pool += [double_cycle(3 * d + 1), gen_cycle(6 * d + 2)]
        # the rook's 4x4 graph against the Shrikhande graph: the same strongly
        # regular parameters (16,6,2,2), which fwl2 provably cannot separate,
        # so no weaker method may either
        first_split[len(pool)] = len(chain)
        pool += [gen_rook44(), gen_shrikhande()]
        # sampled pairs of random graphs, split wherever their grouping says
        sampled = len(pool)
        pool += [gen_erdos_renyi(9, 0.35, s) for s in (*range(16), *range(100, 116))]
        first_split.update(dict.fromkeys(range(sampled, len(pool), 2)))
        groupings = [_groups(refine._refine_multi(pool, method, d)) for method, d in chain]
        assert [len(set(g)) for g in groupings] == [39, 65, 68, 69, 70]
        for coarse, fine in zip(groupings, groupings[1:]):
            assert len(set(zip(fine, coarse))) == len(set(fine))
        # refine_pair agrees with the groupings on every pair
        for i, first in first_split.items():
            for step, ((method, at), grouping) in enumerate(zip(chain, groupings)):
                split = grouping[i] != grouping[i + 1]
                if first is not None:
                    assert split == (step >= first), (i, method, at)
                assert refine_pair(pool[i], pool[i + 1], method, d=at).distinguished == split
