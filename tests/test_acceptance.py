"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every check is exact; there are no tolerances.
"""
from __future__ import annotations

import subprocess
import sys

from conftest import child_env, run_child
from graph_helpers import diameter, double_cycle, gen_complete, gen_petersen, permute
from drfwl import oracle
from drfwl.counting import check_motifs, compute_node_counts
from drfwl.graph import SplitMix64, gen_cycle, gen_erdos_renyi
from drfwl.refine import certificate, distinguish, drfwl_refine, fwl2_refine, wl1_refine
from drfwl.tuples import build_index

D2_MOTIFS = check_motifs(2)


def report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def space_bound_holds(g, d) -> bool:
    idx = build_index(g, d)
    return idx.tuple_count <= idx.space_bound()


def test_criterion_1_counting_exactness():
    graphs = [gen_erdos_renyi(30, 0.15, seed) for seed in range(200)]
    graphs += [gen_cycle(n) for n in range(3, 13)]
    graphs += [gen_complete(4), gen_complete(5), gen_petersen()]
    bounds_ok = True
    ok = True
    for g in graphs:
        idx = build_index(g, 2)
        bounds_ok &= idx.tuple_count <= idx.space_bound()
        counts = compute_node_counts(idx)
        for name in D2_MOTIFS:
            if counts.by_name(name) != oracle.oracle_node_counts(g, name):
                ok = False
    report(
        1,
        ok and bounds_ok,
        "node-level counts equal the oracle on 200 ER(30,0.15) graphs "
        "plus C3..C12, K4, K5, Petersen (13 substructures, zero tolerance)",
    )


def test_criterion_2_seven_cycles_at_d3():
    ok = True
    for seed in range(100):
        g = gen_erdos_renyi(24, 0.2, seed)
        idx = build_index(g, 3)
        ok &= idx.tuple_count <= idx.space_bound()
        counts = compute_node_counts(idx)
        ok &= counts.cycle7 == oracle.oracle_node_counts(g, "cycle7")
    report(2, ok, "cycle7 per node equals the oracle on 100 ER(24,0.2) graphs at d=3")


def test_criterion_3_hierarchy_separation():
    ok = True
    for d in (1, 2, 3):
        k = 3 * d + 1
        g, h = double_cycle(k), gen_cycle(2 * k)
        ok &= not distinguish(g, h, "drfwl", d=d)
        ok &= distinguish(g, h, "drfwl", d=d + 1)
        ok &= distinguish(g, h, "fwl2")
        for dd in (d, d + 1):
            ok &= space_bound_holds(g, dd) and space_bound_holds(h, dd)
    report(
        3,
        ok,
        "for d in {1,2,3}: drfwl(d) misses (2xC_{3d+1}, C_{6d+2}), "
        "drfwl(d+1) and fwl2 separate it",
    )


def test_criterion_4_wl1_separation():
    g, h = double_cycle(3), gen_cycle(6)
    ok = not distinguish(g, h, "wl1") and distinguish(g, h, "drfwl", d=1)
    report(4, ok, "wl1 misses (2xC3, C6); drfwl(1) separates it")


def test_criterion_5_negative_counting_capability(tmp_path):
    g, h = double_cycle(7), gen_cycle(14)
    cert_g = certificate(drfwl_refine(g, 2)).serialize()
    cert_h = certificate(drfwl_refine(h, 2)).serialize()
    ok = cert_g == cert_h and not distinguish(g, h, "drfwl", d=2)
    ok &= oracle.oracle_graph_count(g, "cycle7") == 2
    ok &= oracle.oracle_graph_count(h, "cycle7") == 0
    path = tmp_path / "g.el"
    path.write_text(g.to_edge_list())
    argv = ["-m", "drfwl", "count", "--motifs", "cycle7", "--d", "2", str(path)]
    ok &= run_child(*argv, exit_code=None).returncode == 3
    report(
        5,
        ok,
        "drfwl(2) certificates of 2xC7 and C14 coincide though their "
        "7-cycle counts differ (2 vs 0); CLI refuses cycle7 at d=2 with exit 3",
    )


def test_criterion_6_permutation_invariance():
    rng = SplitMix64(2024)
    ok = True
    for trial in range(100):
        n = 8 + trial % 5
        g = gen_erdos_renyi(n, 0.35, 1000 + trial)
        perm = list(range(n))
        rng.shuffle(perm)
        h = permute(g, perm)
        ok &= certificate(wl1_refine(g)) == certificate(wl1_refine(h))
        ok &= certificate(fwl2_refine(g)) == certificate(fwl2_refine(h))
        ok &= certificate(drfwl_refine(g, 2)) == certificate(drfwl_refine(h, 2))
    report(6, ok, "identical certificates on 100 random (graph, permutation) pairs, all methods")


# Counts and certificates of criterion 7's graphs, printed as one line.
DETERMINISM_SCRIPT = """
from drfwl.counting import check_motifs, compute_node_counts
from drfwl.graph import gen_erdos_renyi
from drfwl.refine import certificate, drfwl_refine, fwl2_refine
from drfwl.tuples import build_index

out = []
for seed in range(20):
    g = gen_erdos_renyi(16, 0.3, 3000 + seed)
    counts = compute_node_counts(build_index(g, 2))
    out.append([counts.by_name(name) for name in check_motifs(2)])
    out.append(certificate(drfwl_refine(g, 2)).serialize())
    out.append(certificate(fwl2_refine(g)).serialize())
print(out)
"""


def test_criterion_7_determinism_under_parallelism():
    children = []
    for hash_seed in ("1", "2"):
        children.append(
            subprocess.Popen(
                [sys.executable, "-c", DETERMINISM_SCRIPT],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=child_env(PYTHONHASHSEED=hash_seed),
            )
        )
    results = [child.communicate() for child in children]
    ok = all(child.returncode == 0 for child in children)
    ok &= bool(results[0][0]) and results[0][0] == results[1][0]
    report(
        7,
        ok,
        "counts and certificates of 20 graphs identical in two concurrent "
        "processes with different PYTHONHASHSEED values",
    )


def test_criterion_8_space_bound():
    ok = True
    for seed in range(50):
        g = gen_erdos_renyi(30, 0.15, seed)
        for d in (1, 2, 3):
            ok &= space_bound_holds(g, d)
    for n in range(3, 13):
        ok &= space_bound_holds(gen_cycle(n), 2)
    ok &= space_bound_holds(gen_petersen(), 3)
    ok &= space_bound_holds(gen_complete(5), 2)
    report(8, ok, "tuple count <= n(1 + sum_k degmax^k) across the generated suites")


def test_criterion_9_diameter_collapse():
    def sample(n: int, start_seed: int):
        seed = start_seed
        while seed < start_seed + 200:
            g = gen_erdos_renyi(n, 0.55, seed)
            if 0 <= diameter(g) <= 2:
                return g
            seed += 1
        raise AssertionError("sampler failed to gather a diameter<=2 graph")

    ok = True
    for pair in range(50):
        n = 8 + pair % 9
        g = sample(n, 7000 + 400 * pair)
        h = sample(n, 7200 + 400 * pair)
        fwl = distinguish(g, h, "fwl2")
        dr = distinguish(g, h, "drfwl", d=2)
        ok &= fwl == dr
    report(
        9,
        ok,
        "distinguish(fwl2) == distinguish(drfwl d=2) on 50 connected "
        "diameter<=2 pairs (n <= 16)",
    )
