"""Self-tests of the benchmark: python3 -m pytest perfbench (from the repo root)."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402

COUNTING_TIMES = [
    "counting.pair_stats_s", "counting.p2_s", "counting.w3_s", "counting.p3_s",
    "counting.p22_s", "counting.p4_s", "counting.w4_s", "counting.motifs_s",
    "counting.split_cycles_s", "counting.tr_s", "counting.report_s",
]
REFINE_METRICS = [
    "refine.pair_s", "refine.index_s", "refine.blocks_s", "refine.keys_s",
    "refine.compress_s", "refine.rounds", "refine.units",
    "refine.units_recomputed", "refine.classes_final",
]
SHARED_METRICS = [
    "graph.parse_s", "graph.nodes", "graph.edges", "tuples.build_index_s",
    "tuples.tuple_count", "tuples.space_ratio", "parallel.threads",
    "cli.main_s", "cli.self_s",
]


@pytest.mark.parametrize("n,r", [(10, 3), (200, 4), (400, 4), (60, 6)])
def test_generator_is_deterministic_and_simple_regular(n, r):
    edges = gen.random_regular(n, r, gen.Stream("t", 7))
    assert edges == gen.random_regular(n, r, gen.Stream("t", 7))
    assert edges != gen.random_regular(n, r, gen.Stream("t", 8))
    assert all(u < v for u, v in edges)
    assert len(set(edges)) == len(edges) == n * r // 2
    assert all(len(nbrs) == r for nbrs in gen.adjacency(n, edges))


def test_distinct_pair_differs_in_cycle_counts():
    first, second, sig_a, sig_b = gen.distinct_pair(200, 4, 3, "t")
    assert sig_a != sig_b
    assert gen.cycle_counts(200, first, 5) == sig_a
    assert gen.cycle_counts(200, second, 5) == sig_b


def test_cycle_counts_on_known_graph():
    # K4 has 4 triangles and 3 four-cycles
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert gen.cycle_counts(4, k4, 4) == (4, 3)


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(run.BENCH_DIR, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(run.SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170,
    )


def test_corrupted_expected_digest_fails(tmp_path):
    root = _checkout(tmp_path)
    expected = root / "perfbench" / "expected.json"
    data = json.loads(expected.read_text())
    data["sha256"]["count-d2"]["0"] = "0" * 64
    expected.write_text(json.dumps(data))
    proc = _bench(root, "--workload", "count-d2", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_counts_mismatch_and_nonzero_exit():
    gate = run.Gate("a" * 64)
    assert gate.check(0, "a" * 64)
    assert not gate.check(0, "b" * 64)
    assert not gate.check(1, "a" * 64)
    assert (gate.attempted, gate.failed) == (3, 2)


def test_without_source_tree_exits_nonzero_without_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _bench(root, "--workload", "count-d2", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_named_spans_fire_on_their_workload(name, tmp_path):
    w = run.WORKLOADS[name]
    inputs = run.write_inputs(w, 0, tmp_path)
    argv = [*run.cli_args(w, inputs), "--threads", "1"]
    _, report = run._probe("spans", argv, tmp_path)
    assert report["exit"] == 0 and report["missing"] == []
    assert report["sha256"] == run.recorded_digest(w, 0)
    metrics = run.layer_metrics(report)
    assert all(metrics[m] > 0 for m in SHARED_METRICS)
    if w.command == "count":
        assert all(metrics[m] > 0 for m in COUNTING_TIMES)
        assert metrics["counting.node_counts_self_s"] > 0
        assert (metrics["counting.cycle7_s"] > 0) == (w.d >= 3)
        assert all(metrics[m] == 0 for m in REFINE_METRICS)
    else:
        assert all(metrics[m] > 0 for m in REFINE_METRICS)
        assert all(metrics[m] == 0 for m in COUNTING_TIMES + ["counting.cycle7_s"])
    _, counts = run._probe("counts", argv, tmp_path)
    assert counts["sha256"] == report["sha256"]
    assert counts["calls"] > 0 and counts["witnesses"] > 0
