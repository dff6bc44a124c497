"""``count`` indexes only as far as its motifs' closed forms read.

Every motif reads pairs at distance 1 or 2, and cycle7 also at 3
(``counting.index_depth``), so a count at any ``--d`` >= 2 builds the
index to that depth and must print what the full ``--d 3`` report prints
for the same motifs.  These tests run the CLI in process: on the golden
graphs and on hypothesis graphs, every allowed motif list at d = 2..6
matches the restricted ``--d 3`` report byte for byte, and wrappers pin
the depth that is built and when the cycle-7 terms run.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import small_graphs
from golden_corpus import GRAPHS, graph_file
from drfwl import cli, counting
from drfwl.counting import check_motifs
from drfwl.graph import gen_random_regular

DEPTHS = range(2, 7)


def count(path: Path, d: int, motifs: tuple[str, ...] | None = None) -> str:
    argv = ["count", "--d", str(d), str(path)]
    if motifs is not None:
        argv += ["--motifs", ",".join(motifs)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue()


def motif_lists(d: int) -> list[tuple[str, ...] | None]:
    """The full catalog (no --motifs), each allowed single motif, and at
    d >= 3 a list that names cycle7 among others."""
    lists: list[tuple[str, ...] | None] = [None, *((name,) for name in check_motifs(d))]
    if d >= 3:
        lists.append(("path2", "cycle7", "cycle3"))
    return lists


def check_against_d3(path: Path) -> None:
    full = json.loads(count(path, 3))
    for d in DEPTHS:
        for motifs in motif_lists(d):
            names = check_motifs(d, motifs)
            want = {"n": full["n"], "substructures": {m: full["substructures"][m] for m in names}}
            assert count(path, d, motifs) == json.dumps(want, indent=2) + "\n", (d, motifs)


@pytest.mark.parametrize("name", GRAPHS)
def test_every_depth_prints_the_d3_report_on_golden_graphs(name):
    check_against_d3(graph_file(name))


@settings(max_examples=15, deadline=None)
@given(small_graphs(max_n=10))
def test_every_depth_prints_the_d3_report_on_hypothesis_graphs(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("depth") / "g.el"
    path.write_text(g.to_edge_list())
    check_against_d3(path)


@pytest.fixture
def regular_file(tmp_path):
    path = tmp_path / "regular.el"
    path.write_text(gen_random_regular(30, 4, 1).to_edge_list())
    return path


@pytest.mark.parametrize(
    "d, motifs, depth, cycle7_calls",
    [
        (6, None, 3, 1),
        (3, None, 3, 1),
        (2, None, 2, 0),
        (3, ("cycle3",), 2, 0),
        (6, ("path4", "cycle6"), 2, 0),
        (4, ("cycle7",), 3, 1),
    ],
)
def test_count_builds_the_depth_its_motifs_read(
    regular_file, monkeypatch, d, motifs, depth, cycle7_calls
):
    built, terms = [], []
    real_build, real_terms = cli.build_index, counting.cycle7_correction_terms

    def build_index(g, d):
        built.append(d)
        return real_build(g, d)

    def cycle7_correction_terms(*args):
        terms.append(args)
        return real_terms(*args)

    monkeypatch.setattr(cli, "build_index", build_index)
    monkeypatch.setattr(counting, "cycle7_correction_terms", cycle7_correction_terms)
    count(regular_file, d, motifs)
    assert built == [depth]
    assert len(terms) == cycle7_calls


@pytest.mark.parametrize("d", DEPTHS)
def test_index_depth_is_3_with_cycle7_and_2_without(d):
    for motifs in motif_lists(d):
        names = check_motifs(d, motifs)
        assert counting.index_depth(names) == (3 if "cycle7" in names else 2) <= d
