"""Byte-for-byte diff against the golden corpus in tests/golden/.

The corpus was recorded by scripts/record_golden.py from the tables in
tests/golden_corpus.py.  These tests only read it; a mismatch means an
output changed, which is a bug unless the change is versioned on purpose.
"""
from __future__ import annotations

import pytest

from golden_corpus import GOLDEN, GRAPHS, OUTPUTS, VARIANTS, coloring_line, graph_file, refine
from drfwl.cli import main
from drfwl.graph import parse_edge_list
from drfwl.refine import certificate


def _lines(name: str) -> dict[tuple[str, str], str]:
    out = {}
    for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines():
        graph, variant, rest = line.split(" ", 2)
        out[(graph, variant)] = rest
    return out


def _refine(graph: str, variant: str):
    return refine(parse_edge_list(graph_file(graph).read_bytes()), **VARIANTS[variant])


CERTIFICATES = _lines("certificates.txt")
COLORINGS = _lines("colorings.txt")


def test_corpus_is_complete():
    expected = {(g, v) for g in GRAPHS for v in VARIANTS}
    assert set(CERTIFICATES) == set(COLORINGS) == expected
    assert len(GRAPHS) >= 6
    # exactly the tables' files: an entry dropped from a table leaves none behind
    files = {p for p in GOLDEN.rglob("*") if p.is_file()}
    tabled = {GOLDEN / "certificates.txt", GOLDEN / "colorings.txt"}
    tabled |= {graph_file(g) for g in GRAPHS} | {GOLDEN / "outputs" / f"{k}.json" for k in OUTPUTS}
    assert files == tabled
    assert len(files) == 38


@pytest.mark.parametrize("graph", GRAPHS)
def test_generator_gives_the_stored_edge_list(graph):
    assert GRAPHS[graph]().to_edge_list().encode() == graph_file(graph).read_bytes()


@pytest.mark.parametrize("graph,variant", sorted(CERTIFICATES))
def test_certificate_and_coloring(graph, variant):
    col = _refine(graph, variant)
    assert certificate(col).serialize() == CERTIFICATES[(graph, variant)]
    assert coloring_line(col) == COLORINGS[(graph, variant)]


# Each recorded output under its own name, and ``count --d 4`` on every
# graph: count indexes only as far as its motifs read, so d=4 must print
# the recorded d=3 bytes, which are not stored twice.
CLI_CASES = {key: (argv, key) for key, argv in OUTPUTS.items()}
for _graph in GRAPHS:
    CLI_CASES[f"count-{_graph}-d4"] = (
        ["count", "--d", "4", str(graph_file(_graph))],
        f"count-{_graph}-d3",
    )


@pytest.mark.parametrize("key", sorted(CLI_CASES))
def test_cli_output(key, tmp_path):
    argv, expected = CLI_CASES[key]
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "outputs" / f"{expected}.json").read_bytes()


@pytest.mark.parametrize("graph", GRAPHS)
def test_oracle_default_report_is_the_count_report_at_d3(graph, tmp_path):
    # the brute-force report, with no --motifs, byte for byte
    out = tmp_path / "out.json"
    assert main(["oracle", str(graph_file(graph)), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "outputs" / f"count-{graph}-d3.json").read_bytes()
