"""Byte-for-byte diff against the golden corpus in tests/golden/.

The corpus was recorded by scripts/record_golden.py.  These tests only
read it; a mismatch means an output changed, which is a bug unless the
change is versioned on purpose.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from golden_variants import coloring_line, refine
from drfwl.cli import main
from drfwl.graph import parse_edge_list
from drfwl.refine import certificate

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def _lines(name: str) -> dict[tuple[str, str], str]:
    out = {}
    for line in (GOLDEN / name).read_text(encoding="utf-8").splitlines():
        graph, variant, rest = line.split(" ", 2)
        out[(graph, variant)] = rest
    return out


def _refine(graph: str, variant: str):
    g = parse_edge_list((GOLDEN / "graphs" / f"{graph}.el").read_bytes())
    return refine(g, **MANIFEST["variants"][variant])


CERTIFICATES = _lines("certificates.txt")
COLORINGS = _lines("colorings.txt")


def test_corpus_is_complete():
    expected = {(g, v) for g in MANIFEST["graphs"] for v in MANIFEST["variants"]}
    assert set(CERTIFICATES) == set(COLORINGS) == expected
    assert len(MANIFEST["graphs"]) >= 6
    for key in MANIFEST["outputs"]:
        assert (GOLDEN / "outputs" / f"{key}.json").is_file()


@pytest.mark.parametrize("graph,variant", sorted(CERTIFICATES))
def test_certificate_and_coloring(graph, variant):
    col = _refine(graph, variant)
    assert certificate(col).serialize() == CERTIFICATES[(graph, variant)]
    assert coloring_line(col) == COLORINGS[(graph, variant)]


# Each recorded output under its own name, and ``count --d 4`` on every
# graph: count indexes only as far as its motifs read, so d=4 must print
# the recorded d=3 bytes, which are not stored twice.
CLI_CASES = {key: (argv, key) for key, argv in MANIFEST["outputs"].items()}
for _graph in MANIFEST["graphs"]:
    CLI_CASES[f"count-{_graph}-d4"] = (
        ["count", "--d", "4", f"graphs/{_graph}.el"],
        f"count-{_graph}-d3",
    )


@pytest.mark.parametrize("key", sorted(CLI_CASES))
def test_cli_output(key, tmp_path):
    args, expected = CLI_CASES[key]
    argv = [str(GOLDEN / a) if a.startswith("graphs/") else a for a in args]
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "outputs" / f"{expected}.json").read_bytes()


@pytest.mark.parametrize("graph", MANIFEST["graphs"])
def test_oracle_default_report_is_the_count_report_at_d3(graph, tmp_path):
    # the brute-force report, with no --motifs, byte for byte
    out = tmp_path / "out.json"
    assert main(["oracle", str(GOLDEN / "graphs" / f"{graph}.el"), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "outputs" / f"count-{graph}-d3.json").read_bytes()
