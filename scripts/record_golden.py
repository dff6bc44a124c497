#!/usr/bin/env python3
"""Record the golden corpus that tests/test_golden.py diffs against.

Writes, under tests/golden/, from the tables in tests/golden_corpus.py:

* ``graphs/<name>.el`` — the edge lists (random 3-, 4- and 5-regular
  graphs, an Erdős–Rényi graph with isolated nodes, the d=2 separation
  pair and a disjoint union of two graphs);
* ``certificates.txt`` — one ``<graph> <variant> <certificate>`` line per
  graph and refinement variant (wl1; drfwl at d=1, 2, 3; drfwl at d=2 with
  mask 2,2,2; dense fwl2);
* ``colorings.txt`` — for the same graphs and variants, the iteration
  count, the per-round class counts and the SHA-256 of the colour ids in
  unit order.  A certificate is only a histogram, so on an asymmetric
  graph (every unit its own class) it cannot see a relabelled colouring;
  these lines can;
* ``outputs/<name>.json`` — the exact stdout of ``count --d 2`` and
  ``count --d 3`` on every graph and ``distinguish`` on every pair.
  ``count`` builds its index only as far as its motifs read, so a deeper
  --d prints the d=3 bytes, which tests/test_golden.py (at d=4) and
  tests/test_count_depth.py (at d=2..6) check on the same graphs; the
  distance-3 and distance-4 branches of the W3 and P22 passes are checked
  in process by tests/test_reference.py.

The corpus pins colour ids and reports byte for byte, so an optimisation
that changes either shows up as a diff.  Re-record only on purpose (a
versioned output change), never to make a failing test pass:

    python3 scripts/record_golden.py
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the test-only helpers

from drfwl.cli import main as cli_main  # noqa: E402
from drfwl.graph import parse_edge_list  # noqa: E402
from drfwl.refine import certificate  # noqa: E402
from golden_corpus import (  # noqa: E402
    GOLDEN,
    GRAPHS,
    OUTPUTS,
    VARIANTS,
    coloring_line,
    graph_file,
    refine,
)


def main() -> int:
    (GOLDEN / "graphs").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "outputs").mkdir(parents=True, exist_ok=True)
    cert_lines, coloring_lines = [], []
    for name, make in GRAPHS.items():
        text = make().to_edge_list()
        graph_file(name).write_text(text, encoding="utf-8")
        g = parse_edge_list(text)
        for variant, spec in VARIANTS.items():
            col = refine(g, **spec)
            cert_lines.append(f"{name} {variant} {certificate(col).serialize()}")
            coloring_lines.append(f"{name} {variant} {coloring_line(col)}")
    (GOLDEN / "certificates.txt").write_text("\n".join(cert_lines) + "\n", encoding="utf-8")
    (GOLDEN / "colorings.txt").write_text("\n".join(coloring_lines) + "\n", encoding="utf-8")

    for key, argv in OUTPUTS.items():
        if cli_main([*argv, "--output", str(GOLDEN / "outputs" / f"{key}.json")]) != 0:
            raise SystemExit(f"drfwl {' '.join(argv)} failed")
    print(f"wrote {len(GRAPHS)} graphs, {len(cert_lines)} certificates, {len(OUTPUTS)} outputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
