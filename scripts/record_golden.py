#!/usr/bin/env python3
"""Record the golden corpus that tests/test_golden.py diffs against.

Writes, under tests/golden/:

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
  in process by tests/test_reference.py;
* ``manifest.json`` — the CLI arguments behind each output file.

The variant dispatch and the colouring line come from
tests/golden_variants.py, which tests/test_golden.py also reads.  The
corpus pins colour ids and reports byte for byte, so an optimisation that
changes either shows up as a diff.  Re-record only on purpose (a
versioned output change), never to make a failing test pass:

    python3 scripts/record_golden.py
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the test-only helpers

from drfwl.cli import main as cli_main  # noqa: E402
from drfwl.graph import (  # noqa: E402
    Graph,
    gen_cycle,
    gen_disjoint_union,
    gen_erdos_renyi,
    gen_random_regular,
    parse_edge_list,
)
from drfwl.refine import certificate  # noqa: E402
from golden_variants import coloring_line, refine  # noqa: E402
from graph_helpers import gen_petersen  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def _er_with_isolated() -> Graph:
    g = gen_erdos_renyi(60, 0.04, 4)
    if min(g.degrees()) != 0:
        raise SystemExit("the Erdős–Rényi golden graph must have isolated nodes")
    return g


GRAPHS = {
    "regular3-n60": lambda: gen_random_regular(60, 3, 1),
    "regular4-n50": lambda: gen_random_regular(50, 4, 2),
    "regular4-n50-b": lambda: gen_random_regular(50, 4, 6),
    "regular5-n40": lambda: gen_random_regular(40, 5, 3),
    "er-n60-isolated": _er_with_isolated,
    "sep-d2-two-c7": lambda: gen_disjoint_union([gen_cycle(7), gen_cycle(7)]),
    "sep-d2-c14": lambda: gen_cycle(14),
    "union-petersen-regular3": lambda: gen_disjoint_union(
        [gen_petersen(), gen_random_regular(20, 3, 5)]
    ),
}

# variant -> refinement method, d and mask
VARIANTS = {
    "wl1": {"method": "wl1", "d": None, "mask": None},
    "drfwl-d1": {"method": "drfwl", "d": 1, "mask": None},
    "drfwl-d2": {"method": "drfwl", "d": 2, "mask": None},
    "drfwl-d3": {"method": "drfwl", "d": 3, "mask": None},
    "drfwl-d2-mask222": {"method": "drfwl", "d": 2, "mask": [[2, 2, 2]]},
    "fwl2": {"method": "fwl2", "d": None, "mask": None},
}

PAIRS = {
    "separation-d2": ("sep-d2-two-c7", "sep-d2-c14"),
    "regular4-n50": ("regular4-n50", "regular4-n50-b"),
}


def _flags(method: str, d: int | None, mask: list | None) -> list[str]:
    flags = ["--method", method]
    if d is not None:
        flags += ["--d", str(d)]
    if mask:
        flags += ["--mask", " ".join(",".join(map(str, t)) for t in mask)]
    return flags


def _graph_path(name: str) -> str:
    return f"graphs/{name}.el"


def _stdout_of(argv: list[str]) -> str:
    """The CLI's stdout for argv, with paths relative to the golden dir."""
    resolved = [str(GOLDEN / a) if a.startswith("graphs/") else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(resolved)
    if code != 0:
        raise SystemExit(f"drfwl {' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> int:
    (GOLDEN / "graphs").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "outputs").mkdir(parents=True, exist_ok=True)
    graphs = {}
    for name, make in GRAPHS.items():
        g = make()
        text = g.to_edge_list()
        (GOLDEN / _graph_path(name)).write_text(text, encoding="utf-8")
        graphs[name] = parse_edge_list(text)

    cert_lines, coloring_lines = [], []
    for name, g in graphs.items():
        for variant, spec in VARIANTS.items():
            col = refine(g, **spec)
            cert_lines.append(f"{name} {variant} {certificate(col).serialize()}")
            coloring_lines.append(f"{name} {variant} {coloring_line(col)}")
    (GOLDEN / "certificates.txt").write_text("\n".join(cert_lines) + "\n", encoding="utf-8")
    (GOLDEN / "colorings.txt").write_text("\n".join(coloring_lines) + "\n", encoding="utf-8")

    outputs = {}
    for name in graphs:
        for d in (2, 3):
            outputs[f"count-{name}-d{d}"] = ["count", "--d", str(d), _graph_path(name)]
    for pair, (a, b) in PAIRS.items():
        for variant, spec in VARIANTS.items():
            outputs[f"distinguish-{pair}-{variant}"] = [
                "distinguish", *_flags(**spec), _graph_path(a), _graph_path(b)
            ]
    for key, argv in outputs.items():
        (GOLDEN / "outputs" / f"{key}.json").write_text(_stdout_of(argv), encoding="utf-8")

    manifest = {"graphs": sorted(graphs), "variants": VARIANTS, "outputs": outputs}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(graphs)} graphs, {len(cert_lines)} certificates, {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
