"""The golden corpus: its graphs, its refinement variants and its outputs.

``scripts/record_golden.py`` writes ``tests/golden/`` from these tables,
and ``tests/test_golden.py`` and the tests that run on the golden graphs
read the same ones, so the recording and its readers cannot drift apart.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

from drfwl.graph import Graph, gen_cycle, gen_disjoint_union, gen_erdos_renyi, gen_random_regular
from drfwl.refine import Coloring, drfwl_refine, fwl2_refine, wl1_refine
from graph_helpers import double_cycle, gen_petersen

GOLDEN = Path(__file__).resolve().parent / "golden"


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
    "sep-d2-two-c7": lambda: double_cycle(7),
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
    "drfwl-d2-mask222": {"method": "drfwl", "d": 2, "mask": [(2, 2, 2)]},
    "fwl2": {"method": "fwl2", "d": None, "mask": None},
}

PAIRS = {
    "separation-d2": ("sep-d2-two-c7", "sep-d2-c14"),
    "regular4-n50": ("regular4-n50", "regular4-n50-b"),
}


def graph_file(name: str) -> Path:
    """The golden graph ``name``'s edge list."""
    return GOLDEN / "graphs" / f"{name}.el"


def _flags(method: str, d: int | None, mask: list | None) -> list[str]:
    flags = ["--method", method]
    if d is not None:
        flags += ["--d", str(d)]
    if mask:
        flags += ["--mask", " ".join(",".join(map(str, t)) for t in mask)]
    return flags


# output name -> the CLI arguments whose stdout is outputs/<name>.json
OUTPUTS = {
    f"count-{name}-d{d}": ["count", "--d", str(d), str(graph_file(name))]
    for name in GRAPHS
    for d in (2, 3)
}
OUTPUTS.update(
    (
        f"distinguish-{pair}-{variant}",
        ["distinguish", *_flags(**spec), str(graph_file(a)), str(graph_file(b))],
    )
    for pair, (a, b) in PAIRS.items()
    for variant, spec in VARIANTS.items()
)


def refine(g: Graph, method: str, d: int | None, mask: list | None) -> Coloring:
    """The stable colouring of one variant."""
    if method == "wl1":
        return wl1_refine(g)
    if method == "fwl2":
        return fwl2_refine(g)
    return drfwl_refine(g, d, mask=mask)


def coloring_line(col: Coloring) -> str:
    """``<iterations> <class counts> <sha256 of the colour ids>``."""
    ids = ",".join(map(str, col.colors)).encode("ascii")
    counts = ",".join(map(str, col.class_counts))
    return f"{col.iterations} {counts} {hashlib.sha256(ids).hexdigest()}"
