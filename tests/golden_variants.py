"""How the golden corpus refines a graph and writes a colouring.

``scripts/record_golden.py`` writes ``tests/golden/`` with these, and
``tests/test_golden.py`` diffs against it with the same ones, so the two
cannot drift apart.
"""
from __future__ import annotations

import hashlib

from drfwl.graph import Graph
from drfwl.refine import Coloring, drfwl_refine, fwl2_refine, wl1_refine


def refine(g: Graph, method: str, d: int | None, mask: list | None) -> Coloring:
    """The stable colouring of one variant, as the manifest spells it (the
    mask a list of [i, j, k] lists, or None)."""
    if method == "wl1":
        return wl1_refine(g)
    if method == "fwl2":
        return fwl2_refine(g)
    return drfwl_refine(g, d, mask=[tuple(t) for t in mask] if mask else None)


def coloring_line(col: Coloring) -> str:
    """``<iterations> <class counts> <sha256 of the colour ids>``."""
    ids = ",".join(map(str, col.colors)).encode("ascii")
    counts = ",".join(map(str, col.class_counts))
    return f"{col.iterations} {counts} {hashlib.sha256(ids).hexdigest()}"
