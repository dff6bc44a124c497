from __future__ import annotations

import os
from pathlib import Path

import hypothesis.strategies as st

from drfwl.graph import Graph

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def child_env(**extra: str) -> dict[str, str]:
    """The environment for a child Python that imports the package from
    this checkout: this process's, with src/ first on PYTHONPATH and
    ``extra`` set on top."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


@st.composite
def small_graphs(draw, max_n: int = 8) -> Graph:
    """Random simple graphs with up to max_n nodes, hypothesis-shrinkable."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph.from_edges(n, picks)
