from __future__ import annotations

import os
import subprocess
import sys
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


def run_child(
    *argv: str, exit_code: int | None = 0, env: dict[str, str] | None = None, preexec_fn=None
) -> subprocess.CompletedProcess:
    """Run ``python *argv`` to its end in ``env`` (default ``child_env()``),
    with text stdout and stderr captured.  Raises RuntimeError, carrying
    the child's stderr, unless it exits with ``exit_code`` (None takes any)."""
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=child_env() if env is None else env,
        preexec_fn=preexec_fn,
    )
    if exit_code is not None and proc.returncode != exit_code:
        raise RuntimeError(f"python {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


@st.composite
def small_graphs(draw, max_n: int = 8) -> Graph:
    """Random simple graphs with up to max_n nodes, hypothesis-shrinkable."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph.from_edges(n, picks)
