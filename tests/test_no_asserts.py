"""The package and the test helpers check invariants with errors that always raise.

``python -O`` strips ``assert`` statements, so an invariant checked by one
would go unchecked there.  These tests parse every module of the package,
and every helper module under ``tests/`` (the references and oracles the
tests compare against), with ``ast`` and fail on any ``assert``.  Pytest
rewrites the asserts of ``test_*.py`` and ``conftest.py`` only; an assert
in a helper is stripped under ``-O`` without notice.  ``conftest.py`` is
checked too: it holds helpers that the tests share (the child runner among
them), not tests.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "drfwl").glob("*.py"))
HELPERS = sorted(p for p in (ROOT / "tests").glob("*.py") if not p.name.startswith("test_"))
MODULES = PACKAGE + HELPERS


def test_every_module_is_checked():
    assert {"cli.py", "counting.py", "refine.py", "tuples.py"} <= {p.name for p in PACKAGE}
    assert {"conftest.py", "graph_helpers.py", "pair_oracle.py", "reference.py"} <= {
        p.name for p in HELPERS
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}; raise an error instead"
