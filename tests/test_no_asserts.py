"""The package checks its invariants with errors that always raise.

``python -O`` strips ``assert`` statements, so an invariant checked by one
would go unchecked there.  These tests parse every module of the package
with ``ast`` and fail on any ``assert``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "drfwl").glob("*.py"))


def test_every_module_is_checked():
    assert {"cli.py", "counting.py", "refine.py", "tuples.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}; raise InvariantError instead"
