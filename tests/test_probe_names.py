"""The package keeps every name that the benchmark probe wraps.

perfbench/probe.py times and counts the package by replacing the module
attributes listed in its ``TIMED`` and ``COUNTED`` tables; a name that is
gone turns into a missing per-layer metric, not an error.  These tests read
the two tables from the probe's source with ``ast``, without importing the
probe, and require every (module, attribute) to exist.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def _tables() -> dict[str, tuple]:
    tables = {}
    for node in ast.parse(PROBE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TIMED", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()
NAMES = sorted({(entry[0], entry[1]) for table in TABLES.values() for entry in table})


def test_probe_declares_both_tables():
    assert sorted(TABLES) == ["COUNTED", "TIMED"]
    assert all(TABLES.values())


@pytest.mark.parametrize("module,attr", NAMES)
def test_probe_name_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)
