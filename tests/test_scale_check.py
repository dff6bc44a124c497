"""``scripts/scale_check.py`` still runs against the counting API it names."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import run_child
from drfwl.graph import gen_random_regular
from drfwl.tuples import build_index

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("n, r, d", [(60, 4, 2), (40, 4, 3)])
def test_child_reports_one_point(n, r, d):
    script = ROOT / "scripts" / "scale_check.py"
    res = json.loads(run_child(str(script), "--child", str(n), str(r), str(d)).stdout)
    assert set(res) == {
        "tuples", "pair_stats_s", "node_counts_s", "node_counts_peak_mb", "maxrss_mb"
    }
    assert res["node_counts_peak_mb"] > 0
    assert res["tuples"] == build_index(gen_random_regular(n, r, 0), d).tuple_count
