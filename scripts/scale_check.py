#!/usr/bin/env python3
"""Time the counting pipeline at two larger sizes, one child process each.

    python3 scripts/scale_check.py [--src DIR]

For random 4-regular graphs (seed 0) at n=2000 d=2 and n=1000 d=3, a fresh
interpreter builds the index once, then runs ``compute_pair_stats`` and
``compute_node_counts`` five times each; the second computes the pair
statistics itself, so its time covers the whole counting pipeline.  The
script prints the median time of each, the tracemalloc peak of one more,
untimed ``compute_node_counts`` call (what the counting pipeline allocates
above the index, in units of 10^6 bytes), and the child's peak RSS
(``ru_maxrss``), which covers the whole child: interpreter, graph, index
and counts.  ``--src`` points at another checkout's ``src`` directory, so
that two versions can be compared on the same machine; the default is
this repository's.  Standard library only.  The benchmark's workloads are
too small to show memory growth in the counting passes; these sizes are
large enough to.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POINTS = ((2000, 4, 2), (1000, 4, 3))  # (n, r, d)
REPEAT = 5


def child(n: int, r: int, d: int) -> dict:
    from drfwl.counting import compute_node_counts, compute_pair_stats
    from drfwl.graph import gen_random_regular
    from drfwl.tuples import build_index

    idx = build_index(gen_random_regular(n, r, 0), d)
    pair_s, node_s = [], []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        compute_pair_stats(idx)
        t1 = time.perf_counter()
        compute_node_counts(idx)
        t2 = time.perf_counter()
        pair_s.append(t1 - t0)
        node_s.append(t2 - t1)
    tracemalloc.start()
    compute_node_counts(idx)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "tuples": idx.tuple_count,
        "pair_stats_s": statistics.median(pair_s),
        "node_counts_s": statistics.median(node_s),
        "node_counts_peak_mb": peak / 1e6,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument(
        "--child", nargs=3, type=int, metavar=("N", "R", "D"), help=argparse.SUPPRESS
    )
    ns = parser.parse_args(argv)
    if ns.child:
        print(json.dumps(child(*ns.child)))
        return 0
    env = dict(os.environ, PYTHONPATH=str(Path(ns.src).resolve()))
    print(f"src={Path(ns.src).resolve()} repeat={REPEAT} python={sys.version.split()[0]}")
    print(
        f"{'n':>5} {'r':>2} {'d':>2} {'tuples':>7} {'pair_stats_s':>13}"
        f" {'node_counts_s':>14} {'node_counts_peak_mb':>20} {'maxrss_mb':>10}"
    )
    for n, r, d in POINTS:
        argv = [sys.executable, __file__, "--child", str(n), str(r), str(d)]
        out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
        res = json.loads(out)
        print(
            f"{n:>5} {r:>2} {d:>2} {res['tuples']:>7} {res['pair_stats_s']:>13.3f}"
            f" {res['node_counts_s']:>14.3f} {res['node_counts_peak_mb']:>20.2f}"
            f" {res['maxrss_mb']:>10.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
