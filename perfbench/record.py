"""Record the expected stdout digest of every workload for seeds 0-99.

    python3 perfbench/record.py

Run from the repository root, with networkx installed.  Before a digest
is written, the output it stands for is checked once against code
independent of ``drfwl.counting``:

* count workloads: the graph-level ``cycle3``.. totals must equal the
  number of cycles of each length that ``networkx.simple_cycles`` finds
  (``length_bound`` 6 at d=2, 7 at d=3), and the report must equal the
  brute-force ``drfwl oracle`` report byte for byte;
* distinguish workload: networkx must find different cycle counts in the
  two graphs (so they are non-isomorphic) and the verdict must say
  "distinguished".

Outputs do not depend on the thread count, so the program runs with
``--threads 1`` here to keep recording short.
"""
from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path

import networkx as nx

import run

SEEDS = range(100)


def nx_cycle_totals(path: Path, max_len: int) -> dict[int, int]:
    g = nx.Graph()
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        u, v = map(int, line.split())
        g.add_edge(u, v)
    totals = Counter(len(c) for c in nx.simple_cycles(g, length_bound=max_len))
    return {k: totals.get(k, 0) for k in range(3, max_len + 1)}


def record_one(w: run.Workload, seed: int, workdir: Path) -> str:
    inputs = run.write_inputs(w, seed, workdir)
    reference = run.reference_digest(w, inputs, workdir)
    if w.command == "distinguish":
        a, b = (nx_cycle_totals(p, 5) for p in inputs)
        if a == b:
            raise SystemExit(f"{w.name} seed {seed}: networkx finds equal cycle counts {a}")
        return reference
    child = run.run_child(["-m", "drfwl", *run.cli_args(w, inputs), "--threads", "1"], workdir)
    if child.exit != 0 or child.sha256 != reference:
        raise SystemExit(f"{w.name} seed {seed}: count disagrees with the oracle")
    max_len = 7 if w.d >= 3 else 6
    subs = json.loads(child.stdout)["substructures"]
    want = nx_cycle_totals(inputs[0], max_len)
    got = {k: subs[f"cycle{k}"]["graph_level"] for k in range(3, max_len + 1)}
    if got != want:
        raise SystemExit(f"{w.name} seed {seed}: cycle totals {got}, networkx {want}")
    return child.sha256


def main() -> None:
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for w in run.WORKLOADS.values():
            digests[w.name] = {
                str(seed): record_one(w, seed, Path(tmp)) for seed in SEEDS
            }
            print(f"{w.name}: {len(SEEDS)} seeds recorded")
    payload = {
        "independent_checks": {
            "count-d2": "cycle3..cycle6 graph totals equal networkx.simple_cycles(length_bound=6); "
            "report equals drfwl oracle byte for byte",
            "count-d3": "cycle3..cycle7 graph totals equal networkx.simple_cycles(length_bound=7); "
            "report equals drfwl oracle byte for byte",
            "distinguish-d2": "networkx.simple_cycles(length_bound=5) counts differ between the "
            "two graphs, so 'distinguished': true is ground truth",
        },
        "sha256": digests,
    }
    run.EXPECTED.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
