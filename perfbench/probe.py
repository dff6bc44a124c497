"""Instrumented child process for the traced benchmark run.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/probe.py spans  -- <drfwl CLI arguments>
    python3 perfbench/probe.py counts -- <drfwl CLI arguments>
    python3 perfbench/probe.py yardsticks

``spans`` wraps the module attributes that the public entry points call
with timing wrappers, runs ``drfwl.cli.main`` in this process and keeps
every span (name, start, end, parent, note) in memory.  ``counts`` wraps
the pair-intersection primitive with call counters instead, so that its
hundreds of thousands of calls do not distort the timed spans.  Both
capture the CLI's stdout and report its SHA-256, so the caller can check
the output.  ``yardsticks`` times the paper's scaling bounds.  Each mode
prints one JSON object on the real stdout when it ends.  Nothing under
``src/`` is modified: the wrappers replace attributes in memory only, and
an attribute that no longer exists is listed as missing.
"""
from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import sys
import threading
import time
import traceback

import gen

# (module, attribute, span name, note kind)
TIMED = (
    ("drfwl.cli", "main", "cli.main", None),
    ("drfwl.cli", "resolve_threads", "parallel.resolve_threads", "threads"),
    ("drfwl.cli", "parse_edge_list", "graph.parse", "graph"),
    ("drfwl.cli", "build_index", "tuples.build_index", "index"),
    ("drfwl.counting", "compute_node_counts", "counting.node_counts", None),
    ("drfwl.counting", "compute_pair_stats", "counting.pair_stats", None),
    ("drfwl.counting", "pairwise_p2", "counting.p2", None),
    ("drfwl.counting", "pairwise_w3", "counting.w3", None),
    ("drfwl.counting", "pairwise_p3", "counting.p3", None),
    ("drfwl.counting", "pairwise_p22", "counting.p22", None),
    ("drfwl.counting", "pairwise_p4", "counting.p4", None),
    ("drfwl.counting", "pairwise_w4", "counting.w4", None),
    ("drfwl.counting", "_pairwise_motifs", "counting.motifs", None),
    ("drfwl.counting", "_pairwise_split_cycles", "counting.split_cycles", None),
    ("drfwl.counting", "_pairwise_tr", "counting.tr", None),
    ("drfwl.counting", "cycle7_correction_terms", "counting.cycle7", None),
    ("drfwl.counting", "counts_to_report", "counting.report", None),
    ("drfwl.refine", "refine_pair", "refine.pair", "verdict"),
    ("drfwl.refine", "build_index", "refine.build_index", "index"),
    ("drfwl.refine", "_drfwl_blocks", "refine.blocks", None),
    ("drfwl.refine", "parallel_map", "refine.keys", "units"),
    ("drfwl.refine", "_compress", "refine.compress", None),
)

COUNTED = (
    ("drfwl.counting", "intersect"),
    ("drfwl.refine", "intersect"),
)


def _note(kind: str | None, args: tuple, result) -> dict | None:
    if kind == "threads":
        return {"threads": result}
    if kind == "graph":
        return {"nodes": result.n, "edges": result.m}
    if kind == "index":
        return {"tuples": result.tuple_count, "bound": result.space_bound()}
    if kind == "verdict":
        classes = {c for c, _ in result.histogram_a} | {c for c, _ in result.histogram_b}
        return {"rounds": result.iterations, "classes": len(classes)}
    if kind == "units":
        return {"units": len(args[1])}
    return None


class SpanRecorder:
    """Timing wrappers that append (name, start, end, parent, note) spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, module, attr: str, name: str, kind: str | None) -> None:
        fn = getattr(module, attr)
        spans = self.spans
        local = self._local

        def timed(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _note(kind, args, result)
            return result

        setattr(module, attr, timed)


class CallCounter:
    """Counts calls of a list-returning function and the items returned."""

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0

    def wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls += 1
            self.items += len(result)
            return result

        setattr(module, attr, counted)


def _install(targets, install) -> list[str]:
    """Apply install(module, *rest) to each present target; list the absent."""
    missing = []
    for module_name, attr, *rest in targets:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            install(module, attr, *rest)
        else:
            missing.append(f"{module_name}.{attr}")
    return missing


def _run_cli(argv: list[str]) -> dict:
    """Run drfwl.cli.main with stdout captured; report exit and digest."""
    cli = importlib.import_module("drfwl.cli")
    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation, as in a plain run
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout = real_stdout
    digest = hashlib.sha256(captured.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


def probe_spans(argv: list[str]) -> dict:
    recorder = SpanRecorder()
    missing = _install(TIMED, recorder.wrap)
    report = _run_cli(argv)
    report.update(spans=recorder.spans, missing=missing)
    return report


def probe_counts(argv: list[str]) -> dict:
    counter = CallCounter()
    missing = _install(COUNTED, counter.wrap)
    report = _run_cli(argv)
    report.update(calls=counter.calls, witnesses=counter.items, missing=missing)
    return report


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def _graph(n: int, r: int, label: str):
    graph = importlib.import_module("drfwl.graph")
    edges = gen.random_regular(n, r, gen.Stream(label))
    return graph.parse_edge_list(gen.edge_list_text(n, edges))


def probe_yardsticks() -> dict:
    """Log-log slopes of the paper's scaling bounds, as per-layer metrics.

    tuples.n_slope: index build time against n = 500, 1000, 2000 at r=4,
    which the paper bounds as linear in n at fixed degree.
    refine.degree_slope: time per refinement round against r = 3..6 at
    n=500, which grows polynomially in the degree.  Both run on one thread,
    the library default, so they track the algorithm, not the thread pool.
    A slope whose entry point no longer exists is left out.
    """
    tuples = importlib.import_module("drfwl.tuples")
    refine = importlib.import_module("drfwl.refine")
    out = {}
    if hasattr(tuples, "build_index"):
        sizes = (500, 1000, 2000)
        build_s = []
        for n in sizes:
            g = _graph(n, 4, f"yardstick-n{n}")
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                tuples.build_index(g, 2)
                times.append(time.perf_counter() - t0)
            build_s.append(sorted(times)[2])
        out["tuples.n_slope"] = _loglog_slope(list(sizes), build_s)
    if hasattr(refine, "drfwl_refine"):
        degrees = (3, 4, 5, 6)
        round_s = []
        for r in degrees:
            g = _graph(500, r, f"yardstick-r{r}")
            t0 = time.perf_counter()
            coloring = refine.drfwl_refine(g, 2)
            round_s.append((time.perf_counter() - t0) / coloring.iterations)
        out["refine.degree_slope"] = _loglog_slope(list(degrees), round_s)
    return out


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    if mode == "spans":
        report = probe_spans(rest)
    elif mode == "counts":
        report = probe_counts(rest)
    elif mode == "yardsticks":
        report = probe_yardsticks()
    else:
        print(f"unknown probe mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
