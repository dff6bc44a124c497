"""Command-line front door.

Subcommands: ``count`` (closed-form counts), ``oracle`` (brute-force
counts, same report schema), ``distinguish`` (refinement verdict on two
graphs), ``gen`` (graph files, including the paired-cycle separation
family), ``bench`` (tuple-index size and per-iteration timing).

Exit codes: 0 success, 2 malformed input, 3 capability or size limit.
An InvariantError is a bug, not bad input: it propagates (exit 1).
JSON output is a stability contract; the text format is for humans.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import counting, oracle, refine
from .errors import CapabilityError
from .graph import (
    Graph,
    GraphFormatError,
    gen_cycle,
    gen_disjoint_union,
    gen_erdos_renyi,
    gen_random_regular,
    parse_edge_list,
)
from .tuples import build_index

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPABILITY = 3


def resolve_threads(threads: int | None = None) -> int:
    """Worker count of a run, which is always 1.

    Every pass runs in order on the calling thread.  ``--threads`` and
    ``DRFWL_THREADS`` are still accepted for compatibility; they have no
    effect, and results are identical for every value.
    """
    return 1


def _load_graph(path: str) -> Graph:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    return parse_edge_list(data)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_mask(spec: str | None) -> list[tuple[int, int, int]] | None:
    if not spec:
        return None
    triples = []
    for chunk in spec.replace(";", " ").split():
        parts = chunk.split(",")
        if len(parts) != 3:
            raise GraphFormatError(f"mask triple {chunk!r} is not 'i,j,k'")
        try:
            triples.append(tuple(int(p) for p in parts))
        except ValueError:
            raise GraphFormatError(f"mask triple {chunk!r} has non-integer parts") from None
    return triples


def _parse_motifs(spec: str | None, allow_clique: bool) -> list[str] | None:
    if not spec:
        return None
    names = [m.strip() for m in spec.split(",") if m.strip()]
    catalog = set(counting.COUNT_MOTIFS_D3)
    if allow_clique:
        catalog.add("clique4")
    for name in names:
        if name == "clique4" and not allow_clique:
            raise CapabilityError(
                "clique4 has no closed form; use the oracle subcommand"
            )
        if name not in catalog:
            raise GraphFormatError(f"unknown motif {name!r}")
    return names


def _emit_report(report: dict, fmt: str, output: str | None) -> None:
    """Write a count report as JSON or as one text line per substructure."""
    if fmt == "json":
        _emit(json.dumps(report, indent=2) + "\n", output)
        return
    lines = [f"graph: n={report['n']}"]
    for name, entry in report["substructures"].items():
        lines.append(f"{name}: graph_level={entry['graph_level']} per_node={entry['per_node']}")
    _emit("\n".join(lines) + "\n", output)


def cmd_count(ns: argparse.Namespace) -> int:
    motifs = _parse_motifs(ns.motifs, allow_clique=False)
    threads = resolve_threads(ns.threads)
    if ns.d < 1:
        raise GraphFormatError("--d must be >= 1")
    g = _load_graph(ns.input)
    motifs = motifs or list(counting.supported_motifs(ns.d))
    if "cycle7" in motifs and ns.d < 3:
        raise CapabilityError("cycle7 requires --d 3 or higher")
    idx = build_index(g, ns.d)
    counts = counting.compute_node_counts(idx, threads=threads)
    _emit_report(counting.counts_to_report(counts, tuple(motifs)), ns.fmt, ns.output)
    return EXIT_OK


def cmd_oracle(ns: argparse.Namespace) -> int:
    motifs = _parse_motifs(ns.motifs, allow_clique=True)
    g = _load_graph(ns.input)
    subs = {}
    for name in motifs or counting.supported_motifs(3):
        subs[name] = {
            "per_node": oracle.oracle_node_counts(g, name),
            "graph_level": oracle.oracle_graph_count(g, name),
        }
    _emit_report({"n": g.n, "substructures": subs}, ns.fmt, ns.output)
    return EXIT_OK


def cmd_distinguish(ns: argparse.Namespace) -> int:
    mask = _parse_mask(ns.mask)
    threads = resolve_threads(ns.threads)
    g1 = _load_graph(ns.input1)
    g2 = _load_graph(ns.input2)
    verdict = refine.refine_pair(g1, g2, ns.method, d=ns.d, mask=mask, threads=threads)
    if ns.fmt == "json":
        payload = {
            "method": ns.method,
            "d": verdict.d,
            "distinguished": verdict.distinguished,
            "iterations": verdict.iterations,
        }
        _emit(json.dumps(payload, indent=2) + "\n", ns.output)
    else:
        word = "DISTINGUISHED" if verdict.distinguished else "INDISTINGUISHABLE"
        _emit(f"{word} method={ns.method} d={verdict.d} iterations={verdict.iterations}\n", ns.output)
    return EXIT_OK


def cmd_gen(ns: argparse.Namespace) -> int:
    kind, args = ns.kind, ns.args
    if kind == "cycle":
        g = gen_cycle(int(args[0]))
        _emit(g.to_edge_list(), ns.output)
    elif kind == "er":
        g = gen_erdos_renyi(int(args[0]), float(args[1]), ns.seed)
        _emit(g.to_edge_list(), ns.output)
    elif kind == "regular":
        g = gen_random_regular(int(args[0]), int(args[1]), ns.seed)
        _emit(g.to_edge_list(), ns.output)
    elif kind == "separation":
        k = 3 * ns.d + 1
        double = gen_disjoint_union([gen_cycle(k), gen_cycle(k)])
        single = gen_cycle(2 * k)
        prefix = ns.output or f"separation-d{ns.d}"
        p1 = Path(f"{prefix}-two-c{k}.el")
        p2 = Path(f"{prefix}-c{2 * k}.el")
        p1.write_text(double.to_edge_list(), encoding="utf-8")
        p2.write_text(single.to_edge_list(), encoding="utf-8")
        sys.stdout.write(f"{p1}\n{p2}\n")
    else:
        raise GraphFormatError(f"unknown generator {kind!r}")
    return EXIT_OK


def cmd_bench(ns: argparse.Namespace) -> int:
    threads = resolve_threads(ns.threads)
    sizes = [int(x) for x in ns.sizes.split(",") if x]
    degrees = [int(x) for x in ns.degrees.split(",") if x]
    rows = ["n,deg,tuple_count,build_ms,iter_ms"]
    for r in degrees:
        for n in sizes:
            g = gen_random_regular(n, r, ns.seed)
            t0 = time.perf_counter()
            idx = build_index(g, ns.d)
            build_ms = (time.perf_counter() - t0) * 1000.0
            t0 = time.perf_counter()
            coloring = refine.drfwl_refine(g, ns.d, threads=threads)
            refine_ms = (time.perf_counter() - t0) * 1000.0
            iter_ms = refine_ms / max(1, coloring.iterations)
            rows.append(
                f"{n},{r},{idx.tuple_count},{build_ms:.3f},{iter_ms:.3f}"
            )
    _emit("\n".join(rows) + "\n", ns.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drfwl",
        description="distance-restricted 2-tuple refinement and substructure counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, threads: bool = True) -> None:
        p.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
        p.add_argument("--output", default=None)
        if threads:
            p.add_argument(
                "--threads",
                type=int,
                default=None,
                help="accepted for compatibility; no effect, runs are serial",
            )

    p = sub.add_parser("count", help="closed-form substructure counts")
    p.set_defaults(run=cmd_count)
    p.add_argument("input")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--motifs", default=None)
    common(p)

    p = sub.add_parser("oracle", help="brute-force substructure counts")
    p.set_defaults(run=cmd_oracle)
    p.add_argument("input")
    p.add_argument("--motifs", default=None)
    common(p)

    p = sub.add_parser("distinguish", help="compare two graphs under a refinement")
    p.set_defaults(run=cmd_distinguish)
    p.add_argument("input1")
    p.add_argument("input2")
    p.add_argument("--method", choices=refine.METHODS, default="drfwl")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--mask", default=None)
    common(p)

    p = sub.add_parser("gen", help="generate edge-list files")
    p.set_defaults(run=cmd_gen)
    p.add_argument("kind", choices=("cycle", "er", "regular", "separation"))
    p.add_argument("args", nargs="*")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, dest="output")
    p.add_argument("--format", choices=("json", "text"), default="text", dest="fmt")

    p = sub.add_parser("bench", help="tuple count and timing on regular graphs")
    p.set_defaults(run=cmd_bench)
    p.add_argument("--sizes", default="1000,2000,4000")
    p.add_argument("--degrees", default="4")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except (GraphFormatError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    raise SystemExit(main())
