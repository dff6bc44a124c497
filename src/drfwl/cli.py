"""Command-line front door.

Subcommands: ``count`` (closed-form counts), ``oracle`` (brute-force
counts, same report schema), ``distinguish`` (refinement verdict on two
graphs), ``gen`` (graph files, including the paired-cycle separation
family).

Exit codes: 0 success, 2 malformed input (or a file that cannot be read
or written), 3 capability or size limit, 4 a failed internal check
(InvariantError, a bug).  Only a GraphFormatError means malformed input.
Any other exception is a bug too: it propagates (exit 1).
JSON output is a stability contract; the text format is for humans.

The legs judge requests and the CLI parses flags and maps errors: before
reading any input, ``count``, ``oracle`` and ``distinguish`` call their
leg's check (``counting.check_motifs``, ``oracle.check_motifs``,
``refine.check_request``) once, and only that call turns a ValueError into
a GraphFormatError.  ``count`` then indexes only as far as its motifs read
(``counting.index_depth``), which is never past ``--d``.

Each subcommand imports the algorithm module it runs (``counting``,
``refine`` or ``oracle``) when it runs, so an invocation loads only its
own.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from .errors import METHODS, CapabilityError, InvariantError
from .graph import (
    Graph,
    GraphFormatError,
    check_d,
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
EXIT_INVARIANT = 4


def resolve_threads(threads: int | None = None) -> int:
    """Worker count of a run, which is always 1.

    Every pass runs in order on the calling thread.  ``count`` and
    ``distinguish`` still accept ``--threads`` for compatibility; it has
    no effect, and results are identical for every value.
    """
    return 1


def _load_graph(path: str) -> Graph:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    return parse_edge_list(data)


def _emit(text: str, output: str | None) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(f"cannot write {output}: {exc}") from exc


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


def _parse_motifs(spec: str | None) -> list[str] | None:
    if spec is None:
        return None
    names = [m.strip() for m in spec.split(",") if m.strip()]
    if not names:
        raise GraphFormatError(f"--motifs {spec!r} names no motif")
    return names


def _check(rule: Callable, *request: object) -> object:
    """A leg's verdict on a request, before any input is read.  Its
    ValueError is malformed input; this is the one call that maps it."""
    try:
        return rule(*request)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


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
    from . import counting

    motifs = _check(counting.check_motifs, ns.d, _parse_motifs(ns.motifs))
    resolve_threads(ns.threads)
    g = _load_graph(ns.input)
    idx = build_index(g, counting.index_depth(motifs))
    counts = counting.compute_node_counts(idx)
    _emit_report(counting.counts_to_report(counts, motifs), ns.fmt, ns.output)
    return EXIT_OK


def cmd_oracle(ns: argparse.Namespace) -> int:
    from . import oracle

    motifs = _check(oracle.check_motifs, _parse_motifs(ns.motifs))
    g = _load_graph(ns.input)
    subs = {}
    for name in motifs:
        per_node = oracle.oracle_node_counts(g, name)
        subs[name] = {"per_node": per_node, "graph_level": oracle.graph_total(name, per_node)}
    _emit_report({"n": g.n, "substructures": subs}, ns.fmt, ns.output)
    return EXIT_OK


def cmd_distinguish(ns: argparse.Namespace) -> int:
    from . import refine

    mask = _parse_mask(ns.mask)
    _check(refine.check_request, ns.method, ns.d, mask)
    resolve_threads(ns.threads)
    g1 = _load_graph(ns.input1)
    g2 = _load_graph(ns.input2)
    verdict = refine.refine_pair(g1, g2, ns.method, d=ns.d, mask=mask)
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


# generator and the types of its positional arguments; the seed comes last
GENERATORS = {
    "cycle": (lambda n, seed: gen_cycle(n), (int,)),
    "er": (gen_erdos_renyi, (int, float)),
    "regular": (gen_random_regular, (int, int)),
}


def _generate(kind: str, args: Sequence, seed: int) -> Graph:
    """The ``gen cycle|er|regular`` graph; bad arguments are malformed input."""
    make, types = GENERATORS[kind]
    if len(args) != len(types):
        raise GraphFormatError(f"gen {kind} takes {len(types)} argument(s), got {len(args)}")
    try:
        return make(*(cast(a) for cast, a in zip(types, args)), seed)
    except ValueError as exc:  # a non-numeric argument or the generator's own check
        raise GraphFormatError(f"gen {kind}: {exc}") from None


def cmd_gen(ns: argparse.Namespace) -> int:
    kind = ns.kind
    if kind in GENERATORS:
        _emit(_generate(kind, ns.args, ns.seed).to_edge_list(), ns.output)
    else:  # separation, the one other kind that the parser admits
        if ns.args:
            raise GraphFormatError(f"gen separation takes no arguments, got {len(ns.args)}")
        _check(check_d, ns.d)
        k = 3 * ns.d + 1
        double = gen_disjoint_union([gen_cycle(k), gen_cycle(k)])
        single = gen_cycle(2 * k)
        prefix = ns.output or f"separation-d{ns.d}"
        p1 = Path(f"{prefix}-two-c{k}.el")
        p2 = Path(f"{prefix}-c{2 * k}.el")
        _emit(double.to_edge_list(), str(p1))
        _emit(single.to_edge_list(), str(p2))
        sys.stdout.write(f"{p1}\n{p2}\n")
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
    common(p, threads=False)

    p = sub.add_parser("distinguish", help="compare two graphs under a refinement")
    p.set_defaults(run=cmd_distinguish)
    p.add_argument("input1")
    p.add_argument("input2")
    p.add_argument("--method", choices=METHODS, default="drfwl")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--mask", default=None)
    common(p)

    p = sub.add_parser("gen", help="generate edge-list files")
    p.set_defaults(run=cmd_gen)
    p.add_argument("kind", choices=(*GENERATORS, "separation"))
    p.add_argument("args", nargs="*")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, dest="output")

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except InvariantError as exc:
        print(f"internal error: a consistency check failed ({exc}); this is a bug", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
