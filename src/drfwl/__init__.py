"""Distance-restricted 2-tuple refinement and exact substructure counting.

The package has three legs that check each other:

* ``refine``   WL(1), dense FWL(2) and the distance-restricted 2-tuple
               test, with canonical certificates and pair distinguishing.
* ``counting`` closed-form node-level counts (cycles up to 7, paths,
               tailed triangles, chordal cycles, triangle-rectangles)
               computed by sparse passes over the pair index.
* ``oracle``   brute-force enumeration of the same node- and graph-level
               counts, used as ground truth in the test suite and by
               ``drfwl oracle``.

The names below are what the CLI and the library run.  The test suite's
own helpers (small fixed graphs, relabelling, the pair-level oracle and
the slow reference twins) live under ``tests/``, not here.

The names are re-exported lazily (PEP 562): ``import drfwl`` loads no
submodule, and the first read of a name imports only its home module.
"""
import importlib

# home module of every re-exported name
_HOMES = {
    "counting": (
        "NodeCounts",
        "PairStats",
        "check_motifs",
        "compute_node_counts",
        "compute_pair_stats",
        "counts_to_report",
        "graph_level",
        "node_walks",
    ),
    "errors": ("CapabilityError", "InvariantError"),
    "graph": (
        "Graph",
        "GraphFormatError",
        "gen_cycle",
        "gen_disjoint_union",
        "gen_erdos_renyi",
        "gen_random_regular",
        "khop",
        "parse_edge_list",
    ),
    "oracle": ("oracle_graph_count", "oracle_node_counts"),
    "refine": (
        "Certificate",
        "Coloring",
        "PairVerdict",
        "certificate",
        "distinguish",
        "drfwl_refine",
        "fwl2_refine",
        "refine_pair",
        "wl1_refine",
    ),
    "tuples": ("TupleIndex", "build_index", "intersect"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
