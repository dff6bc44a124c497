"""Distance-restricted 2-tuple refinement and exact substructure counting.

The package has three legs that check each other:

* ``refine``   WL(1), dense FWL(2) and the distance-restricted 2-tuple
               test, with canonical certificates and pair distinguishing.
* ``counting`` closed-form node-level counts (cycles up to 7, paths,
               tailed triangles, chordal cycles, triangle-rectangles)
               computed by sparse passes over the pair index.
* ``oracle``   brute-force enumeration of the same quantities, used as
               ground truth in the test suite.
"""
from .counting import (
    NodeCounts,
    PairStats,
    compute_node_counts,
    compute_pair_stats,
    counts_to_report,
    graph_level,
    node_walks,
    supported_motifs,
)
from .errors import CapabilityError, InvariantError
from .graph import (
    Graph,
    GraphFormatError,
    KHopSets,
    bfs_distances,
    diameter,
    gen_complete,
    gen_cycle,
    gen_disjoint_union,
    gen_erdos_renyi,
    gen_path,
    gen_petersen,
    gen_random_regular,
    gen_star,
    khop,
    parse_edge_list,
    permute,
)
from .oracle import (
    MotifSpec,
    oracle_graph_count,
    oracle_node_count,
    oracle_node_counts,
    oracle_pair_count,
)
from .refine import (
    Certificate,
    Coloring,
    PairVerdict,
    certificate,
    distinguish,
    drfwl_refine,
    fwl2_refine,
    refine_pair,
    wl1_refine,
)
from .tuples import TupleIndex, build_index, intersect

__all__ = [
    "CapabilityError",
    "Certificate",
    "Coloring",
    "Graph",
    "GraphFormatError",
    "InvariantError",
    "KHopSets",
    "MotifSpec",
    "NodeCounts",
    "PairStats",
    "PairVerdict",
    "TupleIndex",
    "bfs_distances",
    "build_index",
    "certificate",
    "compute_node_counts",
    "compute_pair_stats",
    "counts_to_report",
    "diameter",
    "distinguish",
    "drfwl_refine",
    "fwl2_refine",
    "gen_complete",
    "gen_cycle",
    "gen_disjoint_union",
    "gen_erdos_renyi",
    "gen_path",
    "gen_petersen",
    "gen_random_regular",
    "gen_star",
    "graph_level",
    "intersect",
    "khop",
    "node_walks",
    "oracle_graph_count",
    "oracle_node_count",
    "oracle_node_counts",
    "oracle_pair_count",
    "parse_edge_list",
    "permute",
    "refine_pair",
    "supported_motifs",
    "wl1_refine",
]
