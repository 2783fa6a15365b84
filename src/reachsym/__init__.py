"""Reachability-based symmetrization of directed graphs."""

from .accumulator import SimilarityAccumulator
from .closure import INF, LocalClosure, local_closure
from .graph import (DirectedGraph, ParseError, ValidationError,
                    graph_from_pairs, load_edge_list, write_undirected)
from .hierarchy import (HierarchyScores, auto_hierarchy, load_hierarchy,
                        pair_hierarchy_discount)
from .similarity import (SymmetrizationConfig, bibliometric, degree_discounted,
                         in_reach_similarity, out_reach_similarity,
                         sparsify_top_t, symmetrize)

__all__ = [
    "INF",
    "DirectedGraph",
    "HierarchyScores",
    "LocalClosure",
    "ParseError",
    "SimilarityAccumulator",
    "SymmetrizationConfig",
    "ValidationError",
    "auto_hierarchy",
    "bibliometric",
    "degree_discounted",
    "graph_from_pairs",
    "in_reach_similarity",
    "load_edge_list",
    "load_hierarchy",
    "local_closure",
    "out_reach_similarity",
    "pair_hierarchy_discount",
    "sparsify_top_t",
    "symmetrize",
    "write_undirected",
]
