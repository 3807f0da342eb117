"""Isostaticity of plane bar-joint graphs with 3-fold rotational symmetry.

Given a graph and an order-3 automorphism, this package decides whether
generic symmetric realizations are isostatic, and backs the verdict with
independently checkable certificates: a construction sequence of symmetric
moves from the triangle, a rotation-equivariant three-tree edge partition,
and an exact-arithmetic rank verification at a symmetric placement.
"""
from .certify import (
    DELTA_EXTENSION,
    EDGE_SPLIT,
    VERTEX_ADDITION,
    C3Verdict,
    ConstructionSequence,
    Move,
    apply_move,
    canonical_base,
    check_c3_isostatic,
    extract_sequence,
    replay_sequence,
)
from .field import exact_rank
from .geometry import (
    Frame,
    Placement,
    RankVerdict,
    frame_from_partition,
    framework_from_frame,
    numeric_isostatic_check,
    pull_apart_fully,
    rigidity_matrix,
    symmetric_generic_positions,
)
from .graphs import (
    C3Action,
    Graph,
    SymGraph,
    count_fixed,
    edge,
    parse_graph,
    relabel_symgraph,
    serialize_graph,
)
from .pebble import SparsityReport, brute_force_laman, laman_check, pebble_sparsity
from .trees import (
    PartitionReport,
    TreePartition,
    build_tree_partition,
    relabel_partition,
    verify_tree_partition,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "C3Action",
    "C3Verdict",
    "ConstructionSequence",
    "DELTA_EXTENSION",
    "EDGE_SPLIT",
    "Frame",
    "Graph",
    "Move",
    "PartitionReport",
    "Placement",
    "RankVerdict",
    "SparsityReport",
    "SymGraph",
    "TreePartition",
    "VERTEX_ADDITION",
    "apply_move",
    "brute_force_laman",
    "build_tree_partition",
    "canonical_base",
    "check_c3_isostatic",
    "count_fixed",
    "edge",
    "errors",
    "exact_rank",
    "extract_sequence",
    "frame_from_partition",
    "framework_from_frame",
    "laman_check",
    "numeric_isostatic_check",
    "parse_graph",
    "pebble_sparsity",
    "pull_apart_fully",
    "relabel_partition",
    "relabel_symgraph",
    "replay_sequence",
    "rigidity_matrix",
    "serialize_graph",
    "symmetric_generic_positions",
    "verify_tree_partition",
]
