"""Symmetric three-tree edge partitions: construction and verification.

The certificate dual to a construction sequence is a partition of the edge
set into three trees with every vertex in exactly two of them, cyclically
permuted by the rotation. The sequence's one walk, which also replays it
(``ConstructionSequence._walked``), updates the three trees after each move;
the update rules place the new orbit's edges so that both the tree property
and the rotation equivariance survive.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from .certify import ConstructionSequence
from .errors import NotAPermutation
from .graphs import Edge, SymGraph, _check_permutation, edge


@dataclass(frozen=True)
class TreePartition:
    """Edge sets of the three trees, indexed so the rotation maps i to i+1.
    Their vertex sets and each edge's tree (``tree_of``) are kept."""

    trees: tuple[frozenset[Edge], frozenset[Edge], frozenset[Edge]]

    @cached_property
    def vertex_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(v for e in tree for v in e) for tree in self.trees)

    @cached_property
    def tree_of(self) -> dict[Edge, int]:
        return {e: i for i, tree in enumerate(self.trees) for e in tree}

    def as_json_dict(self) -> dict:
        return {
            f"T{i}": [list(e) for e in sorted(self.trees[i])] for i in range(3)
        }


@dataclass(frozen=True)
class PartitionReport:
    """One boolean per verified property of a claimed partition."""

    partitions_edges: bool
    trees_are_trees: bool
    two_trees_per_vertex: bool
    rotation_cycles_trees: bool
    proper: bool

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> tuple[str, ...]:
        """The names of the properties that failed, in field order."""
        return tuple(f.name for f in fields(self) if not getattr(self, f.name))

    def as_json_dict(self) -> dict:
        report = {f.name: getattr(self, f.name) for f in fields(self)}
        report["ok"] = self.ok
        return report


def _is_tree(edges: frozenset[Edge], vertices: frozenset[int]) -> bool:
    if not edges:
        return False
    if len(edges) != len(vertices) - 1:
        return False
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(vertices)


def verify_tree_partition(sg: SymGraph, tp: TreePartition) -> PartitionReport:
    """Check every defining property; failures are report entries, not errors.

    A tree edge that is not a ``tuple`` of two items, or a tree vertex that
    is not an ``int`` in 0..n-1 (``True`` and ``1.0`` are not), fails
    ``partitions_edges``, and the vertex counts and the rotation, defined on
    the graph's vertices only, fail with it; such an edge, checked before
    any edge is unpacked, fails ``trees_are_trees`` too. Once the rotation
    carries tree 0 onto tree 1 and tree 1 onto tree 2, the three are
    isomorphic, so only tree 0 is searched; when it does not, all three are.
    """
    act = sg.require_action()
    g = sg.graph
    t0, t1, t2 = tp.trees

    pairs = all(type(e) is tuple and len(e) == 2 for tree in tp.trees for e in tree)
    in_range = pairs and all(
        type(v) is int and 0 <= v < g.n for vs in tp.vertex_sets for v in vs
    )
    union = t0 | t1 | t2
    total = len(t0) + len(t1) + len(t2)
    partitions_edges = in_range and union == g.edges and total == g.m

    counts = [0] * g.n
    if in_range:
        for vertices in tp.vertex_sets:
            for v in vertices:
                counts[v] += 1
    two_trees_per_vertex = in_range and all(c == 2 for c in counts)

    gamma = act.gamma
    rotation_cycles_trees = in_range and all(
        {edge(gamma[u], gamma[v]) for u, v in tp.trees[i]} == tp.trees[(i + 1) % 3]
        for i in range(3)
    )
    if rotation_cycles_trees:
        trees_are_trees = _is_tree(t0, tp.vertex_sets[0])
    else:
        trees_are_trees = pairs and all(map(_is_tree, tp.trees, tp.vertex_sets))

    # Properness (no two non-trivial subtrees of distinct trees share a
    # span) is equivalent to the subgraph counts holding everywhere, which
    # the graph's pebble game decides.
    proper = g.n >= 2 and g.sparsity.is_sparse

    return PartitionReport(
        partitions_edges=partitions_edges,
        trees_are_trees=trees_are_trees,
        two_trees_per_vertex=two_trees_per_vertex,
        rotation_cycles_trees=rotation_cycles_trees,
        proper=proper,
    )


def build_tree_partition(seq: ConstructionSequence) -> TreePartition:
    """The trees of the sequence's one walk (``ConstructionSequence._walked``),
    which ``replay_sequence`` shares, so a move that does not fit raises what
    it raises. They partition the replayed graph; compose with the sequence's
    relabeling to certify the graph the sequence was extracted from.
    """
    return TreePartition(seq._walked[2])


def relabel_partition(tp: TreePartition, perm: tuple[int, ...]) -> TreePartition:
    """Apply a vertex renaming to every edge of every tree. Raises
    ``NotAPermutation`` unless ``perm`` is a permutation of 0..len(perm)-1
    that covers every tree vertex."""
    _check_permutation(perm, len(perm))
    rename = dict(enumerate(perm))
    try:
        return TreePartition(
            tuple(frozenset(edge(rename[u], rename[v]) for u, v in t) for t in tp.trees)
        )
    except KeyError as exc:
        raise NotAPermutation(f"{list(perm)} does not rename tree vertex {exc.args[0]}") from None
