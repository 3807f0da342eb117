"""Simple graphs carrying a designated 3-fold symmetry.

Vertices are the integers 0..n-1. Edges are unordered pairs of distinct
vertices, stored as sorted tuples. The symmetry is an order-3 automorphism
``gamma`` in one-line form (``gamma[i]`` is the image of vertex i); for the
cyclic rotation group of order three the whole action is determined by this
single generator, so only homomorphic type assignments are representable.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import eq, itemgetter, lt

from .errors import (
    LoopOrDuplicateEdge,
    MissingAction,
    NotAPermutation,
    NotAnAutomorphism,
    NotOrderThree,
    SchemaError,
)

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to a sorted tuple."""
    return (u, v) if u < v else (v, u)


def _check_permutation(perm: Sequence[int], n: int) -> None:
    """Raise ``NotAPermutation`` unless ``perm`` lists 0..n-1 once each."""
    if len(perm) != n or not set(map(type, perm)) <= {int} or set(perm) != set(range(n)):
        raise NotAPermutation(f"{list(perm)} is not a permutation of 0..{n - 1}")


def edge_orbit(e: Edge, gamma: Sequence[int]) -> tuple[Edge, Edge, Edge]:
    """The images (e, gamma e, gamma^2 e) of an edge, gamma in one-line form."""
    u, v = e
    u1, v1 = gamma[u], gamma[v]
    return (edge(u, v), edge(u1, v1), edge(gamma[u1], gamma[v1]))


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 0:
            raise SchemaError("vertex count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise LoopOrDuplicateEdge(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                if 0 <= v < u < self.n:
                    raise SchemaError(f"edge ({u}, {v}) is not sorted: store it as ({v}, {u})")
                raise SchemaError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def _checked(cls, n: int, sorted_edges: tuple[Edge, ...]) -> "Graph":
        """The graph on distinct sorted edges its caller has already checked
        as ``__post_init__`` would, with no second pass over them; their
        order is kept as ``sorted_edges``."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", frozenset(sorted_edges))
        object.__setattr__(graph, "sorted_edges", sorted_edges)
        return graph

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    @cached_property
    def degree_order(self) -> tuple[int, ...]:
        """Each vertex's place when vertices go by degree, then label.

        It is the column order of every F_P row built from positions or
        directions: eliminating the columns of low-degree vertices first keeps
        the fill-in small, and a column order never changes a rank. It is also
        the pebble game's deciding edge order: an edge between low-degree
        vertices meets few paths to search.
        """
        degree = [0] * self.n
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        place = [0] * self.n
        for i, v in enumerate(sorted(range(self.n), key=degree.__getitem__)):
            place[v] = i
        return tuple(place)

    @cached_property
    def sparsity(self) -> "SparsityReport":
        """The counts decided by one pebble game (``pebble_sparsity``),
        played on first use and kept: every verdict on the graph reads it."""
        from .pebble import pebble_sparsity

        return pebble_sparsity(self)


@dataclass(frozen=True)
class C3Action:
    """An order-3 automorphism candidate: a permutation with gamma^3 = id.

    ``gamma2`` (the square) is derived once and cached, and the fixed
    vertices are found on first use and kept. The identity is rejected:
    trivially symmetric graphs go through the plain count checks, not the
    symmetric ones.
    """

    gamma: tuple[int, ...]
    gamma2: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.gamma)
        gamma = tuple(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        _check_permutation(gamma, n)
        identity = tuple(range(n))
        g2 = tuple(map(gamma.__getitem__, gamma))
        g3 = tuple(map(gamma.__getitem__, g2))
        if g3 != identity or gamma == identity:
            raise NotOrderThree(f"{list(gamma)} does not have order three")
        object.__setattr__(self, "gamma2", g2)

    @property
    def n(self) -> int:
        return len(self.gamma)

    def orbit(self, v: int) -> tuple[int, int, int]:
        return (v, self.gamma[v], self.gamma2[v])

    @cached_property
    def _fixed(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.gamma[v] == v)

    def fixed_vertices(self) -> tuple[int, ...]:
        return self._fixed

    def map_edge(self, e: Edge) -> Edge:
        return edge(self.gamma[e[0]], self.gamma[e[1]])


@dataclass(frozen=True)
class SymGraph:
    """A graph together with an (optional) validated 3-fold symmetry action."""

    graph: Graph
    action: C3Action | None = None

    def __post_init__(self):
        act = self.action
        if act is None:
            return
        if act.n != self.graph.n:
            raise SchemaError(
                f"symmetry acts on {act.n} vertices but the graph has {self.graph.n}"
            )
        gamma, edges = act.gamma, self.graph.edges
        for u, v in edges:
            x, y = gamma[u], gamma[v]
            if ((x, y) if x < y else (y, x)) not in edges:
                break
        else:
            return
        # name the first sorted edge that fails, whatever the set's order
        e = next(e for e in self.graph.sorted_edges if act.map_edge(e) not in edges)
        raise NotAnAutomorphism(
            f"edge {list(e)} maps to the non-edge {list(act.map_edge(e))}", witness_edge=e
        )

    def require_action(self) -> C3Action:
        if self.action is None:
            raise MissingAction("this operation needs the 3-fold symmetry (key 'c3')")
        return self.action


@dataclass(frozen=True)
class FixedCounts:
    """Counts of vertices and edges mapped to themselves by the rotation."""

    j: int
    b: int


def count_fixed(sg: SymGraph) -> FixedCounts:
    """Count fixed vertices (j) and fixed edges (b) of the action.

    An order-3 permutation cannot swap an edge's endpoints, so a fixed edge
    has both endpoints fixed: with j < 2 there is none, and otherwise only
    the edges among the fixed vertices are counted.
    """
    act = sg.require_action()
    fixed, gamma = act.fixed_vertices(), act.gamma
    b = sum(1 for u, v in sg.graph.edges if gamma[u] == u and gamma[v] == v) if len(fixed) >= 2 else 0
    return FixedCounts(j=len(fixed), b=b)


def relabel_symgraph(sg: SymGraph, perm: tuple[int, ...]) -> SymGraph:
    """Rename vertex x to perm[x]; the action is conjugated along.
    Raises ``NotAPermutation`` unless ``perm`` is a permutation of 0..n-1."""
    g = sg.graph
    _check_permutation(perm, g.n)
    edges = frozenset(edge(perm[u], perm[v]) for u, v in g.edges)
    graph = Graph(g.n, edges)
    action = None
    if sg.action is not None:
        gamma = [0] * g.n
        for x in range(g.n):
            gamma[perm[x]] = perm[sg.action.gamma[x]]
        action = C3Action(tuple(gamma))
    return SymGraph(graph, action)


_ALLOWED_KEYS = {"vertices", "edges", "c3"}


def _bulk_edges(raw: list, n: int) -> tuple[Edge, ...] | None:
    """The edges of ``raw``, normalized and sorted, or None if a check made
    in whole passes fails. Pairs already normalized and strictly increasing
    are kept as they come, with no sort."""
    if not (set(map(type, raw)) <= {list, tuple} and set(map(len, raw)) <= {2}):
        return None
    us = list(map(itemgetter(0), raw))
    vs = list(map(itemgetter(1), raw))
    if not set(map(type, us + vs)) <= {int}:
        return None
    if not all(map(lt, us, vs)):
        if any(map(eq, us, vs)):
            return None
        us, vs = list(map(min, us, vs)), list(map(max, us, vs))
    pairs = list(zip(us, vs))
    if not all(map(lt, pairs, pairs[1:])):
        pairs.sort()
        if not all(map(lt, pairs, pairs[1:])):
            return None
    if pairs and (pairs[0][0] < 0 or max(vs) >= n):
        return None
    return tuple(pairs)


def _scanned_edges(raw: list, n: int) -> set[Edge]:
    """The edges of ``raw``, checked one item at a time: the first bad item
    raises the error that names it."""
    edges: set[Edge] = set()
    for item in raw:
        u, v = item if isinstance(item, (list, tuple)) and len(item) == 2 else (None, None)
        if type(u) is not int or type(v) is not int:
            raise SchemaError(f"edge entry {item!r} is not a pair of integers")
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaError(f"edge {item!r} out of range for n={n}")
        if u == v:
            raise LoopOrDuplicateEdge(f"loop at vertex {u}")
        e = edge(u, v)
        if e in edges:
            raise LoopOrDuplicateEdge(f"edge {list(e)} appears twice")
        edges.add(e)
    return edges


def parse_graph(document: str | bytes | dict) -> SymGraph:
    """Parse and validate a graph document.

    The document is either JSON text or an already-decoded mapping with keys
    ``vertices`` (int), ``edges`` (list of pairs) and optionally ``c3`` (the
    rotation in one-line form). Without ``c3`` the result carries no action
    and only the plain count operations apply.

    The edge list is checked in whole passes (``_bulk_edges``), and a list
    already normalized and strictly increasing becomes the graph's
    ``sorted_edges`` as it is; any other valid list is normalized and sorted
    once. Only when a whole-pass check fails are the items scanned one by
    one, in document order, so an invalid document raises the error class
    and message of its first bad item.
    """
    if isinstance(document, (str, bytes)):
        try:
            obj = json.loads(document)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad JSON and undecodable bytes; RecursionError
            # is nesting deeper than the decoder's stack.
            raise SchemaError(f"not valid JSON: {exc}") from exc
    else:
        obj = document
    if not isinstance(obj, dict):
        raise SchemaError("top-level value must be an object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")
    if "vertices" not in obj or "edges" not in obj:
        raise SchemaError("keys 'vertices' and 'edges' are required")
    n = obj["vertices"]
    if type(n) is not int or n < 0:
        raise SchemaError("'vertices' must be a non-negative integer")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise SchemaError("'edges' must be a list of pairs")
    edges = _bulk_edges(raw_edges, n)
    if edges is None:
        edges = tuple(sorted(_scanned_edges(raw_edges, n)))
    graph = Graph._checked(n, edges)
    action = None
    if "c3" in obj:
        raw = obj["c3"]
        if not isinstance(raw, list) or not set(map(type, raw)) <= {int}:
            raise SchemaError("'c3' must be a list of integers")
        if len(raw) != n:
            raise NotAPermutation(f"'c3' has length {len(raw)}, expected {n}")
        action = C3Action(tuple(raw))
    return SymGraph(graph, action)


def serialize_graph(sg: SymGraph) -> dict:
    """Inverse of parse_graph: a JSON-ready document for the graph."""
    doc: dict = {
        "vertices": sg.graph.n,
        "edges": [[u, v] for u, v in sg.graph.sorted_edges],
    }
    if sg.action is not None:
        doc["c3"] = list(sg.action.gamma)
    return doc
