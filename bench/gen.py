"""Seeded generator of 3-fold-symmetric graph documents for the benchmark.

Stdlib only, and independent of c3rig: the expected verdict of every graph
holds by construction, so the benchmark can check c3rig's answers against
something c3rig did not compute.

Graphs are grown from the triangle (0 1 2) with rotation 0 -> 1 -> 2 -> 0 by
the three symmetric moves, each adding one vertex orbit: vertex addition
(two symmetric 0-extensions), edge split (three symmetric 1-extensions) and
delta extension. All three keep a graph (2,3)-tight and free of fixed
vertices, so every grown graph is symmetrically isostatic. The variants are:

* ``tight``: a grown graph.
* ``short``: one edge orbit removed, so |E| = 2n - 6 (counts fail, but every
  subgraph stays sparse).
* ``over``: one non-edge orbit added, so |E| = 2n and the whole graph is
  over-dense.
* ``planted``: |E| = 2n - 3 exactly, but a rotation-closed region carries
  one extra edge orbit, so it induces at least 2|R| edges. The region is
  grown first and later edge splits never cut its edges, which keeps it
  tight; the extra orbit goes inside it and an edge orbit outside it is
  removed to restore the total count. The count is re-confirmed here.

Vertices are shuffled by a seeded permutation at the end, so vertex order
carries no trace of the build order.
"""
from __future__ import annotations

import json
import random

KINDS = ("tight", "short", "over", "planted")

# Expected c3rig verdict per kind: (exit code, c3_verdict reasons).
EXPECTED = {
    "tight": (0, []),
    "short": (1, ["count"]),
    "over": (1, ["count", "subgraph_sparsity"]),
    "planted": (1, ["subgraph_sparsity"]),
}


# Move kinds, named as in c3rig's construction-sequence reports.
VERTEX_ADDITION = "VertexAddition"
EDGE_SPLIT = "EdgeSplit"
DELTA_EXTENSION = "DeltaExtension"
ANCHOR_COUNT = {VERTEX_ADDITION: 2, EDGE_SPLIT: 3, DELTA_EXTENSION: 1}


def pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def edge_orbit(gamma, e: tuple[int, int]) -> list[tuple[int, int]]:
    u, v = e
    return [pair(u, v), pair(gamma[u], gamma[v]), pair(gamma[gamma[u]], gamma[gamma[v]])]


def move_edges(gamma, kind: str, anchors) -> tuple[list, list]:
    """Edges removed and added by a symmetric move on len(gamma) vertices.

    The new orbit is (n, n+1, n+2) with n = len(gamma); its k-th vertex joins
    the k-th rotation image of the anchors. An edge split also removes the
    edge orbit of its first two anchors; a delta extension also joins the
    new orbit into a triangle. The caller extends gamma by (n+1, n+2, n).
    """
    n = len(gamma)
    removed: list = []
    added: list = []
    if kind == EDGE_SPLIT:
        removed = edge_orbit(gamma, (anchors[0], anchors[1]))
    elif kind == DELTA_EXTENSION:
        added = [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
    images = list(anchors)
    for k in range(3):
        added.extend(pair(n + k, x) for x in images)
        images = [gamma[x] for x in images]
    return removed, added


class _Builder:
    """A symmetric graph under construction, with O(1) random edge picks."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.gamma = [1, 2, 0]
        self.edges: list[tuple[int, int]] = []
        self.index: dict[tuple[int, int], int] = {}
        for e in ((0, 1), (1, 2), (0, 2)):
            self.add(e)

    @property
    def n(self) -> int:
        return len(self.gamma)

    def add(self, e: tuple[int, int]) -> None:
        self.index[e] = len(self.edges)
        self.edges.append(e)

    def remove(self, e: tuple[int, int]) -> None:
        i = self.index.pop(e)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.index[last] = i

    def random_edge(self, outside: int = 0) -> tuple[int, int]:
        """A random edge with at least one end at or above ``outside``."""
        while True:
            e = self.edges[self.rng.randrange(len(self.edges))]
            if e[1] >= outside:
                return e

    def grow(self, target: int, protected: int = 0) -> None:
        """Add vertex orbits until there are ``target`` vertices.

        Edge splits never remove an edge with both ends below ``protected``.
        """
        rng, gamma = self.rng, self.gamma
        while self.n < target:
            n = self.n
            # Until the first orbit outside the protected part exists, every
            # edge is protected and no split is possible.
            kind = rng.randrange(3) if n > protected else rng.choice((0, 2))
            if kind == 0:
                v1 = rng.randrange(n)
                v2 = rng.randrange(n - 1)
                v2 += v2 >= v1
                move = (VERTEX_ADDITION, (v1, v2))
            elif kind == 1:
                v1, v2 = self.random_edge(protected)
                v3 = rng.randrange(n - 2)
                v3 += v3 >= v1
                v3 += v3 >= v2
                move = (EDGE_SPLIT, (v1, v2, v3))
            else:
                move = (DELTA_EXTENSION, (rng.randrange(n),))
            removed, added = move_edges(gamma, *move)
            for e in removed:
                self.remove(e)
            for e in added:
                self.add(e)
            gamma.extend((n + 1, n + 2, n))

    def random_non_edge_orbit(self, below: int) -> list[tuple[int, int]]:
        rng = self.rng
        while True:
            u, v = rng.randrange(below), rng.randrange(below)
            if u != v:
                orbit = edge_orbit(self.gamma, (u, v))
                if not any(e in self.index for e in orbit):
                    return orbit


def _shuffled(rng, n, edges, gamma, region=()):
    perm = list(range(n))
    rng.shuffle(perm)
    new_gamma = [0] * n
    for x in range(n):
        new_gamma[perm[x]] = perm[gamma[x]]
    new_edges = sorted(pair(perm[u], perm[v]) for u, v in edges)
    return new_edges, new_gamma, sorted(perm[x] for x in region)


def induced_edge_count(edges, vertices) -> int:
    inside = set(vertices)
    return sum(1 for u, v in edges if u in inside and v in inside)


def make_graph(rng: random.Random, kind: str, n: int) -> dict:
    """One graph document of the given kind on n vertices (n % 3 == 0)."""
    if n % 3 or n < 12:
        raise ValueError(f"n must be a multiple of 3 and at least 12, got {n}")
    b = _Builder(rng)
    region: range | tuple = ()
    if kind == "planted":
        size = 3 * rng.randrange(max(3, n // 30), max(4, n // 9))
        b.grow(size)
        b.grow(n, protected=size)
        region = range(size)
        for e in b.random_non_edge_orbit(size):
            b.add(e)
        for e in edge_orbit(b.gamma, b.random_edge(size)):
            b.remove(e)
    else:
        b.grow(n)
        if kind == "short":
            for e in edge_orbit(b.gamma, b.random_edge()):
                b.remove(e)
        elif kind == "over":
            for e in b.random_non_edge_orbit(n):
                b.add(e)
        elif kind != "tight":
            raise ValueError(f"unknown graph kind {kind!r}")
    edges, gamma, region = _shuffled(rng, n, b.edges, b.gamma, region)
    doc = {"vertices": n, "edges": [list(e) for e in edges], "c3": gamma}
    want = {"tight": 2 * n - 3, "short": 2 * n - 6, "over": 2 * n, "planted": 2 * n - 3}
    if len(edges) != want[kind]:
        raise AssertionError(f"{kind} graph has {len(edges)} edges, expected {want[kind]}")
    if kind == "planted" and induced_edge_count(edges, region) < 2 * len(region) - 2:
        raise AssertionError("planted region is not over-dense")
    return doc


def dump(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode()
