"""Symmetric realizations, rigidity matrices, and the frame pipeline.

Placements are exact: every coordinate is an element of Q(sqrt 3), the
rotation by 120 degrees acts about the origin, and symmetry of a placement
is an equation, not an approximation. Two realization routes are provided.

* Random symmetric positions: one random rational point per vertex orbit,
  the rest filled in by the rotation; isostaticity is then read off the
  exact rank of the rigidity matrix.
* The frame route: from a verified three-tree partition, park each vertex
  on one corner of a reference triangle, direct each edge along the side
  matching its tree, and then pull coincident joint classes apart along a
  deformation parameter until the degenerate frame becomes an honest
  framework, keeping the generalized rigidity matrix at full row rank the
  whole way.
"""
from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CoincidentAdjacentJoints,
    DegenerateSpan,
    ExhaustedRetries,
    ExhaustedT,
    InternalInvariantBroken,
    InvalidPartition,
    NoSeparableComponent,
    TooFewVertices,
    ZeroDirection,
    FixedVertexPresent,
)
from .field import ExactMatrix, QSqrt3, Q_ZERO, exact_rank
from .graphs import Graph, SymGraph
from .trees import TreePartition, verify_tree_partition

Vec2 = tuple[QSqrt3, QSqrt3]

_HALF = Fraction(1, 2)
_NEG_HALF = QSqrt3(-_HALF)
_SQRT3_HALF = QSqrt3(0, _HALF)

ZERO2: Vec2 = (Q_ZERO, Q_ZERO)

# Reference triangle corners and, per tree, the side direction its edges get.
E_POINTS: tuple[Vec2, Vec2, Vec2] = (
    (QSqrt3(0), QSqrt3(0)),
    (QSqrt3(1), QSqrt3(0)),
    (QSqrt3(_HALF), QSqrt3(0, _HALF)),
)
TREE_DIRECTIONS: tuple[Vec2, Vec2, Vec2] = (
    (QSqrt3(-_HALF), QSqrt3(0, _HALF)),
    (QSqrt3(-_HALF), QSqrt3(0, -_HALF)),
    (QSqrt3(1), QSqrt3(0)),
)


def v_add(p: Vec2, q: Vec2) -> Vec2:
    return (p[0] + q[0], p[1] + q[1])


def v_sub(p: Vec2, q: Vec2) -> Vec2:
    return (p[0] - q[0], p[1] - q[1])


def v_scale(c: QSqrt3, p: Vec2) -> Vec2:
    return (c * p[0], c * p[1])


def v_is_zero(p: Vec2) -> bool:
    return p[0].is_zero and p[1].is_zero


def cross(p: Vec2, q: Vec2) -> QSqrt3:
    return p[0] * q[1] - p[1] * q[0]


def rotate(p: Vec2) -> Vec2:
    """Rotate by 120 degrees about the origin."""
    x, y = p
    return (_NEG_HALF * x - _SQRT3_HALF * y, _SQRT3_HALF * x + _NEG_HALF * y)


def rotate2(p: Vec2) -> Vec2:
    return rotate(rotate(p))


@dataclass(frozen=True)
class Placement:
    """Exact joint positions; ``framework`` marks edge endpoints distinct."""

    positions: tuple[Vec2, ...]
    framework: bool = False

    def float_positions(self) -> list[tuple[float, float]]:
        return [(float(x), float(y)) for x, y in self.positions]


def placement_is_symmetric(sg: SymGraph, placement: Placement) -> bool:
    """Positions of rotated vertices equal rotated positions, exactly."""
    act = sg.require_action()
    pos = placement.positions
    return all(pos[act.gamma[v]] == rotate(pos[v]) for v in range(sg.graph.n))


def symmetric_generic_positions(sg: SymGraph, seed: int) -> Placement:
    """Seeded random rational point per orbit; images forced by the rotation.

    Redraws (up to 100 times) whenever two adjacent joints collide, so the
    result satisfies the framework condition.
    """
    act = sg.require_action()
    n = sg.graph.n
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    if act.fixed_vertices():
        raise FixedVertexPresent(
            f"vertex {act.fixed_vertices()[0]} is fixed and would sit at the center"
        )
    reps = []
    seen = [False] * n
    for v in range(n):
        if not seen[v]:
            reps.append(v)
            for x in act.orbit(v):
                seen[x] = True
    rng = random.Random(seed)
    bound = 10**4
    for _ in range(100):
        positions: list[Vec2 | None] = [None] * n
        for rep in reps:
            x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            y = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            p = (QSqrt3(x), QSqrt3(y))
            positions[rep] = p
            positions[act.gamma[rep]] = rotate(p)
            positions[act.gamma2[rep]] = rotate2(p)
        if all(positions[u] != positions[v] for u, v in sg.graph.edges):
            return Placement(tuple(positions), framework=True)
    raise ExhaustedRetries("100 draws all produced a coincident edge")


def _edge_matrix(g: Graph, vectors: Iterable[Vec2]) -> ExactMatrix:
    """One row per sorted edge (u, v): its vector at u's columns, negated at v's."""
    n = g.n
    rows = []
    for (u, v), d in zip(g.sorted_edges, vectors):
        row = [Q_ZERO] * (2 * n)
        row[2 * u] = d[0]
        row[2 * u + 1] = d[1]
        row[2 * v] = -d[0]
        row[2 * v + 1] = -d[1]
        rows.append(tuple(row))
    return ExactMatrix(g.m, 2 * n, tuple(rows))


def rigidity_matrix(g: Graph, placement: Placement) -> ExactMatrix:
    """One row per edge: the coordinate difference at each endpoint's columns."""
    pos = placement.positions
    return _edge_matrix(g, (v_sub(pos[u], pos[v]) for u, v in g.sorted_edges))


@dataclass(frozen=True)
class RankVerdict:
    """Exact-rank reading of a placement."""

    isostatic: bool
    independent: bool
    rank: int
    edge_count: int
    target: int
    flex_dim: int

    def as_json_dict(self) -> dict:
        return {
            "isostatic": self.isostatic,
            "independent": self.independent,
            "rank": self.rank,
            "edge_count": self.edge_count,
            "target": self.target,
            "flex_dim": self.flex_dim,
        }


def numeric_isostatic_check(sg: SymGraph, placement: Placement) -> RankVerdict:
    """Isostatic iff the edge count and the exact rank both hit 2n - 3."""
    g = sg.graph
    n = g.n
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    pos = placement.positions
    base = pos[0]
    first = next((v for v in range(1, n) if pos[v] != base), None)
    if first is None or all(
        cross(v_sub(pos[first], base), v_sub(pos[k], base)).is_zero for k in range(n)
    ):
        raise DegenerateSpan("all joints are collinear")
    # Joints not all collinear are not all coincident, so the trivial
    # motions cap the rank at 2n - 3 even when there are more bars.
    target = 2 * n - 3
    rank = exact_rank(rigidity_matrix(g, placement), target)
    return RankVerdict(
        isostatic=g.m == target and rank == target,
        independent=rank == g.m,
        rank=rank,
        edge_count=g.m,
        target=target,
        flex_dim=2 * n - rank - 3,
    )


@dataclass(frozen=True)
class Frame:
    """Positions plus one direction per edge (aligned with sorted edges).

    Adjacent joints may coincide; each edge's position difference is some
    scalar multiple (possibly zero) of its direction.
    """

    positions: tuple[Vec2, ...]
    directions: tuple[Vec2, ...]


def _edge_scalar(delta: Vec2, q: Vec2) -> QSqrt3:
    # Solve delta = lam * q for the frame scalar lam.
    if not q[0].is_zero:
        lam = delta[0] / q[0]
    elif not q[1].is_zero:
        lam = delta[1] / q[1]
    else:
        raise ZeroDirection("frame direction is zero")
    if delta[0] != lam * q[0] or delta[1] != lam * q[1]:
        raise InternalInvariantBroken("edge difference not collinear with direction")
    return lam


def frame_lambdas(g: Graph, frame: Frame) -> tuple[QSqrt3, ...]:
    """The per-edge scalars tying positions to directions."""
    pos = frame.positions
    return tuple(
        _edge_scalar(v_sub(pos[u], pos[v]), frame.directions[i])
        for i, (u, v) in enumerate(g.sorted_edges)
    )


def frame_from_partition(sg: SymGraph, tp: TreePartition) -> Frame:
    """Park every vertex on the corner of the one tree it misses."""
    report = verify_tree_partition(sg, tp)
    if not report.ok:
        raise InvalidPartition(f"partition fails: {', '.join(report.failures())}")
    g = sg.graph
    miss = _missing_tree(tp, g.n)
    positions = tuple(E_POINTS[miss[v]] for v in range(g.n))
    tree_of = {}
    for i in range(3):
        for e in tp.trees[i]:
            tree_of[e] = i
    directions = tuple(TREE_DIRECTIONS[tree_of[e]] for e in g.sorted_edges)
    return Frame(positions, directions)


def _missing_tree(tp: TreePartition, n: int) -> list[int]:
    tv = [tp.tree_vertices(i) for i in range(3)]
    miss = []
    for v in range(n):
        absent = [i for i in range(3) if v not in tv[i]]
        if len(absent) != 1:
            raise InvalidPartition(f"vertex {v} is not in exactly two trees")
        miss.append(absent[0])
    return miss


def generalized_rigidity_matrix(g: Graph, frame: Frame) -> ExactMatrix:
    """One row per edge: the direction at the lower endpoint, negated at the other."""
    for (u, v), q in zip(g.sorted_edges, frame.directions):
        if v_is_zero(q):
            raise ZeroDirection(f"direction of edge ({u}, {v}) is zero")
    return _edge_matrix(g, frame.directions)


def adjacent_coincidences(g: Graph, frame: Frame) -> tuple[tuple[int, int], ...]:
    pos = frame.positions
    return tuple(e for e in g.sorted_edges if pos[e[0]] == pos[e[1]])


def _t_candidates(limit: int = 50):
    # 1/2, 1/3, 1/5, 1/7, ... reciprocals of the first `limit` primes.
    primes = []
    x = 2
    while len(primes) < limit:
        if all(x % p for p in primes):
            primes.append(x)
        x += 1
    return [Fraction(1, p) for p in primes]


def pull_apart(sg: SymGraph, tp: TreePartition, frame: Frame) -> Frame:
    """One separation round; a no-op when no adjacent joints coincide.

    Among the coincidence classes containing an edge, the class whose
    rotation representative holds the smallest vertex is split: one
    component of its restriction to one tree moves along the opposite
    side direction, its rotated copies move along the rotated directions,
    and every affected edge direction is re-derived so the frame condition
    survives. The deformation parameter runs through reciprocals of primes
    until the generalized rigidity matrix keeps full row rank and no two
    joint classes collide.
    """
    act = sg.require_action()
    g = sg.graph
    pos = frame.positions
    coincident = adjacent_coincidences(g, frame)
    if not coincident:
        return frame

    n = g.n
    classes: dict[Vec2, list[int]] = {}
    for v in range(n):
        classes.setdefault(pos[v], []).append(v)
    miss = _missing_tree(tp, n)
    for members in classes.values():
        if len({miss[v] for v in members}) != 1:
            raise InternalInvariantBroken("coincidence class spans two corner roles")

    candidates = set()
    for u, _ in coincident:
        members = classes[pos[u]]
        i = miss[u]
        if i == 0:
            rep = members
        elif i == 1:
            rep = [act.gamma2[x] for x in members]
        else:
            rep = [act.gamma[x] for x in members]
        candidates.add(frozenset(rep))
    chosen = min(candidates, key=min)
    if len({pos[x] for x in chosen}) != 1 or {miss[x] for x in chosen} != {0}:
        raise InternalInvariantBroken("normalized class is not a coincidence class")

    part = sorted(chosen)
    part_set = set(part)
    split = None
    for tree_idx, direction in ((2, TREE_DIRECTIONS[1]), (1, TREE_DIRECTIONS[2])):
        inner = [e for e in tp.trees[tree_idx] if e[0] in part_set and e[1] in part_set]
        adj: dict[int, list[int]] = {v: [] for v in part}
        for u, v in inner:
            adj[u].append(v)
            adj[v].append(u)
        stack = [part[0]]
        comp = {part[0]}
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        if len(comp) < len(part):
            split = (comp, direction)
            break
    if split is None:
        raise NoSeparableComponent("class restricted to both trees is connected")

    moving, d0 = split
    disp: dict[int, Vec2] = {}
    d1, d2 = rotate(d0), rotate2(d0)
    for x in moving:
        disp[x] = d0
        disp[act.gamma[x]] = d1
        disp[act.gamma2[x]] = d2

    m = g.m
    sorted_edges = g.sorted_edges
    class_count = len(classes)
    for t in _t_candidates():
        tq = QSqrt3(t)
        new_pos = tuple(
            v_add(pos[x], v_scale(tq, disp[x])) if x in disp else pos[x]
            for x in range(n)
        )
        if len(set(new_pos)) != class_count + 3:
            continue
        new_dirs = []
        for idx, (u, v) in enumerate(sorted_edges):
            du = disp.get(u, ZERO2)
            dv = disp.get(v, ZERO2)
            if du == dv:
                new_dirs.append(frame.directions[idx])
                continue
            dd = v_sub(du, dv)
            delta0 = v_sub(pos[u], pos[v])
            if v_is_zero(delta0):
                new_dirs.append(dd)
            else:
                q_old = frame.directions[idx]
                lam = _edge_scalar(delta0, q_old)
                new_dirs.append(v_add(q_old, v_scale(tq / lam, dd)))
        candidate = Frame(new_pos, tuple(new_dirs))
        if exact_rank(generalized_rigidity_matrix(g, candidate)) == m:
            return candidate
    raise ExhaustedT("no deformation parameter preserved independence")


def pull_apart_fully(
    sg: SymGraph, tp: TreePartition, frame: Frame
) -> tuple[Frame, int]:
    """Iterate separation rounds until no adjacent joints coincide."""
    rounds = 0
    while adjacent_coincidences(sg.graph, frame):
        frame = pull_apart(sg, tp, frame)
        rounds += 1
        if rounds > sg.graph.n:
            raise InternalInvariantBroken("separation failed to terminate")
    return frame, rounds


def framework_from_frame(sg: SymGraph, frame: Frame) -> Placement:
    """Read positions off a separated frame and recenter on the rotation axis.

    The frame's rotation center is the centroid of any vertex orbit; after
    translating it to the origin the placement satisfies the symmetry
    equation exactly. No rank is taken here: the rigidity matrix is the
    generalized one with each row scaled by its edge's nonzero frame scalar,
    so it keeps the full rank ``pull_apart`` accepted, and
    ``numeric_isostatic_check`` reads that rank off the placement.
    """
    act = sg.require_action()
    g = sg.graph
    if adjacent_coincidences(g, frame):
        raise CoincidentAdjacentJoints("adjacent joints still share a position")
    third = QSqrt3(Fraction(1, 3))
    p0 = frame.positions[0]
    orbit_sum = v_add(v_add(p0, frame.positions[act.gamma[0]]), frame.positions[act.gamma2[0]])
    center = v_scale(third, orbit_sum)
    positions = tuple(v_sub(p, center) for p in frame.positions)
    placement = Placement(positions, framework=True)
    if not placement_is_symmetric(sg, placement):
        raise InternalInvariantBroken("recentered frame is not symmetric")
    return placement
