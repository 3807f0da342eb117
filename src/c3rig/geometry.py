"""Symmetric realizations, rigidity matrices, and the frame pipeline.

Placements are exact: every point is a rational (1, w) pair, the rotation by
120 degrees acts about the origin as an integer map of pairs, and symmetry
of a placement is an equation, not an approximation. Two realization routes
are provided.

* Random symmetric positions: one random integer pair per vertex orbit, the
  rest filled in by the rotation; isostaticity is then read off the exact
  rank of the rigidity matrix.
* The frame route: from a verified three-tree partition, park each vertex
  on one corner of a reference triangle, direct each edge along the side
  matching its tree, and then pull coincident joint classes apart along a
  deformation parameter until the degenerate frame becomes an honest
  framework, keeping the generalized rigidity matrix at full row rank the
  whole way. The separation runs on integer pairs over one common scale,
  so a round does no rational arithmetic.

Both routes rank their rows modulo a prime, with exact elimination only on a
deficit. A point reaches Q(sqrt 3) coordinates only in a report or drawing.
"""
from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import takewhile

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
from .field import (
    ExactMatrix,
    PartialElimination,
    QSqrt3,
    _P,
    _SQRT3,
    _eliminate,
    _residue,
    exact_rank,
)
from .graphs import Graph, SymGraph
from .trees import TreePartition, verify_tree_partition

Vec2 = tuple[QSqrt3, QSqrt3]

# Coordinates. Every point and direction is a rational combination a*1 + b*w
# of 1 = (1, 0) and w = (-1/2, sqrt(3)/2): the reference triangle and the
# tree directions are such combinations, rotating by 120 degrees multiplies
# by w, pulling apart adds rational multiples of them, and a generic draw
# picks integer a, b. The pair (a, b) of ints or Fractions stands for the
# point (a - b/2, (b/2)*sqrt(3)), so both routes work on rational pairs and
# ``from_omega`` converts a point only for a report or a drawing.
Pair = tuple[Fraction, Fraction]

_PAIR_ZERO: Pair = (Fraction(0), Fraction(0))

# Reference triangle corners 0, 1 and 1 + w and, per tree, the side
# direction its edges get.
E_POINTS: tuple[Pair, Pair, Pair] = (
    _PAIR_ZERO,
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1)),
)
TREE_DIRECTIONS: tuple[Pair, Pair, Pair] = (
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(1), Fraction(0)),
)


def v_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def v_sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def v_scale(c, p):
    return (c * p[0], c * p[1])


def cross(p: Pair, q: Pair) -> Fraction:
    """The cross product of two pairs: the Cartesian cross product of the
    points they stand for divided by det B = sqrt(3)/2 (see ``_pair_matrix``),
    so zero exactly when that one is."""
    return p[0] * q[1] - p[1] * q[0]


@dataclass(frozen=True)
class Placement:
    """Exact joint positions as (1, w) pairs."""

    positions: tuple[Pair, ...]

    @cached_property
    def cartesian(self) -> tuple[Vec2, ...]:
        """The positions in Q(sqrt 3) coordinates, converted once."""
        return tuple(map(from_omega, self.positions))

    def float_positions(self) -> list[tuple[float, float]]:
        return [_float_point(_cartesian_terms(p)) for p in self.positions]


def placement_is_symmetric(sg: SymGraph, placement: Placement) -> bool:
    """Positions of rotated vertices equal rotated positions, exactly."""
    act = sg.require_action()
    pos = placement.positions
    return all(pos[act.gamma[v]] == rotate_omega(pos[v]) for v in range(sg.graph.n))


# Generic draws take |a|, |b| <= GENERIC_BOUND.
GENERIC_BOUND = 2**31


def symmetric_generic_positions(sg: SymGraph, seed: int) -> Placement:
    """Seeded random integer pair per orbit; images forced by the rotation.

    That is as generic as the rotation allows: a rank-deciding minor of the
    rigidity matrix is a polynomial of degree at most 2n - 3 in the drawn
    integers, nonzero where the graph is isostatic, so by Schwartz-Zippel a
    draw from 2N + 1 values per coordinate, N = ``GENERIC_BOUND``, shows a
    false deficit with probability at most (2n - 3)/(2N + 1). Redraws (up
    to 100 times) whenever two adjacent joints collide, so the result
    satisfies the framework condition.
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
    bound = GENERIC_BOUND
    for _ in range(100):
        positions: list[Pair | None] = [None] * n
        for rep in reps:
            p = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            q = rotate_omega(p)
            positions[rep] = p
            positions[act.gamma[rep]] = q
            positions[act.gamma2[rep]] = rotate_omega(q)
        if all(positions[u] != positions[v] for u, v in sg.graph.edges):
            return Placement(tuple(positions))
    raise ExhaustedRetries("100 draws all produced a coincident edge")


def rigidity_matrix(g: Graph, placement: Placement) -> ExactMatrix:
    """``_pair_matrix`` of the edges' position differences, which has the
    rank of the Cartesian rigidity matrix."""
    pos = placement.positions
    return _pair_matrix(g, (v_sub(pos[u], pos[v]) for u, v in g.sorted_edges))


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
    """Isostatic iff the edge count and the exact rank both hit 2n - 3.

    The rank is taken on the image mod P of ``rigidity_matrix``, one sparse
    row per edge from its pair difference, with the column pairs in
    ``_degree_order``. The exact rows, sparse integer rows in the same
    column order, are built only when that image's rank falls short of
    min(m, 2n - 3) or a difference has no image.
    """
    g = sg.graph
    n = g.n
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    pos = placement.positions
    base = pos[0]
    first = next((v for v in range(1, n) if pos[v] != base), None)
    if first is None or all(
        cross(v_sub(pos[first], base), v_sub(pos[k], base)) == 0 for k in range(n)
    ):
        raise DegenerateSpan("all joints are collinear")
    # Joints not all collinear are not all coincident, so the trivial
    # motions cap the rank at 2n - 3 even when there are more bars.
    target = 2 * n - 3
    place = _degree_order(g)
    ends = [(place[u], place[v]) for u, v in g.sorted_edges]
    diffs = [v_sub(pos[u], pos[v]) for u, v in g.sorted_edges]
    inverses: dict[int, int] = {}
    images = [_pair_image(d, inverses) for d in diffs]
    rows = None if None in images else [_row(*e, im) for e, im in zip(ends, images)]
    matrix = PartialElimination(g.m, 2 * n, {}, rows, lambda: _exact_rows(ends, diffs))
    rank = exact_rank(matrix, target)
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

    Both are (1, w) pairs. Adjacent joints may coincide; each edge's
    position difference is some rational multiple (possibly zero) of its
    direction.
    """

    positions: tuple[Pair, ...]
    directions: tuple[Pair, ...]


def frame_lambdas(g: Graph, frame: Frame) -> tuple[Fraction, ...]:
    """The per-edge scalars lam with position difference = lam * direction."""
    pos = frame.positions
    lams = []
    for (u, v), q in zip(g.sorted_edges, frame.directions):
        delta = v_sub(pos[u], pos[v])
        if q == _PAIR_ZERO:
            raise ZeroDirection("frame direction is zero")
        if cross(delta, q):
            raise InternalInvariantBroken("edge difference not collinear with direction")
        lams.append(delta[0] / q[0] if q[0] else delta[1] / q[1])
    return tuple(lams)


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
    """``_pair_matrix`` of the frame's directions, none of which may be zero."""
    for (u, v), q in zip(g.sorted_edges, frame.directions):
        if q == _PAIR_ZERO:
            raise ZeroDirection(f"direction of edge ({u}, {v}) is zero")
    return _pair_matrix(g, frame.directions)


def adjacent_coincidences(g: Graph, frame: Frame) -> tuple[tuple[int, int], ...]:
    pos = frame.positions
    return tuple(e for e in g.sorted_edges if pos[e[0]] == pos[e[1]])


def from_omega(p: Pair) -> Vec2:
    """The point a*1 + b*w in Q(sqrt 3) coordinates."""
    a, b = p
    half = Fraction(b, 2)
    return (QSqrt3(a - half), QSqrt3(0, half))


def _cartesian_terms(p: Pair) -> tuple[int, int, int, int]:
    """The point a*1 + b*w as x = xn/xd and y = (yn/yd)*sqrt(3), each
    fraction reduced with a positive denominator: ``from_omega``'s numbers
    without building them. ``a`` and ``b`` may be ints or Fractions."""
    a, b = p
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    # b/2 is reduced as it stands when b's numerator is odd
    yn, yd = (bn, 2 * bd) if bn & 1 else (bn >> 1, bd)
    xn, xd = an * yd - yn * ad, ad * yd
    g = math.gcd(xn, xd)
    return xn // g, xd // g, yn, yd


def _float_point(terms: tuple[int, int, int, int]) -> tuple[float, float]:
    """The float view of ``_cartesian_terms``: the values ``float`` gives the
    ``QSqrt3`` coordinates (a correctly rounded division, times sqrt 3)."""
    xn, xd, yn, yd = terms
    return xn / xd, yn / yd * _SQRT3


def rotate_omega(p: Pair) -> Pair:
    """Rotate by 120 degrees: w*(a + b*w) = -b + (a - b)*w, as w^2 = -1 - w."""
    a, b = p
    return (-b, a - b)


def _pair_image(q: Pair, inverses: dict[int, int]) -> tuple[int, int] | None:
    """The F_P image of a pair, or None when a coordinate has none."""
    a = _residue(q[0], inverses)
    b = _residue(q[1], inverses)
    return None if a is None or b is None else (a, b)


def _row(u: int, v: int, image: tuple[int, int], modulus: int = _P) -> dict[int, int]:
    """An edge's sparse row over F_P (or over Z with modulus 0): ``image`` at
    u's column pair, negated at v's."""
    x, y = image
    row = {}
    if x:
        row[2 * u] = x
        row[2 * v] = modulus - x
    if y:
        row[2 * u + 1] = y
        row[2 * v + 1] = modulus - y
    return row


def _primitive(q: Pair) -> Pair:
    """The integer pair with coprime entries (or zero) on the ray of ``q``."""
    scale = math.lcm(q[0].denominator, q[1].denominator)
    a, b = int(q[0] * scale), int(q[1] * scale)
    g = math.gcd(a, b) or 1
    return (a // g, b // g)


def _exact_rows(ends: list[tuple[int, int]], pairs: Iterable[Pair]) -> list[dict[int, int]]:
    """Both routes' exact fallback: ``_pair_matrix``'s rows, each times a
    positive rational, as sparse integer rows with the column pairs ``ends``."""
    return [_row(*e, _primitive(q), 0) for e, q in zip(ends, pairs)]


def _pair_matrix(g: Graph, directions: Iterable[Pair]) -> ExactMatrix:
    """The generalized rigidity matrix: one row per sorted edge (u, v), its
    direction pair at u's column pair, negated at v's.

    With Cartesian directions the matrix would hold B (a, b) in those
    places, where B = [[1, -1/2], [0, sqrt(3)/2]] has the columns 1 and w.
    That matrix is this one times the block diagonal of B's transpose,
    which is invertible: the two have the same rank. A rigidity matrix is
    the case where each direction is the edge's position difference. The
    rows that ``_row`` builds from ``_pair_image`` are this matrix mod P,
    and ``_exact_rows`` builds it over the integers, row by row up to
    scale, both with the vertices' column pairs in ``_degree_order``.
    """
    n = g.n
    rows = []
    for (u, v), (a, b) in zip(g.sorted_edges, directions):
        row = [0] * (2 * n)
        row[2 * u], row[2 * u + 1], row[2 * v], row[2 * v + 1] = a, b, -a, -b
        rows.append(tuple(row))
    return ExactMatrix(g.m, 2 * n, tuple(rows))


def _degree_order(g: Graph) -> list[int]:
    """Each vertex's place when vertices go by degree, then label.

    Used as the column order of every F_P row built from positions or
    directions: eliminating the columns of low-degree vertices first keeps
    the fill-in small, and a column order never changes a rank.
    """
    degree = g.degrees()
    place = [0] * g.n
    for i, v in enumerate(sorted(range(g.n), key=degree.__getitem__)):
        place[v] = i
    return place


def _t_candidates(limit: int) -> Iterator[int]:
    """The parameters t = 1/2, 1/3, 1/5, ... as the primes p = 1/t: the first ``limit``, lazily."""
    primes: list[int] = []
    x = 2
    while len(primes) < limit:
        if all(x % p for p in takewhile(lambda p: p * p <= x, primes)):
            primes.append(x)
            yield x
        x += 1


def _class_to_split(sg: SymGraph, coincident, joint_class, members, miss) -> list[int]:
    """The class to split, rotated to the corner of tree 0, in sorted order.

    Among the coincidence classes containing an edge, the one whose rotation
    representative at that corner holds the smallest vertex.
    """
    act = sg.require_action()
    edges = sg.graph.sorted_edges
    best: list[int] | None = None
    for c in {joint_class[edges[i][0]] for i in coincident}:
        back = (None, act.gamma2, act.gamma)[miss[members[c][0]]]
        rep = members[c] if back is None else [back[x] for x in members[c]]
        if best is None or min(rep) < min(best):
            best = rep
    if len({joint_class[x] for x in best}) != 1 or {miss[x] for x in best} != {0}:
        raise InternalInvariantBroken("normalized class is not a coincidence class")
    return sorted(best)


# A part of a class moves along the side direction opposite its tree.
_SPLITS = ((2, _primitive(TREE_DIRECTIONS[1])), (1, _primitive(TREE_DIRECTIONS[2])))


def _separable_component(part: list[int], tp: TreePartition) -> tuple[set[int], Pair]:
    """A proper part of the class connected in tree 2 or else in tree 1."""
    part_set = set(part)
    for tree, direction in _SPLITS:
        adj: dict[int, list[int]] = {v: [] for v in part}
        for u, v in tp.trees[tree]:
            if u in part_set and v in part_set:
                adj[u].append(v)
                adj[v].append(u)
        stack = [part[0]]
        comp = {part[0]}
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        if len(comp) < len(part):
            return comp, direction
    raise NoSeparableComponent("class restricted to both trees is connected")


@dataclass
class _LiveFrame:
    """A frame under separation, in integer (1, w) pairs, from round to round.

    The joints are kept as classes by number: the class of each vertex, the
    members and the point of each class, an integer pair X standing for
    X / ``scale``. Each edge has a ``_primitive`` integer direction, its F_P
    image and its ends as the column pairs of its F_P row (by
    ``_degree_order``). Also kept: the corner each vertex was parked on, the
    edges whose endpoints still coincide, and the edges a round has turned.
    """

    scale: int
    points: list[Pair]
    joint_class: list[int]
    members: list[list[int]]
    dirs: list[Pair]
    images: list[Pair]
    ends: list[tuple[int, int]]
    miss: list[int]
    coincident: list[int]
    turned: set[int]

    @classmethod
    def read(cls, sg: SymGraph, tp: TreePartition, frame: Frame) -> "_LiveFrame":
        """Refuses a zero direction, or one not parallel to the position
        difference of an edge whose ends are apart; the rounds keep that."""
        edges = sg.graph.sorted_edges
        miss = _missing_tree(tp, sg.graph.n)
        class_of: dict[Pair, int] = {}
        joint_class = [class_of.setdefault(p, len(class_of)) for p in frame.positions]
        members: list[list[int]] = [[] for _ in class_of]
        for v, c in enumerate(joint_class):
            members[c].append(v)
        for group in members:
            if len({miss[v] for v in group}) != 1:
                raise InternalInvariantBroken("coincidence class spans two corner roles")
        scale = math.lcm(*(x.denominator for p in class_of for x in p))
        points = [(int(a * scale), int(b * scale)) for a, b in class_of]
        dirs = [_primitive(q) for q in frame.directions]
        for (u, v), q in zip(edges, dirs):
            if q == (0, 0):
                raise ZeroDirection(f"direction of edge ({u}, {v}) is zero")
            if cross(v_sub(points[joint_class[u]], points[joint_class[v]]), q):
                raise InternalInvariantBroken(f"edge ({u}, {v}) is not along its direction")
        images = [(a % _P, b % _P) for a, b in dirs]
        place = _degree_order(sg.graph)
        ends = [(place[u], place[v]) for u, v in edges]
        coincident = [i for i, (u, v) in enumerate(edges) if joint_class[u] == joint_class[v]]
        return cls(scale, points, joint_class, members, dirs, images, ends, miss, coincident, set())

    def frame(self, g: Graph, start: Frame) -> Frame:
        """The frame in rational pairs: each point X / ``scale``, and each
        turned edge's direction its position difference."""
        d, points, joint_class = self.scale, self.points, self.joint_class
        positions = [(Fraction(x, d), Fraction(y, d)) for x, y in points]
        directions = list(start.directions)
        for i in self.turned:
            u, v = g.sorted_edges[i]
            x, y = v_sub(points[joint_class[u]], points[joint_class[v]])
            directions[i] = (Fraction(x, d), Fraction(y, d))
        return Frame(tuple(positions[c] for c in joint_class), tuple(directions))


def _on_a_class(point: Pair, p: int, occupied: set[Pair]) -> bool:
    """Whether ``point`` at the scale p * D is one of the class points
    ``occupied`` at the scale D: whether it is p * X for one of them."""
    x, y = point
    return not x % p and not y % p and (x // p, y // p) in occupied


def pull_apart(sg: SymGraph, tp: TreePartition, live: _LiveFrame) -> None:
    """One round of ``pull_apart_fully``: split one coincidence class of ``live``.

    The class is, among the classes containing an edge, the one whose
    rotation representative holds the smallest vertex. One component of its
    restriction to one tree moves along the opposite side direction, its
    rotated copies along the rotated directions, and every edge whose
    endpoints move differently turns to its new position difference, so the
    frame condition survives. The deformation parameter runs through t = 1/p
    for the primes p until no two joint classes collide and the generalized
    rigidity matrix keeps full row rank.

    All in integers: at t = 1/p a point X / D (D = ``scale``) moving by d
    goes to (p X + D d) / (p D), so a turned edge's row, taken at
    p delta + D dd (delta = X_u - X_v, dd = d_u - d_v), is a nonzero multiple
    of its new position difference and affine in p. The other rows are
    eliminated mod P once; each candidate reduces only the turned rows
    against them, and only a deficit mod P falls back to exact elimination.
    """
    act = sg.require_action()
    g = sg.graph
    n, m = g.n, g.m
    scale, points, joint_class, members = live.scale, live.points, live.joint_class, live.members
    dirs, images, ends = live.dirs, live.images, live.ends
    part = _class_to_split(sg, live.coincident, joint_class, members, live.miss)
    comp, d0 = _separable_component(part, tp)
    steps = (d0, rotate_omega(d0), rotate_omega(rotate_omega(d0)))
    first = sorted(comp)
    copies = (first, [act.gamma[x] for x in first], [act.gamma2[x] for x in first])
    disp: dict[int, Pair] = {}
    for copy, step in zip(copies, steps):
        c = joint_class[copy[0]]
        if any(joint_class[x] != c for x in copy) or len(members[c]) == len(copy):
            raise InternalInvariantBroken("moving copies are not parts of rotated classes")
        disp.update(dict.fromkeys(copy, step))

    turning: dict[int, tuple[Pair, Pair]] = {}  # edge: (delta, D dd)
    for i, (u, v) in enumerate(g.sorted_edges):
        du, dv = disp.get(u, (0, 0)), disp.get(v, (0, 0))
        if du != dv:
            delta = v_sub(points[joint_class[u]], points[joint_class[v]])
            turning[i] = (delta, v_scale(scale, v_sub(du, dv)))
    lines = [
        (ends[i], (dx % _P, dy % _P), (ex % _P, ey % _P))
        for i, ((dx, dy), (ex, ey)) in turning.items()
    ]
    kept = [i for i in range(m) if i not in turning]
    pivots: dict[int, dict[int, int]] = {}
    _eliminate((_row(*ends[i], images[i]) for i in kept), pivots)

    def turned_at(p: int) -> list[Pair]:
        return [v_add(v_scale(p, delta), dd) for delta, dd in turning.values()]

    def exact_rows(p: int) -> list[dict[int, int]]:
        now = dict(zip(turning, turned_at(p)))
        return _exact_rows(ends, [now.get(i, q) for i, q in enumerate(dirs)])

    # A t fails only by a collision or a rank deficit. Moving copy k lands
    # on an occupied class point for at most one t per class, as its step
    # is nonzero, and two copies meet for at most one t per pair, as their
    # steps differ: 3 * (classes + 1) values. The turned rows are affine in
    # p, so an m x m minor that is nonzero for some p (the separation step
    # of the symmetric Crapo theorem gives one) is a polynomial of degree at
    # most m, vanishing for at most m values. So one of the first
    # 3 * (classes + 1) + m + 1 candidates is good.
    starts = [points[joint_class[copy[0]]] for copy in copies]
    occupied = set(points)
    limit = 3 * (len(members) + 1) + m + 1
    for p in _t_candidates(limit):
        # the copies' new points at the scale p * D
        landed = [(p * x + scale * a, p * y + scale * b) for (x, y), (a, b) in zip(starts, steps)]
        if len(set(landed)) < 3 or any(_on_a_class(q, p, occupied) for q in landed):
            continue
        rows = [
            _row(u, v, ((dx * p + ex) % _P, (dy * p + ey) % _P))
            for (u, v), (dx, dy), (ex, ey) in lines
        ]
        if exact_rank(PartialElimination(m, 2 * n, pivots, rows, lambda: exact_rows(p))) == m:
            break
    else:
        raise ExhaustedT(f"none of {limit} deformation parameters preserved independence")

    # Accepting p puts every point at the scale p * D.
    live.scale = p * scale
    points[:] = [(p * x, p * y) for x, y in points]
    for copy, point in zip(copies, landed):
        c = joint_class[copy[0]]
        gone = set(copy)
        members[c] = [x for x in members[c] if x not in gone]
        for x in copy:
            joint_class[x] = len(members)
        members.append(copy)
        points.append(point)
    for i, q in zip(turning, turned_at(p)):
        a, b = dirs[i] = _primitive(q)
        images[i] = (a % _P, b % _P)
    live.turned.update(turning)
    # A turned edge's endpoints now lie apart; another kept their offset.
    live.coincident = [i for i in live.coincident if i not in turning]


def pull_apart_fully(
    sg: SymGraph, tp: TreePartition, frame: Frame
) -> tuple[Frame, int]:
    """Separate every pair of coincident adjacent joints; return the rounds taken.

    One live state carries every round of ``pull_apart``, in integers.
    """
    sg.require_action()
    live = _LiveFrame.read(sg, tp, frame)
    rounds = 0
    while live.coincident:
        rounds += 1
        if rounds > sg.graph.n:
            raise InternalInvariantBroken("separation failed to terminate")
        pull_apart(sg, tp, live)
    return live.frame(sg.graph, frame), rounds


def framework_from_frame(sg: SymGraph, frame: Frame) -> Placement:
    """Read positions off a separated frame and recenter on the rotation axis.

    The frame's rotation center is the centroid of any vertex orbit; after
    translating it to the origin the placement satisfies the symmetry
    equation exactly. No rank is taken here: the rigidity matrix is the
    generalized one with each row scaled by its edge's nonzero frame scalar,
    so it keeps the full rank ``pull_apart_fully`` accepted, and
    ``numeric_isostatic_check`` reads that rank off the placement.
    """
    act = sg.require_action()
    g = sg.graph
    if adjacent_coincidences(g, frame):
        raise CoincidentAdjacentJoints("adjacent joints still share a position")
    pos = frame.positions
    orbit_sum = v_add(v_add(pos[0], pos[act.gamma[0]]), pos[act.gamma2[0]])
    center = v_scale(Fraction(1, 3), orbit_sum)
    placement = Placement(tuple(v_sub(p, center) for p in pos))
    if not placement_is_symmetric(sg, placement):
        raise InternalInvariantBroken("recentered frame is not symmetric")
    return placement
