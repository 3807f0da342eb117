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
  whole way. The frame stays in rational (1, w) coordinates until the
  placement is made, the one step that converts to Q(sqrt 3); the
  separation ranks its rows modulo a prime, with exact elimination only on
  a deficit.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
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
    Q_ZERO,
    _P,
    _eliminate,
    _image,
    _residue,
    exact_rank,
)
from .graphs import Graph, SymGraph
from .trees import TreePartition, verify_tree_partition

Vec2 = tuple[QSqrt3, QSqrt3]

# Frame coordinates. Every frame point and direction is a rational
# combination a*1 + b*w of 1 = (1, 0) and w = (-1/2, sqrt(3)/2): the
# reference triangle and the tree directions are such combinations, rotating
# by 120 degrees multiplies by w, and pulling apart adds rational multiples
# of them. The pair (a, b) stands for the point (a - b/2, (b/2)*sqrt(3)), so
# the frame route works on rational pairs and ``from_omega`` converts only
# the final placement.
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


def cross(p: Vec2, q: Vec2) -> QSqrt3:
    return p[0] * q[1] - p[1] * q[0]


def rotate(p: Vec2) -> Vec2:
    """Rotate by 120 degrees about the origin.

    The product (-x/2 - (sqrt(3)/2) y, (sqrt(3)/2) x - y/2), written out in
    the components of x = xa + xb*sqrt(3) and y = ya + yb*sqrt(3).
    """
    x, y = p
    xa, xb, ya, yb = x.a, x.b, y.a, y.b
    return (
        QSqrt3((-xa - 3 * yb) / 2, (-xb - ya) / 2),
        QSqrt3((3 * xb - ya) / 2, (xa - yb) / 2),
    )


def rotate2(p: Vec2) -> Vec2:
    return rotate(rotate(p))


@dataclass(frozen=True)
class Placement:
    """Exact joint positions."""

    positions: tuple[Vec2, ...]

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
            return Placement(tuple(positions))
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
    """Isostatic iff the edge count and the exact rank both hit 2n - 3.

    The rank is taken on the rigidity matrix's image mod P, built straight
    from each position's image, one sparse row per edge with the column
    pairs in ``_degree_order``. The ``ExactMatrix`` is built only when that
    image's rank falls short of min(m, 2n - 3) or a coordinate has no image.
    """
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
    inverses: dict[int, int] = {}
    images = [(_image(x, inverses), _image(y, inverses)) for x, y in pos]
    rows = None
    if all(None not in image for image in images):
        place = _degree_order(g)
        rows = []
        for u, v in g.sorted_edges:
            (xu, yu), (xv, yv) = images[u], images[v]
            rows.append(_row(place[u], place[v], ((xu - xv) % _P, (yu - yv) % _P)))
    matrix = PartialElimination(g.m, 2 * n, {}, rows, lambda: rigidity_matrix(g, placement))
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


def _edge_scalar(delta: Pair, q: Pair) -> Fraction:
    """Solve delta = lam * q for the frame scalar lam."""
    if q[0]:
        lam = delta[0] / q[0]
    elif q[1]:
        lam = delta[1] / q[1]
    else:
        raise ZeroDirection("frame direction is zero")
    if delta[0] != lam * q[0] or delta[1] != lam * q[1]:
        raise InternalInvariantBroken("edge difference not collinear with direction")
    return lam


def frame_lambdas(g: Graph, frame: Frame) -> tuple[Fraction, ...]:
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
    return (QSqrt3(a - b / 2), QSqrt3(0, b / 2))


def rotate_omega(p: Pair) -> Pair:
    """Rotate by 120 degrees: w*(a + b*w) = -b + (a - b)*w, as w^2 = -1 - w."""
    a, b = p
    return (-b, a - b)


# A part of a class moves along the side direction opposite its tree.
_SPLITS = ((2, TREE_DIRECTIONS[1]), (1, TREE_DIRECTIONS[2]))


def _pair_image(q: Pair, inverses: dict[int, int]) -> tuple[int, int] | None:
    """The F_P image of a pair, or None when a coordinate has none."""
    a = _residue(q[0], inverses)
    b = _residue(q[1], inverses)
    return None if a is None or b is None else (a, b)


def _row(u: int, v: int, image: tuple[int, int]) -> dict[int, int]:
    """An edge's sparse F_P row: ``image`` at u's column pair, negated at v's."""
    x, y = image
    row = {}
    if x:
        row[2 * u] = x
        row[2 * v] = _P - x
    if y:
        row[2 * u + 1] = y
        row[2 * v + 1] = _P - y
    return row


def _pair_matrix(g: Graph, directions: Iterable[Pair]) -> ExactMatrix:
    """The generalized rigidity matrix: one row per sorted edge (u, v), its
    direction pair at u's columns, negated at v's.

    With Cartesian directions the matrix would hold B (a, b) in those
    places, where B = [[1, -1/2], [0, sqrt(3)/2]] has the columns 1 and w.
    That matrix is this one times the block diagonal of B's transpose,
    which is invertible: the two have the same rank over Q(sqrt 3), and mod
    P too, where B's image is invertible as S is not zero. The rows that
    ``_row`` builds from ``_pair_image`` are this matrix mod P, with the
    vertices' column pairs in ``_degree_order``.
    """
    return _edge_matrix(g, ((QSqrt3(a), QSqrt3(b)) for a, b in directions))


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


def _directions_at(
    dirs: list[Pair], moved: dict[int, tuple[Pair, Pair]], t: Fraction
) -> list[Pair]:
    """The directions with each moved edge's set to base + t * slope."""
    cur = list(dirs)
    for i, (base, slope) in moved.items():
        cur[i] = v_add(base, v_scale(t, slope))
    return cur


def _t_candidates(limit: int) -> Iterator[Fraction]:
    """1/2, 1/3, 1/5, 1/7, ...: the first ``limit`` prime reciprocals, lazily."""
    primes: list[int] = []
    x = 2
    while len(primes) < limit:
        if all(x % p for p in takewhile(lambda p: p * p <= x, primes)):
            primes.append(x)
            yield Fraction(1, x)
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
    """A frame under separation in (1, w) pairs, carried from round to round.

    Besides positions and directions it keeps each direction's F_P image
    and each edge's ends as the column pairs of its F_P row (by
    ``_degree_order``), the joint classes by number (the class of each
    vertex, the members and the point of each class), the corner each
    vertex was parked on, and the edges whose endpoints still coincide.
    """

    pos: list[Pair]
    dirs: list[Pair]
    images: list[tuple[int, int] | None]
    ends: list[tuple[int, int]]
    joint_class: list[int]
    members: list[list[int]]
    class_at: dict[Pair, int]
    miss: list[int]
    coincident: list[int]
    inverses: dict[int, int]

    @classmethod
    def read(cls, sg: SymGraph, tp: TreePartition, frame: Frame) -> "_LiveFrame":
        edges = sg.graph.sorted_edges
        pos = list(frame.positions)
        dirs = list(frame.directions)
        for (u, v), q in zip(edges, dirs):
            if q == _PAIR_ZERO:
                raise ZeroDirection(f"direction of edge ({u}, {v}) is zero")
        miss = _missing_tree(tp, sg.graph.n)
        class_at: dict[Pair, int] = {}
        joint_class = [class_at.setdefault(p, len(class_at)) for p in pos]
        members: list[list[int]] = [[] for _ in class_at]
        for v, c in enumerate(joint_class):
            members[c].append(v)
        for group in members:
            if len({miss[v] for v in group}) != 1:
                raise InternalInvariantBroken("coincidence class spans two corner roles")
        inverses: dict[int, int] = {}
        images = [_pair_image(q, inverses) for q in dirs]
        place = _degree_order(sg.graph)
        ends = [(place[u], place[v]) for u, v in edges]
        coincident = [i for i, (u, v) in enumerate(edges) if joint_class[u] == joint_class[v]]
        return cls(
            pos, dirs, images, ends, joint_class, members, class_at, miss, coincident, inverses
        )

    def frame(self) -> Frame:
        return Frame(tuple(self.pos), tuple(self.dirs))


def pull_apart(sg: SymGraph, tp: TreePartition, live: _LiveFrame) -> None:
    """One round of ``pull_apart_fully``: split one coincidence class of ``live``.

    The class is, among the classes containing an edge, the one whose
    rotation representative holds the smallest vertex. One component of its
    restriction to one tree moves along the opposite side direction, its
    rotated copies along the rotated directions, and every edge whose
    endpoints move differently gets a direction re-derived so the frame
    condition survives. The deformation parameter runs through reciprocals
    of primes until no two joint classes collide and the generalized
    rigidity matrix keeps full row rank.

    Only the three moving points and the rows of the edges whose endpoints
    move differently, which are affine in the parameter, are derived; the
    other rows are eliminated mod P once, and each candidate reduces only
    the moved rows against them. A deficit mod P falls back to exact
    elimination.
    """
    act = sg.require_action()
    g = sg.graph
    n, m = g.n, g.m
    edges = g.sorted_edges
    pos, dirs, images, ends = live.pos, live.dirs, live.images, live.ends
    joint_class, members, class_at = live.joint_class, live.members, live.class_at
    inverses = live.inverses
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
        for x in copy:
            disp[x] = step

    # Each moved edge's direction is base + t * slope.
    moved: dict[int, tuple[Pair, Pair]] = {}
    for i, (u, v) in enumerate(edges):
        du = disp.get(u, _PAIR_ZERO)
        dv = disp.get(v, _PAIR_ZERO)
        if du == dv:
            continue
        dd = v_sub(du, dv)
        if joint_class[u] == joint_class[v]:
            moved[i] = (dd, _PAIR_ZERO)
        else:
            lam = _edge_scalar(v_sub(pos[u], pos[v]), dirs[i])
            moved[i] = (dirs[i], v_scale(1 / lam, dd))
    lines = [
        (ends[i], _pair_image(base, inverses), _pair_image(slope, inverses))
        for i, (base, slope) in moved.items()
    ]
    lines_have_images = all(None not in line for line in lines)
    kept = [i for i in range(m) if i not in moved]
    pivots: dict[int, dict[int, int]] | None = None
    if all(images[i] is not None for i in kept):
        pivots = {}
        _eliminate((_row(*ends[i], images[i]) for i in kept), pivots)

    # A t fails only by a collision or a rank deficit. Moving copy k lands
    # on an occupied class point p for at most one t per (k, p), as its step
    # is nonzero, and two copies meet for at most one t per pair, as their
    # steps differ: 3 * (classes + 1) values. The moved rows are affine in
    # t, so an m x m minor that is nonzero for some t (the separation step
    # of the symmetric Crapo theorem gives one) is a polynomial of degree at
    # most m, vanishing for at most m values. So one of the first
    # 3 * (classes + 1) + m + 1 candidates is good.
    starts = [pos[copy[0]] for copy in copies]
    limit = 3 * (len(members) + 1) + m + 1
    for t in _t_candidates(limit):
        points = [v_add(s, v_scale(t, d)) for s, d in zip(starts, steps)]
        if len(set(points)) < 3 or any(p in class_at for p in points):
            continue
        r = _residue(t, inverses)
        rows = None
        if lines_have_images and r is not None:
            rows = [
                _row(u, v, ((bx + r * sx) % _P, (by + r * sy) % _P))
                for (u, v), (bx, by), (sx, sy) in lines
            ]
        matrix = PartialElimination(
            m, 2 * n, pivots, rows, lambda: _pair_matrix(g, _directions_at(dirs, moved, t))
        )
        if exact_rank(matrix) == m:
            break
    else:
        raise ExhaustedT(f"none of {limit} deformation parameters preserved independence")

    for copy, point in zip(copies, points):
        c = joint_class[copy[0]]
        gone = set(copy)
        members[c] = [x for x in members[c] if x not in gone]
        class_at[point] = len(members)
        members.append(copy)
        for x in copy:
            joint_class[x] = class_at[point]
            pos[x] = point
    live.dirs = _directions_at(dirs, moved, t)
    for i in moved:
        images[i] = _pair_image(live.dirs[i], inverses)
    # A moved edge's endpoints now lie apart; an unmoved one's kept their offset.
    live.coincident = [i for i in live.coincident if i not in moved]


def pull_apart_fully(
    sg: SymGraph, tp: TreePartition, frame: Frame
) -> tuple[Frame, int]:
    """Separate every pair of coincident adjacent joints; return the rounds taken.

    One live state carries every round of ``pull_apart``.
    """
    sg.require_action()
    live = _LiveFrame.read(sg, tp, frame)
    rounds = 0
    while live.coincident:
        rounds += 1
        if rounds > sg.graph.n:
            raise InternalInvariantBroken("separation failed to terminate")
        pull_apart(sg, tp, live)
    return live.frame(), rounds


def framework_from_frame(sg: SymGraph, frame: Frame) -> Placement:
    """Read positions off a separated frame and recenter on the rotation axis.

    The frame's rotation center is the centroid of any vertex orbit; after
    translating it to the origin, in pairs, and converting each point to
    Q(sqrt 3) the placement satisfies the symmetry equation exactly. No
    rank is taken here: the rigidity matrix is the generalized one with each
    row scaled by its edge's nonzero frame scalar, so it keeps the full rank
    ``pull_apart_fully`` accepted, and ``numeric_isostatic_check`` reads
    that rank off the placement.
    """
    act = sg.require_action()
    g = sg.graph
    if adjacent_coincidences(g, frame):
        raise CoincidentAdjacentJoints("adjacent joints still share a position")
    pos = frame.positions
    orbit_sum = v_add(v_add(pos[0], pos[act.gamma[0]]), pos[act.gamma2[0]])
    center = v_scale(Fraction(1, 3), orbit_sum)
    placement = Placement(tuple(from_omega(v_sub(p, center)) for p in pos))
    if not placement_is_symmetric(sg, placement):
        raise InternalInvariantBroken("recentered frame is not symmetric")
    return placement
