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
  so a round does no rational arithmetic. Its rounds run speculatively,
  taking no rank, and one offline pass then eliminates the rows of every
  round mod P, sharing the rows that rounds have in common.

Both routes rank their rows modulo a prime, with exact elimination only on a
deficit. A point reaches Cartesian coordinates only in a report or drawing,
through ``_cartesian_terms``.
"""
from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile

from .errors import (
    C3RigError,
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
    PartialElimination,
    _P,
    _residue,
    _round_pivots,
    exact_rank,
)
from .graphs import Graph, SymGraph
from .pebble import SparsityReport
from .trees import TreePartition, verify_tree_partition

# Coordinates. Every point and direction is a rational combination a*1 + b*w
# of 1 = (1, 0) and w = (-1/2, sqrt(3)/2): the reference triangle and the
# tree directions are such combinations, rotating by 120 degrees multiplies
# by w, pulling apart adds rational multiples of them, and a generic draw
# picks integer a, b. The pair (a, b) of ints or Fractions stands for the
# point (a - b/2, (b/2)*sqrt(3)), so both routes work on rational pairs and
# ``_cartesian_terms`` converts a point only for a report or a drawing.
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


def rigidity_matrix(g: Graph, placement: Placement) -> PartialElimination:
    """``_pair_matrix`` of the edges' position differences, which has the
    rank of the Cartesian rigidity matrix."""
    pos = placement.positions
    return _pair_matrix(g, [v_sub(pos[u], pos[v]) for u, v in g.sorted_edges])


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

    The rank is ``exact_rank`` of ``rigidity_matrix``, built once: its
    exact rows are built only when its image mod P falls short of
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

    Both are (1, w) pairs. Adjacent joints may coincide; each edge's
    position difference is some rational multiple (possibly zero) of its
    direction.
    """

    positions: tuple[Pair, ...]
    directions: tuple[Pair, ...]


def frame_from_partition(
    sg: SymGraph, tp: TreePartition, sparsity: SparsityReport | None = None
) -> Frame:
    """Park every vertex on the corner of the one tree it misses.

    The partition is verified first; ``sparsity`` is handed to
    ``verify_tree_partition``.
    """
    report = verify_tree_partition(sg, tp, sparsity)
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


def generalized_rigidity_matrix(g: Graph, frame: Frame) -> PartialElimination:
    """``_pair_matrix`` of the frame's directions, none of which may be zero."""
    for (u, v), q in zip(g.sorted_edges, frame.directions):
        if q == _PAIR_ZERO:
            raise ZeroDirection(f"direction of edge ({u}, {v}) is zero")
    return _pair_matrix(g, frame.directions)


def adjacent_coincidences(g: Graph, frame: Frame) -> tuple[tuple[int, int], ...]:
    pos = frame.positions
    return tuple(e for e in g.sorted_edges if pos[e[0]] == pos[e[1]])


def _cartesian_terms(p: Pair) -> tuple[int, int, int, int]:
    """The point a*1 + b*w as x = xn/xd and y = (yn/yd)*sqrt(3), each
    fraction reduced with a positive denominator: xn/xd = a - b/2 and
    yn/yd = b/2. ``a`` and ``b`` may be ints or Fractions."""
    a, b = p
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    # b/2 is reduced as it stands when b's numerator is odd
    yn, yd = (bn, 2 * bd) if bn & 1 else (bn >> 1, bd)
    xn, xd = an * yd - yn * ad, ad * yd
    g = math.gcd(xn, xd)
    return xn // g, xd // g, yn, yd


_SQRT3 = math.sqrt(3.0)


def _float_point(terms: tuple[int, int, int, int]) -> tuple[float, float]:
    """The float view of ``_cartesian_terms``: x as a correctly rounded
    division, and y as one times sqrt 3."""
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
    x, y = q
    scale = math.lcm(x.denominator, y.denominator)
    a, b = x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator)
    g = math.gcd(a, b) or 1
    return (a // g, b // g)


def _exact_rows(ends: list[tuple[int, int]], pairs: Iterable[Pair]) -> list[dict[int, int]]:
    """Both routes' exact fallback: ``_pair_matrix``'s rows, each times a
    positive rational, as sparse integer rows with the column pairs ``ends``."""
    return [_row(*e, _primitive(q), 0) for e, q in zip(ends, pairs)]


def _pair_matrix(g: Graph, pairs: Sequence[Pair]) -> PartialElimination:
    """The generalized rigidity matrix: one row per sorted edge (u, v), its
    pair at u's column pair, negated at v's, with the vertices' column pairs
    in ``_degree_order``. The package's one matrix builder.

    With Cartesian directions the matrix would hold B (a, b) in those
    places, where B = [[1, -1/2], [0, sqrt(3)/2]] has the columns 1 and w.
    That matrix is this one times the block diagonal of B's transpose,
    which is invertible: the two have the same rank. A rigidity matrix is
    the case where each pair is the edge's position difference. Its rows
    mod P come from ``_pair_image`` and ``_row`` (None when a pair has no
    image); ``_exact_rows`` builds its rows over the integers, each up to
    scale, only when ``exact_rank`` asks for them.
    """
    place = _degree_order(g)
    ends = [(place[u], place[v]) for u, v in g.sorted_edges]
    inverses: dict[int, int] = {}
    images = [_pair_image(q, inverses) for q in pairs]
    rows = None if None in images else [_row(*e, im) for e, im in zip(ends, images)]
    return PartialElimination(g.m, 2 * g.n, {}, rows, lambda: _exact_rows(ends, pairs))


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


# The primes found so far, kept for every later round.
_PRIMES = [2]


def _t_candidates(limit: int) -> Iterator[int]:
    """The parameters t = 1/2, 1/3, 1/5, ... as the primes p = 1/t: the first
    ``limit``, lazily, each found by trial division only the first time."""
    primes = _PRIMES
    for k in range(limit):
        if k == len(primes):
            x = primes[-1] + 1
            while not all(x % p for p in takewhile(lambda p: p * p <= x, primes)):
                x += 1
            primes.append(x)
        yield primes[k]


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
    X / ``scale``. Each edge has a ``_primitive`` integer direction and its
    ends as the column pairs of its row (by ``_degree_order``); each vertex,
    the indices of its edges. Also kept: the corner each vertex was parked
    on, the edges whose endpoints still coincide, and the edges a round has
    turned.
    """

    scale: int
    points: list[Pair]
    joint_class: list[int]
    members: list[list[int]]
    dirs: list[Pair]
    ends: list[tuple[int, int]]
    incident: list[list[int]]
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
        incident: list[list[int]] = [[] for _ in range(sg.graph.n)]
        for i, ((u, v), q) in enumerate(zip(edges, dirs)):
            if q == (0, 0):
                raise ZeroDirection(f"direction of edge ({u}, {v}) is zero")
            if cross(v_sub(points[joint_class[u]], points[joint_class[v]]), q):
                raise InternalInvariantBroken(f"edge ({u}, {v}) is not along its direction")
            incident[u].append(i)
            incident[v].append(i)
        place = _degree_order(sg.graph)
        ends = [(place[u], place[v]) for u, v in edges]
        coincident = [i for i, (u, v) in enumerate(edges) if joint_class[u] == joint_class[v]]
        return cls(
            scale, points, joint_class, members, dirs, ends, incident, miss, coincident, set()
        )

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


# A round's split: the three moving copies, their steps, and each turning
# edge's (delta, D dd) by index.
_Split = tuple[tuple[list[int], ...], tuple[Pair, ...], dict[int, tuple[Pair, Pair]]]


def _plan(sg: SymGraph, tp: TreePartition, live: _LiveFrame) -> _Split:
    """The split of the next round of ``live``.

    The class is, among the classes containing an edge, the one whose
    rotation representative holds the smallest vertex. One component of its
    restriction to one tree moves along the opposite side direction, its
    rotated copies along the rotated directions, and every edge whose
    endpoints move differently turns to its new position difference, so the
    frame condition survives: at t = 1/p a point X / D (D = ``scale``)
    moving by d goes to (p X + D d) / (p D), so the edge's row, taken at
    p delta + D dd (delta = X_u - X_v, dd = d_u - d_v), is a nonzero
    multiple of its new position difference and affine in p.
    """
    act = sg.require_action()
    edges = sg.graph.sorted_edges
    scale, points, joint_class, members = live.scale, live.points, live.joint_class, live.members
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
    turning: dict[int, tuple[Pair, Pair]] = {}
    for i in sorted({i for x in disp for i in live.incident[x]}):
        u, v = edges[i]
        du, dv = disp.get(u, (0, 0)), disp.get(v, (0, 0))
        if du != dv:
            delta = v_sub(points[joint_class[u]], points[joint_class[v]])
            turning[i] = (delta, v_scale(scale, v_sub(du, dv)))
    return copies, steps, turning


def _accept(live: _LiveFrame, split: _Split, p: int, landed: list[Pair]) -> None:
    """Take the split at t = 1/p, which puts every point at the scale p * D."""
    copies, _, turning = split
    points, joint_class, members = live.points, live.joint_class, live.members
    live.scale *= p
    points[:] = [(p * x, p * y) for x, y in points]
    for copy, point in zip(copies, landed):
        c = joint_class[copy[0]]
        gone = set(copy)
        members[c] = [x for x in members[c] if x not in gone]
        for x in copy:
            joint_class[x] = len(members)
        members.append(copy)
        points.append(point)
    for i, (delta, dd) in turning.items():
        live.dirs[i] = _primitive(v_add(v_scale(p, delta), dd))
    live.turned.update(turning)
    # A turned edge's endpoints now lie apart; another kept their offset.
    live.coincident = [i for i in live.coincident if i not in turning]


def pull_apart(
    sg: SymGraph, tp: TreePartition, live: _LiveFrame, skip: int = 0
) -> tuple[_Split, int, list[Pair]]:
    """One round of separation: take ``_plan``'s split of ``live`` at the
    first t = 1/p at which no moving copy lands on a class or on another
    copy, past the first ``skip`` such t. No rank is taken here;
    ``pull_apart_fully`` proves it. Returns what ``_accept`` took.
    """
    split = _plan(sg, tp, live)
    copies, steps, _ = split
    scale, points = live.scale, live.points
    starts = [points[live.joint_class[copy[0]]] for copy in copies]
    occupied = set(points)
    # A t fails only by a collision or a rank deficit. Moving copy k lands
    # on an occupied class point for at most one t per class, as its step
    # is nonzero, and two copies meet for at most one t per pair, as their
    # steps differ: 3 * (classes + 1) values. The turned rows are affine in
    # p, so an m x m minor that is nonzero for some p (the separation step
    # of the symmetric Crapo theorem gives one) is a polynomial of degree at
    # most m, vanishing for at most m values. So one of the first
    # 3 * (classes + 1) + m + 1 candidates is good.
    limit = 3 * (len(live.members) + 1) + sg.graph.m + 1
    for p in _t_candidates(limit):
        # the copies' new points at the scale p * D
        landed = [(p * x + scale * a, p * y + scale * b) for (x, y), (a, b) in zip(starts, steps)]
        if len(set(landed)) < 3 or any(_on_a_class(q, p, occupied) for q in landed):
            continue
        if not skip:
            break
        skip -= 1
    else:
        raise ExhaustedT(f"none of {limit} deformation parameters preserved independence")
    _accept(live, split, p, landed)
    return split, p, landed


def _first_short_round(
    g: Graph, ends: list[tuple[int, int]], history: list[tuple[int, Pair, int, int]],
    lo: int, hi: int,
) -> int | None:
    """The first round of lo..hi whose generalized rigidity matrix
    ``exact_rank`` finds short of full row rank, or None. ``history`` holds
    (edge, direction, a, b): the edge's direction in the rounds a..b."""
    versions = [(_row(*ends[i], (x % _P, y % _P)), a, b) for i, (x, y), a, b in history]
    for j, pivots in _round_pivots(versions, lo, hi):

        def integer_rows() -> list[dict[int, int]]:
            now = [(ends[i], q) for i, q, a, b in history if a <= j <= b]
            return _exact_rows(*zip(*now))

        if exact_rank(PartialElimination(g.m, 2 * g.n, pivots, [], integer_rows)) < g.m:
            return j
    return None


def pull_apart_fully(
    sg: SymGraph, tp: TreePartition, frame: Frame
) -> tuple[Frame, int]:
    """Separate every pair of coincident adjacent joints; return the rounds taken.

    The rounds are those of ``pull_apart`` on one live state, run
    speculatively: each takes its first collision-free t with no rank, and
    each edge's directions are kept with the rounds that hold them. Then
    ``_first_short_round`` ranks every round in one offline pass, so each t
    is the first collision-free one at full rank. At the first round short
    of full rank the rounds before it are replayed on a fresh state, and
    speculation starts again from that round at its next collision-free t.
    A speculative round that fails raises once the rounds before it hold.
    """
    sg.require_action()
    g = sg.graph
    live = _LiveFrame.read(sg, tp, frame)
    taken: list[tuple[_Split, int, list[Pair]]] = []
    skip = 0
    while live.coincident:
        lo, failed = len(taken) + 1, None
        held, since, history = live.dirs[:], [lo] * g.m, []
        try:
            while live.coincident:
                if len(taken) == g.n:
                    raise InternalInvariantBroken("separation failed to terminate")
                # only round lo skips the t found short before
                taken.append(pull_apart(sg, tp, live, skip if len(taken) + 1 == lo else 0))
                for i in taken[-1][0][2]:
                    history.append((i, held[i], since[i], len(taken) - 1))
                    held[i], since[i] = live.dirs[i], len(taken)
        except C3RigError as error:
            failed = error
        history += [(i, q, a, len(taken)) for i, (q, a) in enumerate(zip(held, since))]
        bad = _first_short_round(g, live.ends, history, lo, len(taken))
        if bad is None:
            if failed is not None:
                raise failed
        else:
            skip = skip + 1 if bad == lo else 1
            del taken[bad - 1 :]
            live = _LiveFrame.read(sg, tp, frame)
            for step in taken:
                _accept(live, *step)
    return live.frame(g, frame), len(taken)


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
