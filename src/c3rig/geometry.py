"""Symmetric realizations, rigidity matrices, and the frame pipeline.

Placements are exact: every point is an integer (1, w) pair over one common
scale, the rotation by 120 degrees acts about the origin as an integer map
of pairs, and symmetry of a placement is an equation, not an approximation.
Two realization routes are provided.

* Random symmetric positions: one random integer pair per vertex orbit, the
  rest filled in by the rotation; isostaticity is then read off the rank
  of the rigidity matrix.
* The frame route: from a verified three-tree partition, park each vertex
  on one corner of a reference triangle, direct each edge along the side
  matching its tree, and then pull coincident joint classes apart along a
  deformation parameter until the degenerate frame becomes an honest
  framework, keeping the generalized rigidity matrix at full row rank the
  whole way. The separation runs on integer pairs, each over the scale it
  was written at, so a round does no rational arithmetic and touches only
  the classes it moves. Its rounds run speculatively, taking no rank, and
  one offline pass then eliminates the rows of every round mod P, sharing
  the rows that rounds have in common. The separation verifies the
  partition and reads its start from it (``_LiveFrame.read``): the
  verified partition makes the parked frame symmetric, and every round
  keeps it so, so the rows are those of two orbit blocks. It returns the
  framework it ends with, recentred on the rotation axis, whose rank is
  the last round's proof; the parked frame is never built along the way.

Both routes rank their rows modulo a prime only, and a shortfall mod P
proves nothing: the frame route skips such a round as it skips a collision,
and the placement check reports it as inconclusive. The rank of a placement
symmetric under a rotation that fixes no vertex is proven through two orbit
blocks mod P (``field._orbit_blocks``). A point reaches Cartesian
coordinates only in a report or drawing, through ``_cartesian_terms``.
"""
from __future__ import annotations

import heapq
import math
import random
from collections.abc import Callable, Iterator, Sequence
from dataclasses import asdict, dataclass
from itertools import takewhile

from .errors import (
    C3RigError,
    DegenerateSpan,
    ExhaustedRetries,
    ExhaustedT,
    InternalInvariantBroken,
    InvalidPartition,
    NoSeparableComponent,
    TooFewVertices,
    FixedVertexPresent,
)
from .field import (
    PartialElimination,
    _OrbitBlocks,
    _P,
    _orbit_blocks,
    _round_pivots,
    exact_rank,
)
from .graphs import C3Action, Graph, SymGraph
from .pebble import PebbleGame, _play_in_degree_order
from .trees import TreePartition, verify_tree_partition

# Coordinates. Every point and direction is a combination a*1 + b*w of
# 1 = (1, 0) and w = (-1/2, sqrt(3)/2): the reference triangle and the tree
# directions are such combinations, rotating by 120 degrees multiplies by w,
# pulling apart adds rational multiples of them, and a generic draw picks
# integer a, b. The integer pair (a, b) over a positive scale D stands for
# the point (a - b/2, (b/2)*sqrt(3)) / D; a direction is a ray, so its
# pair's scale does not matter. Both routes work on integer pairs, and only
# ``_cartesian_terms`` divides by the scale, for a report or a drawing.
Pair = tuple[int, int]

_PAIR_ZERO: Pair = (0, 0)

# Reference triangle corners 0, 1 and 1 + w and, per tree, the side
# direction its edges get: the rotation about the triangle's centre takes
# corner i to corner i + 1, and w times direction i is direction i + 1.
E_POINTS: tuple[Pair, Pair, Pair] = (_PAIR_ZERO, (1, 0), (1, 1))
TREE_DIRECTIONS: tuple[Pair, Pair, Pair] = ((0, 1), (-1, -1), (1, 0))


def v_sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def cross(p: Pair, q: Pair) -> int:
    """The cross product of two pairs: the Cartesian cross product of the
    points they stand for divided by det B = sqrt(3)/2 (see ``_pair_matrix``),
    so zero exactly when that one is."""
    return p[0] * q[1] - p[1] * q[0]


@dataclass(frozen=True)
class Placement:
    """Exact joint positions: integer (1, w) pairs over ``scale``."""

    positions: tuple[Pair, ...]
    scale: int = 1

    def __post_init__(self):
        # images mod P and report fractions are taken of ints only
        scale = self.scale
        if type(scale) is not int or scale < 1 or not all(
            type(a) is int and type(b) is int for a, b in self.positions
        ):
            raise TypeError("expected integer pairs over a positive integer scale")

    def float_positions(self) -> list[tuple[float, float]]:
        return [_float_point(_cartesian_terms(p, self.scale)) for p in self.positions]


def _rotates_with(act: C3Action, pos: Sequence[Pair]) -> bool:
    return all(pos[act.gamma[v]] == rotate_omega(pos[v]) for v in range(act.n))


# Generic draws take |a|, |b| <= GENERIC_BOUND.
GENERIC_BOUND = 2**31


def symmetric_generic_positions(sg: SymGraph, seed: int) -> Placement:
    """Seeded random integer pair per orbit; images forced by the rotation.

    That is as generic as the rotation allows: a rank-deciding minor of the
    rigidity matrix is a polynomial of degree at most 2n - 3 in the drawn
    integers, nonzero where the graph is isostatic, so by Schwartz-Zippel a
    draw from 2N + 1 values per coordinate, N = ``GENERIC_BOUND``, makes it
    vanish over Q with probability at most (2n - 3)/(2N + 1). That bounds
    no rank mod P, which ``numeric_isostatic_check`` takes: P may divide
    every coefficient of a minor. Redraws (up to 100 times) whenever two
    adjacent joints collide, so the result satisfies the framework
    condition.
    """
    act = sg.require_action()
    n = sg.graph.n
    if act.fixed_vertices():
        raise FixedVertexPresent(
            f"vertex {act.fixed_vertices()[0]} is fixed and would sit at the center"
        )
    # the smallest vertex of each orbit, in increasing order
    reps = [v for v, a, b in zip(range(n), act.gamma, act.gamma2) if v < a and v < b]
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


def rigidity_matrix(
    g: Graph, placement: Placement, action: C3Action | None = None
) -> PartialElimination:
    """``_pair_matrix`` of the edges' position differences, which has the
    rank of the Cartesian rigidity matrix. Given the rotation ``action``
    of a placement that is symmetric under it, with no vertex fixed, its
    rows mod P are two orbit blocks (see ``field._orbit_blocks``), one row
    in each per edge orbit, so only the edges that stand for their orbits
    have their differences taken.

    The differences are taken of the integer pairs, not over the scale,
    which scales every row by it and keeps the rank.
    """
    pos = placement.positions
    if action is not None and (action.fixed_vertices() or not _rotates_with(action, pos)):
        action = None
    edges = g.sorted_edges

    def difference(i: int) -> Pair:
        u, v = edges[i]
        return v_sub(pos[u], pos[v])

    return _pair_matrix(g, difference, action)


@dataclass(frozen=True)
class RankVerdict:
    """Rank reading of a placement. An inconclusive one has no ``rank``,
    ``isostatic``, ``independent`` or ``flex_dim``: its rank mod P,
    ``rank_mod_p``, fell short of ``ceiling``, the rank of the graph's
    (2,3)-sparsity matroid, which proves nothing about the graph."""

    isostatic: bool | None
    independent: bool | None
    rank: int | None
    edge_count: int
    target: int
    flex_dim: int | None
    rank_mod_p: int | None = None
    ceiling: int | None = None

    @classmethod
    def of(cls, g: Graph, rank: int) -> "RankVerdict":
        """The reading of ``g`` at a placement of rank ``rank``, whose joints
        are not all collinear: isostatic iff the edge count and the rank both
        hit 2n - 3."""
        target = 2 * g.n - 3
        return cls(
            isostatic=g.m == target and rank == target,
            independent=rank == g.m,
            rank=rank,
            edge_count=g.m,
            target=target,
            flex_dim=2 * g.n - rank - 3,
        )

    @property
    def inconclusive(self) -> bool:
        return self.rank is None

    def as_json_dict(self) -> dict:
        """Its fields, with ``inconclusive: true`` and the last two fields
        on an inconclusive reading only."""
        report = asdict(self)
        if self.inconclusive:
            report["inconclusive"] = True
        else:
            del report["rank_mod_p"], report["ceiling"]
        return report


def numeric_isostatic_check(sg: SymGraph, placement: Placement) -> RankVerdict:
    """Isostatic iff the edge count and the rank both hit 2n - 3.

    The rank is ``exact_rank`` of ``rigidity_matrix``, built once and given
    the rotation, so a symmetric placement is ranked through its orbit
    blocks mod P, against 2n - 3 first. Short of that, it is ranked again,
    at no cost, against r, the rank of the (2,3)-sparsity matroid, which no
    placement exceeds (Laman's theorem): m minus the edges one pebble game
    rejects. Short of r, the verdict is inconclusive: for a tight graph
    whose rotation fixes no vertex a generic symmetric placement reaches r
    (the paper's theorem), so the draw was special or P divides every
    maximal minor.
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
    matrix = rigidity_matrix(g, placement, sg.action)
    rank = exact_rank(matrix, 2 * n - 3)
    if rank is None:
        rejected = _play_in_degree_order(PebbleGame(n), g.degree_order, g.sorted_edges)
        ceiling = g.m - len(rejected)
        rank = exact_rank(matrix, ceiling)
        if rank is None:
            return RankVerdict(None, None, None, g.m, 2 * n - 3, None, matrix.pivot_rank, ceiling)
    return RankVerdict.of(g, rank)


def _cartesian_terms(p: Pair, scale: int = 1) -> tuple[int, int, int, int]:
    """The point (a*1 + b*w) / ``scale`` as x = xn/xd and
    y = (yn/yd)*sqrt(3), each fraction reduced with a positive denominator:
    xn/xd = (2a - b) / 2D and yn/yd = b / 2D, D the scale. The package's one
    division by a scale."""
    a, b = p
    d = 2 * scale
    g, h = math.gcd(2 * a - b, d), math.gcd(b, d)
    return (2 * a - b) // g, d // g, b // h, d // h


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


def _row(u: int, v: int, image: tuple[int, int]) -> dict[int, int]:
    """An edge's sparse row over F_P: ``image`` at u's column pair, negated
    at v's."""
    x, y = image
    row = {}
    if x:
        row[2 * u] = x
        row[2 * v] = _P - x
    if y:
        row[2 * u + 1] = y
        row[2 * v + 1] = _P - y
    return row


def _primitive(q: Pair) -> Pair:
    """The integer pair with coprime entries (or zero) on the ray of ``q``."""
    a, b = q
    g = math.gcd(a, b) or 1
    return (a // g, b // g)


def _pair_matrix(
    g: Graph, pair: Callable[[int], Pair], act: C3Action | None = None
) -> PartialElimination:
    """The generalized rigidity matrix: one row per sorted edge (u, v), its
    pair, ``pair`` of its index, at u's column pair, negated at v's, with
    the vertices' column pairs in ``Graph.degree_order``. The package's one
    matrix builder.

    With Cartesian directions the matrix would hold B (a, b) in those
    places, where B = [[1, -1/2], [0, sqrt(3)/2]] has the columns 1 and w.
    That matrix is this one times the block diagonal of B's transpose,
    which is invertible: the two have the same rank. A rigidity matrix is
    the case where each pair is the edge's position difference. Its rows
    mod P come from ``_row``, or, given a rotation ``act`` that fixes no
    vertex and under which the pairs are those of a symmetric placement,
    from ``field._orbit_blocks``, built from the pairs of the third of the
    edges that stand for their orbits.
    """
    place = g.degree_order
    if act is None:
        rows = [
            _row(place[u], place[v], (x % _P, y % _P))
            for (u, v), (x, y) in zip(g.sorted_edges, map(pair, range(g.m)))
        ]
        twice_from = 2 * g.n
    else:
        reps, orbit_rows, twice_from = _orbit_blocks(g.sorted_edges, act.gamma, place)
        rows = [row for i in reps for row in orbit_rows(i, pair(i))]
    return PartialElimination(g.m, 2 * g.n, {}, rows, twice_from)


# The primes found so far, kept for every later round. A tuple, never
# changed in place: each extension is published by rebinding, so a caller
# that extends it while another does, in another thread or inside the
# other's trial division, may find a prime again but never yields one twice.
_PRIMES = (2,)


def _t_candidates(limit: int) -> Iterator[int]:
    """The parameters t = 1/2, 1/3, 1/5, ... as the primes p = 1/t: the first
    ``limit``, lazily, each found by trial division only the first time."""
    global _PRIMES
    primes = _PRIMES
    for k in range(limit):
        if k == len(primes):
            x = primes[-1] + 1
            while not all(x % p for p in takewhile(lambda p: p * p <= x, primes)):
                x += 1
            _PRIMES = primes = primes + (x,)
        yield primes[k]


def _class_to_split(live: "_LiveFrame") -> list[int]:
    """The class to split, rotated to the corner of tree 0, in sorted order.

    Among the coincidence classes containing an edge, the one whose rotation
    representative at that corner holds the smallest vertex. The rotation
    takes each class at that corner to one at each other corner, and keeps
    edges, so that is the class at the corner of tree 0 with an edge and
    the smallest vertex: the first entry of ``live.queue`` that is not
    stale.
    """
    queue, members, joint_class = live.queue, live.members, live.joint_class
    while True:
        key, c = queue[0]
        edges = (live.edges[i] for x in members[c] for i in live.incident[x])
        if members[c][0] == key and any(joint_class[u] == joint_class[v] for u, v in edges):
            return members[c]
        heapq.heappop(queue)


# A part of a class moves along the side direction opposite its tree.
_SPLITS = ((2, TREE_DIRECTIONS[1]), (1, TREE_DIRECTIONS[2]))


def _separable_component(part: list[int], live: "_LiveFrame") -> tuple[set[int], Pair]:
    """A proper part of the class connected in tree 2 or else in tree 1,
    walked through the incident edges of its vertices only, each edge's
    tree as the live state read it from the partition."""
    edges, incident, tree_of = live.edges, live.incident, live.tree
    part_set = set(part)
    for tree, direction in _SPLITS:
        stack = [part[0]]
        comp = {part[0]}
        while stack:
            x = stack.pop()
            for i in incident[x]:
                u, v = edges[i]
                y = u + v - x
                if y in part_set and y not in comp and tree_of[i] == tree:
                    comp.add(y)
                    stack.append(y)
        if len(comp) < len(part):
            return comp, direction
    raise NoSeparableComponent("class restricted to both trees is connected")


def _line(point: Pair, scale: int, d: Pair) -> tuple[int, int]:
    """The line through ``point`` over ``scale`` along ``d``, as the reduced
    fraction cross(point, d) / scale, which is the same for every point on
    it, whatever its scale."""
    k = point[0] * d[1] - point[1] * d[0]
    g = math.gcd(k, scale)
    return k // g, scale // g


@dataclass
class _LiveFrame:
    """A frame under separation, in integer (1, w) pairs, from round to round.

    The joints are kept as classes by number: the class of each vertex, and
    the members, in increasing order, the point and the scale of each class,
    an integer pair X standing for X / ``scales[c]``. A point keeps the
    scale it was written at, and ``scale``, the start scale times every
    accepted p, is a multiple of all of them: only ``placement`` brings the
    points to it. Each edge has a ``_primitive`` integer direction and its
    tree; each vertex, the indices of its edges and the corner it was parked
    on. Also kept: how many edges still have coinciding endpoints; a heap
    ``queue`` of (smallest member, class) with an entry for each class at
    the corner of tree 0, stale once the class has lost a member or holds
    no such edge; and each class on its line along each tree direction.
    """

    scale: int
    points: list[Pair]
    scales: list[int]
    joint_class: list[int]
    members: list[list[int]]
    dirs: list[Pair]
    tree: list[int]
    edges: Sequence[tuple[int, int]]
    incident: list[list[int]]
    miss: list[int]
    coincident: int
    queue: list[tuple[int, int]]
    lines: dict[Pair, dict[tuple[int, int], list[int]]]

    @classmethod
    def read(cls, sg: SymGraph, tp: TreePartition) -> "_LiveFrame":
        """The start of the separation, read from a partition that
        ``pull_apart_fully`` has verified: the parked frame as classes on
        the three corners, each vertex on the corner of the tree it misses
        (``tp.vertex_sets``), and each edge in its tree (``tp.tree_of``),
        along that tree's side, at scale 1.

        Nothing is checked here: the verified partition makes the frame
        symmetric. A vertex lies in exactly two trees
        (``two_trees_per_vertex``), so it misses one. Each edge lies in one
        tree (``partitions_edges``), so its direction is that tree's side,
        which is primitive. Both ends of an
        edge of tree i lie in tree i (``two_trees_per_vertex``), so they are
        parked together or on the two corners of side i. The rotation takes
        tree i to tree i + 1 (``rotation_cycles_trees``), so it takes the
        vertices missing tree i to those missing tree i + 1: it fixes no
        vertex, turns the triangle about its centre, and turns an edge
        along side i to one along side i + 1, w times it. Each round moves
        the three rotated copies of a part by rotated steps and turns the
        rotated edges to their rotated position differences, so the frame
        stays symmetric and every round's rows are those of its two orbit
        blocks (``field._orbit_blocks``)."""
        edges = sg.graph.sorted_edges
        tv = tp.vertex_sets
        miss = [next(k for k in range(3) if v not in tv[k]) for v in range(sg.graph.n)]
        tree = [tp.tree_of[e] for e in edges]
        members: list[list[int]] = [[] for _ in E_POINTS]
        for v, k in enumerate(miss):
            members[k].append(v)
        incident: list[list[int]] = [[] for _ in range(sg.graph.n)]
        coincident = 0
        for i, (u, v) in enumerate(edges):
            incident[u].append(i)
            incident[v].append(i)
            coincident += miss[u] == miss[v]
        live = cls(
            1, list(E_POINTS), [1, 1, 1], list(miss), members,
            [TREE_DIRECTIONS[t] for t in tree], tree, edges, incident, miss, coincident, [],
            {d: {} for d in TREE_DIRECTIONS},
        )
        for c in range(3):
            live._index(c)
        return live

    def _index(self, c: int) -> None:
        """Put class c on its line along each tree direction and, at the
        corner of tree 0, on the queue."""
        point, scale, first = self.points[c], self.scales[c], self.members[c][0]
        for d, lines in self.lines.items():
            lines.setdefault(_line(point, scale, d), []).append(c)
        if not self.miss[first]:
            heapq.heappush(self.queue, (first, c))

    def placement(self, act: C3Action) -> Placement:
        """Each vertex at its class point brought to ``scale`` and
        recentred on the rotation axis, the centroid of vertex 0's orbit,
        as 3 X - S over 3 ``scale``, S the sum of that orbit's points. Each
        edge's position difference is parallel to its direction (``_plan``),
        so the placement's rigidity matrix has the rank of the state's rows.
        Raises ``InternalInvariantBroken`` if adjacent joints coincide or
        ``act`` does not map the placement to itself (see ``read``)."""
        scale, joint_class = self.scale, self.joint_class
        points = [(scale // s * x, scale // s * y) for (x, y), s in zip(self.points, self.scales)]
        orbit = [points[joint_class[v]] for v in (0, act.gamma[0], act.gamma2[0])]
        sx, sy = sum(x for x, _ in orbit), sum(y for _, y in orbit)
        centred = [(3 * x - sx, 3 * y - sy) for x, y in points]
        pos = tuple(centred[c] for c in joint_class)
        if any(pos[u] == pos[v] for u, v in self.edges):
            raise InternalInvariantBroken("adjacent joints still share a position")
        if not _rotates_with(act, pos):
            raise InternalInvariantBroken("the recentred framework is not symmetric")
        return Placement(pos, 3 * scale)


# A round's split: the three moving copies, their steps, and each turning
# edge's (delta, S dd) by index.
_Split = tuple[tuple[list[int], ...], tuple[Pair, ...], dict[int, tuple[Pair, Pair]]]


def _plan(sg: SymGraph, live: _LiveFrame) -> _Split:
    """The split of the next round of ``live``.

    The class is, among the classes containing an edge, the one whose
    rotation representative holds the smallest vertex. One component of its
    restriction to one tree moves along the opposite side direction, its
    rotated copies along the rotated directions, and every edge whose
    endpoints move differently turns to its new position difference, so the
    frame condition survives: at t = 1/p a point X / s moving by d goes to
    (p X + s d) / (p s), so with delta = S (X_u / s_u - X_v / s_v) and
    dd = d_u - d_v, S = s_u s_v, the edge's row, taken at p delta + S dd,
    is a positive multiple of its new position difference and affine in p.
    """
    act = sg.require_action()
    edges = live.edges
    points, scales, joint_class, members = live.points, live.scales, live.joint_class, live.members
    part = _class_to_split(live)
    comp, d0 = _separable_component(part, live)
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
        (a, b), (e, f) = disp.get(u, _PAIR_ZERO), disp.get(v, _PAIR_ZERO)
        if a != e or b != f:
            cu, cv = joint_class[u], joint_class[v]
            (xu, yu), (xv, yv), su, sv = points[cu], points[cv], scales[cu], scales[cv]
            s = su * sv
            turning[i] = ((sv * xu - su * xv, sv * yu - su * yv), (s * (a - e), s * (b - f)))
    return copies, steps, turning


def _accept(live: _LiveFrame, split: _Split, p: int) -> None:
    """Take the split at t = 1/p: each copy leaves its class for a new one
    at p X + s d over p s, and no other point moves."""
    copies, steps, turning = split
    points, scales, joint_class, members = live.points, live.scales, live.joint_class, live.members
    live.scale *= p
    for i, ((x, y), (a, b)) in turning.items():
        # a turned edge whose ends coincided has them apart from now on
        u, v = live.edges[i]
        live.coincident -= joint_class[u] == joint_class[v]
        live.dirs[i] = _primitive((p * x + a, p * y + b))
    for copy, (a, b) in zip(copies, steps):
        c, new = joint_class[copy[0]], len(members)
        gone = set(copy)
        members[c] = [x for x in members[c] if x not in gone]
        members.append(sorted(copy))
        (x, y), s = points[c], scales[c]
        points.append((p * x + s * a, p * y + s * b))
        scales.append(p * s)
        for x in copy:
            joint_class[x] = new
        if not live.miss[copy[0]]:
            heapq.heappush(live.queue, (members[c][0], c))
        live._index(new)


def _meeting(delta: Pair, step: Pair, scale: int) -> int | None:
    """The p > 0 with p * delta = scale * step, if it is an integer: the
    t = 1/p at which a point moving by ``step`` covers delta / scale."""
    if cross(delta, step):
        return None
    k = 0 if step[0] else 1
    if not delta[k]:
        return None
    p, r = divmod(scale * step[k], delta[k])
    return p if p > 0 and not r else None


def _collisions(live: _LiveFrame, copies: Sequence[list[int]], steps: Sequence[Pair]) -> set[int]:
    """The p at which a copy would land on a class point or on another copy.

    A copy at X / s moving by d lands on the class point Y / r only if Y
    lies on X's line along d, and then at the one p with
    p (s Y - r X) = r s d; one coordinate k with d_k = +-1 gives it. Copies
    j and k meet at the one p with p (s_k X_j - s_j X_k) = s_j s_k (d_k - d_j),
    if any.
    """
    points, scales = live.points, live.scales
    moving = []
    for copy, d in zip(copies, steps):
        c = live.joint_class[copy[0]]
        moving.append((points[c], scales[c], d))
    found: set[int | None] = set()
    for x, s, d in moving:
        k = 0 if d[0] else 1
        xk, sd = x[k], s * d[k]
        for c in live.lines[d][_line(x, s, d)]:
            r = scales[c]
            gap = s * points[c][k] - r * xk
            if gap:
                p, rest = divmod(r * sd, gap)
                if p > 0 and not rest:
                    found.add(p)
    for j, ((x0, x1), s, (a, b)) in enumerate(moving):
        for (y0, y1), r, (e, f) in moving[j + 1 :]:
            found.add(_meeting((r * x0 - s * y0, r * x1 - s * y1), (e - a, f - b), r * s))
    found.discard(None)
    return found


def pull_apart(sg: SymGraph, live: _LiveFrame, skip: int = 0) -> tuple[_Split, int]:
    """One round of separation: take ``_plan``'s split of ``live`` at the
    first t = 1/p at which no moving copy lands on a class or on another
    copy, past the first ``skip`` such t. No rank is taken here;
    ``pull_apart_fully`` proves it. Returns what ``_accept`` took.
    """
    split = _plan(sg, live)
    copies, steps, _ = split
    found = _collisions(live, copies, steps)
    # A t fails only by a collision or a rank deficit mod P. ``_collisions``
    # holds at most one p per class on each moving copy's line, as its step
    # is nonzero, and one per pair of copies, as their steps differ: at most
    # 3 * (classes + 1) values. The turned rows are affine in p, so a full
    # minor of the orbit blocks that is nonzero for some p (the separation
    # step of the symmetric Crapo theorem gives one) is a polynomial of
    # degree at most m. Unless P divides all its coefficients, it vanishes
    # mod P at no more than m of the candidate primes, all below P, and one
    # of the first 3 * (classes + 1) + m + 1 candidates is good; if P does,
    # every t is short mod P and ``ExhaustedT`` says so, never a verdict.
    limit = 3 * (len(live.members) + 1) + sg.graph.m + 1
    for p in _t_candidates(limit):
        if p in found:
            continue
        if not skip:
            break
        skip -= 1
    else:
        raise ExhaustedT(f"none of {limit} deformation parameters preserved independence")
    _accept(live, split, p)
    return split, p


def _first_short_round(
    g: Graph, history: list[tuple[int, Pair, int, int]], lo: int, hi: int, blocks: _OrbitBlocks
) -> int | None:
    """The first round of lo..hi whose generalized rigidity matrix
    ``exact_rank`` does not prove at full row rank, or None. ``history``
    holds (edge, direction, a, b): the edge's direction in the rounds a..b.
    Only the versions of the edges that stand for their orbits in
    ``blocks`` have rows mod P, their orbits' rows in the two orbit blocks;
    a round short mod P is returned whatever its exact rank."""
    reps, rows_of, twice_from = blocks
    versions = [(row, a, b) for i, q, a, b in history if i in reps for row in rows_of(i, q)]
    for j, pivots, rank in _round_pivots(versions, lo, hi, twice_from):
        if exact_rank(PartialElimination(g.m, 2 * g.n, pivots, [], twice_from, rank)) != g.m:
            return j
    return None


def pull_apart_fully(sg: SymGraph, tp: TreePartition) -> tuple[Placement, int]:
    """Separate the parked frame of ``tp`` until no adjacent joints
    coincide; return the symmetric framework it ends as, recentred on the
    rotation axis (``_LiveFrame.placement``), and the rounds taken.

    ``tp`` is verified once, raising ``InvalidPartition`` naming each
    property it fails, and the start read from it on entry and at each
    restart (``_LiveFrame.read``). The rounds are those of
    ``pull_apart`` on one live state, run
    speculatively: each takes its first collision-free t with no rank, and
    each edge's directions are kept with the rounds that hold them. Then
    ``_first_short_round`` ranks every round in one offline pass, mod P
    only, through the orbit blocks of the symmetric frame (see
    ``_LiveFrame.read``), so each t is the first collision-free one whose
    full rank the blocks prove. A round short mod P is skipped as a
    collision is, whatever its exact rank: only full rank needs a proof.
    At the first such round the rounds before it are replayed on a fresh
    state, and speculation starts again from that round at its next
    collision-free t. A speculative round that fails raises once the rounds
    before it hold.

    The rigidity matrix of the placement returned has full row rank m: its
    rows are those of the last round, each times a nonzero scalar, and the
    last offline pass proved that round's rank. When no round runs, the
    parked frame is ranked once instead.
    """
    report = verify_tree_partition(sg, tp)
    if not report.ok:
        raise InvalidPartition(f"partition fails: {', '.join(report.failures())}")
    act = sg.require_action()
    g = sg.graph
    live = _LiveFrame.read(sg, tp)
    blocks = _orbit_blocks(g.sorted_edges, act.gamma, g.degree_order)
    if not live.coincident:
        start = [(i, q, 0, 0) for i, q in enumerate(live.dirs)]
        if _first_short_round(g, start, 0, 0, blocks) is not None:
            raise InternalInvariantBroken("the parked frame is short of full rank mod P")
    taken: list[tuple[_Split, int]] = []
    skip = 0
    while live.coincident:
        lo, failed = len(taken) + 1, None
        held, since, history = live.dirs[:], [lo] * g.m, []
        try:
            while live.coincident:
                if len(taken) == g.n:
                    raise InternalInvariantBroken("separation failed to terminate")
                # only round lo skips the t found short before
                taken.append(pull_apart(sg, live, skip if len(taken) + 1 == lo else 0))
                for i in taken[-1][0][2]:
                    history.append((i, held[i], since[i], len(taken) - 1))
                    held[i], since[i] = live.dirs[i], len(taken)
        except C3RigError as error:
            failed = error
        history += [(i, q, a, len(taken)) for i, (q, a) in enumerate(zip(held, since))]
        bad = _first_short_round(g, history, lo, len(taken), blocks)
        if bad is None:
            if failed is not None:
                raise failed
        else:
            skip = skip + 1 if bad == lo else 1
            del taken[bad - 1 :]
            live = _LiveFrame.read(sg, tp)
            for step in taken:
                _accept(live, *step)
    return live.placement(act), len(taken)
