import collections
import copy
import hashlib
import itertools
import json
import random
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from c3rig import (
    C3Action,
    Graph,
    SymGraph,
    build_tree_partition,
    check_c3_isostatic,
    exact_rank,
    extract_sequence,
    numeric_isostatic_check,
    parse_graph,
    pull_apart_fully,
    relabel_partition,
    rigidity_matrix,
    symmetric_generic_positions,
)
from c3rig import cli, field, geometry
from c3rig.field import _P, _W
from c3rig.errors import (
    DegenerateSpan,
    ExhaustedRetries,
    ExhaustedT,
    FixedVertexPresent,
    InternalInvariantBroken,
    InvalidPartition,
    NoSeparableComponent,
    TooFewVertices,
)
from c3rig.geometry import (
    E_POINTS,
    TREE_DIRECTIONS,
    Placement,
    cross,
    rotate_omega,
    v_sub,
)
from c3rig.graphs import edge_orbit
from c3rig.trees import TreePartition
from tests.corpus import (
    acceptance_corpus,
    fast_tight_symgraph,
    fraction_free_rank,
    generalized_matrix,
    integer_rows,
    k13_hub,
    k3,
    k33,
    octahedron,
    pair_rows,
    perturb_edge_swap,
    prism,
    proven_rank,
    random_tight_symgraph,
    rigidity_rows,
    span_key,
)


def pair(a, b):
    return (a, b)


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _cartesian(p):
    # the point a*1 + b*w at x = a - b/2 and y = (b/2)*sqrt(3), each as
    # (rational part, coefficient of sqrt(3))
    a, b = map(Fraction, p)
    return (a - b / 2, Fraction(0)), (Fraction(0), b / 2)


def _report_point(p, scale=1):
    # the report's exact point of a pair over scale, as x and y / sqrt(3)
    xn, xd, yn, yd = geometry._cartesian_terms(p, scale)
    return Fraction(xn, xd), Fraction(yn, yd)


def _frame_lambdas(g, positions, directions):
    # each edge's scalar lam with position difference = lam * direction
    lams = []
    for (u, v), q in zip(g.sorted_edges, directions):
        delta = v_sub(positions[u], positions[v])
        assert q != (0, 0) and cross(delta, q) == 0
        lams.append(Fraction(delta[0], q[0]) if q[0] else Fraction(delta[1], q[1]))
    return lams


def _symmetric(sg, placement):
    # the package's symmetry equation: rotated vertices at rotated positions
    return geometry._rotates_with(sg.require_action(), placement.positions)


def _coincident_edges(g, positions):
    return [(u, v) for u, v in g.sorted_edges if positions[u] == positions[v]]


def _sympy_point(p):
    # the Cartesian point of a pair in sympy numbers
    sympy = pytest.importorskip("sympy")
    return tuple(
        sympy.Rational(a.numerator, a.denominator)
        + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(3)
        for a, b in _cartesian(p)
    )


def _sympy_rotate(p):
    # the Cartesian rotation by 120 degrees of a sympy point
    sympy = pytest.importorskip("sympy")
    c, s = sympy.Rational(-1, 2), sympy.sqrt(3) / 2
    x, y = p
    return (c * x - s * y, s * x + c * y)


def _same_sympy_point(p, q):
    return all((a - b).expand() == 0 for a, b in zip(p, q))


def _sympy_cartesian_rank(g, placement):
    # sympy's rank of the Cartesian rigidity matrix at the converted points,
    # in exact arithmetic over Q(sqrt 3), so no zero test needs simplification
    sympy = pytest.importorskip("sympy")
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    q_sqrt3 = sympy.QQ.algebraic_field(sympy.sqrt(3))

    def element(x):
        # a + b*sqrt(3), built from its coefficients, sqrt(3) first
        a, b = (sympy.QQ(c.numerator, c.denominator) for c in x)
        return q_sqrt3([b, a])

    cart = [tuple(map(element, p)) for p in map(_cartesian, placement.positions)]
    rows = []
    for u, v in g.sorted_edges:
        row = [q_sqrt3.zero] * (2 * g.n)
        dx, dy = cart[u][0] - cart[v][0], cart[u][1] - cart[v][1]
        row[2 * u], row[2 * u + 1], row[2 * v], row[2 * v + 1] = dx, dy, -dx, -dy
        rows.append(row)
    return DomainMatrix(rows, (len(rows), 2 * g.n), q_sqrt3).rank()


def test_symmetric_positions_satisfy_rotation_equation():
    sg = prism()
    placement = symmetric_generic_positions(sg, 7)
    pos = placement.positions
    assert all(pos[u] != pos[v] for u, v in sg.graph.edges)
    assert _symmetric(sg, placement)


def test_symmetric_positions_deterministic():
    sg = prism()
    assert symmetric_generic_positions(sg, 3) == symmetric_generic_positions(sg, 3)
    assert symmetric_generic_positions(sg, 3) != symmetric_generic_positions(sg, 4)


def test_k3_orbit_is_forced():
    placement = symmetric_generic_positions(k3(), 1)
    p0, p1, p2 = placement.positions
    assert all(type(x) is int and abs(x) <= geometry.GENERIC_BOUND for x in p0)
    assert p1 == rotate_omega(p0)
    assert p2 == rotate_omega(p1)


def test_fixed_vertex_rejected():
    with pytest.raises(FixedVertexPresent):
        symmetric_generic_positions(k13_hub(), 0)


def test_positions_give_up_after_bounded_redraws(monkeypatch):
    class OriginRandom:
        # every draw puts the orbit representative at the origin
        def __init__(self, seed):
            pass

        def randint(self, a, b):
            return max(a, 0)

    monkeypatch.setattr(geometry, "random", SimpleNamespace(Random=OriginRandom))
    with pytest.raises(ExhaustedRetries):
        symmetric_generic_positions(prism(), 0)


def test_rigidity_matrix_single_edge():
    g = Graph(2, frozenset({(0, 1)}))
    placement = Placement((pair(0, 0), pair(1, 2)))
    m = rigidity_matrix(g, placement)
    assert (m.rows, m.cols) == (1, 4)
    assert m.rest == [{0: _P - 1, 1: _P - 2, 2: 1, 3: 2}]
    assert rigidity_rows(g, placement) == [{0: -1, 1: -2, 2: 1, 3: 2}]


def test_rigidity_rows_sum_to_zero():
    sg = prism()
    placement = symmetric_generic_positions(sg, 5)
    m = rigidity_matrix(sg.graph, placement)
    assert len(m.rest) == sg.graph.m
    for row in m.rest:
        assert len(row) <= 4
        assert sum(x for c, x in row.items() if c % 2 == 0) % _P == 0
        assert sum(x for c, x in row.items() if c % 2 == 1) % _P == 0


def test_k3_at_reference_triangle_has_rank_three():
    g = k3().graph
    placement = Placement(E_POINTS)
    assert exact_rank(rigidity_matrix(g, placement)) == 3
    verdict = numeric_isostatic_check(k3(), placement)
    assert verdict.isostatic
    assert verdict.flex_dim == 0


def test_rank_bounded_by_count_and_dof():
    rng = random.Random(21)
    for _ in range(8):
        sg = random_tight_symgraph(rng, 3 * rng.randint(2, 4))
        swapped = perturb_edge_swap(rng, sg)
        for graph in (sg, swapped):
            g = graph.graph
            placement = symmetric_generic_positions(graph, 1)
            rank = fraction_free_rank(rigidity_rows(g, placement))
            assert rank <= min(g.m, 2 * g.n - 3)
            proven_rank(rigidity_matrix(g, placement), rank, 2 * g.n - 3)
            assert numeric_isostatic_check(graph, placement).rank == rank


def test_prism_generic_isostatic():
    sg = prism()
    verdict = numeric_isostatic_check(sg, symmetric_generic_positions(sg, 0))
    assert verdict.isostatic
    assert verdict.rank == 9


def test_prism_minus_edge_flexes():
    sg = prism()
    placement = symmetric_generic_positions(sg, 0)
    smaller = SymGraph(Graph(6, sg.graph.edges - {(0, 3)}))
    verdict = numeric_isostatic_check(smaller, placement)
    assert not verdict.isostatic
    assert verdict.independent
    assert verdict.flex_dim == 1


def test_collinear_placement_rejected():
    g = SymGraph(Graph(3, frozenset({(0, 1), (1, 2)})))
    for line in (
        Placement((pair(0, 0), pair(1, 0), pair(2, 0))),
        Placement((pair(1, 2), pair(3, 3), pair(5, 4))),
    ):
        with pytest.raises(DegenerateSpan):
            numeric_isostatic_check(g, line)


def test_two_joints_are_too_few_to_check():
    # only a graph without a rotation reaches the check with n < 3: every
    # permutation of fewer than three points is refused as a rotation
    g = SymGraph(Graph(2, frozenset({(0, 1)})))
    with pytest.raises(TooFewVertices):
        numeric_isostatic_check(g, Placement((pair(0, 0), pair(1, 0))))


def test_a_placement_check_builds_one_matrix_and_plays_no_ceiling_game(monkeypatch):
    # each check builds the one rigidity matrix it ranks, and builds it
    # once; the octahedron's 12 rows reach only rank 9: the 2n - 3 ceiling
    # is what proves that rank mod P, with no pebble game for a finer one
    cases = [(prism(), 9, 9), (random_tight_symgraph(7, 60), 117, 117), (octahedron(), 12, 9)]
    placements = [symmetric_generic_positions(sg, 0) for sg, _, _ in cases]
    builds = []
    build = geometry.rigidity_matrix

    def counted(*args):
        builds.append(True)
        return build(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("a pebble game ran for the matroid ceiling")

    monkeypatch.setattr(geometry, "rigidity_matrix", counted)
    monkeypatch.setattr(geometry, "_play_in_degree_order", refuse)
    for (sg, m, rank), placement in zip(cases, placements):
        builds.clear()
        verdict = numeric_isostatic_check(sg, placement)
        assert (verdict.edge_count, verdict.rank, verdict.flex_dim) == (m, rank, 0)
        assert len(builds) == 1


def _counted_ceiling_games(monkeypatch):
    # the pebble games the placement check plays for the matroid ceiling
    calls = []
    original = geometry._play_in_degree_order

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(geometry, "_play_in_degree_order", counted)
    return calls


def _prism_at(inner, outer, scale):
    # inner triangle at inner, R inner, R^2 inner; outer likewise, R the
    # rotation, all over scale
    def orbit(p):
        return [p, rotate_omega(p), rotate_omega(rotate_omega(p))]

    return Placement(tuple(orbit(inner) + orbit(outer)), scale)


# the bars 0-3, 1-4, 2-5 lie on three lines through the origin: the points
# (3/7, -2/5) and (6/7, -4/5) over the scale 35
_CONCURRENT = _prism_at(pair(15, -14), pair(30, -28), 35)
# the points (1/P, 2/5) and (3/7, -5/11): a coordinate with denominator P,
# which has no image mod P, and over the common scale 385 P, which P
# divides, every other coordinate maps to 0 mod P
_NO_IMAGE = _prism_at(pair(385, 154 * _P), pair(165 * _P, -175 * _P), 385 * _P)


def _assert_inconclusive(verdict, g):
    # no rank, no verdict, and never isostatic: false; the rank mod P fell
    # short of the matroid ceiling, which is 2n - 3 for a tight graph
    assert verdict.inconclusive and verdict.isostatic is None
    assert (verdict.rank, verdict.independent, verdict.flex_dim) == (None, None, None)
    assert verdict.rank_mod_p < verdict.ceiling == 2 * g.n - 3 == g.m
    assert verdict.as_json_dict() == {
        "isostatic": None, "independent": None, "rank": None, "edge_count": g.m,
        "target": 2 * g.n - 3, "flex_dim": None, "inconclusive": True,
        "rank_mod_p": verdict.rank_mod_p, "ceiling": verdict.ceiling,
    }


def test_concurrent_prism_bars_are_inconclusive_after_one_ceiling_game(monkeypatch):
    # The prism is isostatic, but this placement has rank 8: the bars are
    # concurrent. Its rank mod P falls short of the ceiling 9 that one
    # pebble game finds, which says nothing about the graph: inconclusive.
    # The exact reference confirms the rank.
    sg = prism()
    assert _symmetric(sg, _CONCURRENT)
    calls = _counted_ceiling_games(monkeypatch)
    verdict = numeric_isostatic_check(sg, _CONCURRENT)
    _assert_inconclusive(verdict, sg.graph)
    assert verdict.rank_mod_p == 8
    assert len(calls) == 1
    assert fraction_free_rank(rigidity_rows(sg.graph, _CONCURRENT)) == 8


def _block_ranks(sg, placement):
    # the ranks mod P of the orbit blocks of phases 1, w and w^2, built from
    # scratch with other choices than geometry's: each orbit's smallest
    # vertex r, each edge orbit's smallest edge, the columns by label, and
    # each joint's point as z = s + t*W beside its conjugate s + t*W^2
    act, g = sg.action, sg.graph
    w = (1, _W, _W * _W % _P)
    z = []
    for p in placement.positions:
        s, t = (x % _P for x in p)
        z.append(((s + t * w[1]) % _P, (s + t * w[2]) % _P))
    rep = [min(act.orbit(v)) for v in range(g.n)]
    power = [act.orbit(rep[v]).index(v) for v in range(g.n)]
    ranks = []
    for phase in range(3):
        rows = []
        for u, v in g.sorted_edges:
            if (u, v) != min(edge_orbit((u, v), act.gamma)):
                continue
            d, dc = ((z[u][k] - z[v][k]) % _P for k in (0, 1))
            row = {}
            for x, sign in ((u, 1), (v, -1)):
                a = power[x]
                for col, value in (
                    (2 * rep[x], dc * w[(phase + 1) * a % 3]),
                    (2 * rep[x] + 1, d * w[(phase + 2) * a % 3]),
                ):
                    row[col] = (row.get(col, 0) + sign * value) % _P
            rows.append({c: x for c, x in row.items() if x})
        ranks.append(field._eliminate(rows, {}, 2 * g.n))
    return ranks


def _realize_generic_graphs():
    # the benchmark's 40 fixed realize_generic graphs at n = 48
    from bench import gen

    rng = random.Random("realize_generic:corpus")
    return [parse_graph(gen.make_graph(rng, "tight", 48)) for _ in range(40)]


def _package_block_ranks(sg, placement):
    # geometry's r0 and r1, read off the pivots of its two blocks, whose
    # modular_rank is r0 + 2 r1
    m = rigidity_matrix(sg.graph, placement, sg.action)
    assert m.twice_from == 2 * sg.graph.n // 3
    rank = m.modular_rank()
    r0 = sum(c < m.twice_from for c in m.pivots)
    r1 = len(m.pivots) - r0
    assert rank == r0 + 2 * r1
    return r0, r1


def _small_symmetric_placements(count):
    # orbit points with coordinates in -2..2, often special: blocks short of
    # full rank in one phase or another, and coincident or collinear joints
    graphs = [prism(), k33(), octahedron()] + list(acceptance_corpus()[:50:5])
    rng = random.Random(12)
    for _ in range(count):
        sg = rng.choice(graphs)
        positions = [None] * sg.graph.n
        for r in range(sg.graph.n):
            if positions[r] is None:
                p = (rng.randint(-2, 2), rng.randint(-2, 2))
                for x in sg.action.orbit(r):
                    positions[x], p = p, rotate_omega(p)
        yield sg, Placement(tuple(positions))


def test_orbit_blocks_split_the_rank_mod_p():
    # r0 + r1 + r2 is the whole matrix's rank mod P, an oracle for the
    # blocks built here; geometry's B0 and B1 rank like them, at generic
    # placements, where r0 + 2 r1 reaches 2n - 3 on every isostatic graph,
    # and at special ones
    generic = [
        (sg, symmetric_generic_positions(sg, seed))
        for sg in _digest_graphs() + _realize_generic_graphs()
        for seed in range(3)
    ]
    special = list(_small_symmetric_placements(300))
    short = 0
    for k, (sg, placement) in enumerate(generic + special):
        r0, r1, r2 = _block_ranks(sg, placement)
        assert r0 + r1 + r2 == rigidity_matrix(sg.graph, placement).modular_rank()
        assert _package_block_ranks(sg, placement) == (r0, r1)
        if k < len(generic):
            assert r0 + 2 * r1 == 2 * sg.graph.n - 3
        else:
            short += r0 + 2 * r1 < 2 * sg.graph.n - 3
    assert short


def test_orbit_block_rank_matches_sympy_on_small_symmetric_placements(monkeypatch):
    # r0 + 2 r1 is the exact rank on these special placements. Some ranks
    # reach 2n - 3 and are proven; the rest fall short of the matroid
    # ceiling a pebble game finds for them: inconclusive, with r0 + 2 r1 as
    # the rank mod P reported
    calls = _counted_ceiling_games(monkeypatch)
    outcomes = {"proven": 0, "inconclusive": 0}
    for sg, placement in _small_symmetric_placements(60):
        before = len(calls)
        try:
            verdict = numeric_isostatic_check(sg, placement)
        except DegenerateSpan:
            continue
        r0, r1 = _package_block_ranks(sg, placement)
        assert r0 + 2 * r1 == _sympy_cartesian_rank(sg.graph, placement)
        if verdict.inconclusive:
            assert verdict.isostatic is None and len(calls) == before + 1
            assert verdict.rank_mod_p == r0 + 2 * r1 < verdict.ceiling
            outcomes["inconclusive"] += 1
        else:
            assert verdict.rank == r0 + 2 * r1 == 2 * sg.graph.n - 3
            outcomes["proven"] += 1
    assert min(outcomes.values()) > 0


def test_concurrent_prism_bars_prove_no_rank_in_blocks_or_plain_rows():
    # the blocks and the plain rows fall short of rank 9 mod P alike, so
    # neither proves a rank against that ceiling; the reference ranks the
    # plain integer rows at 8
    g, act = prism().graph, prism().action
    blocks = rigidity_matrix(g, _CONCURRENT, act)
    assert blocks.twice_from == 2 * g.n // 3 and blocks.modular_rank() < 9
    plain = rigidity_matrix(g, _CONCURRENT)
    assert exact_rank(blocks, 9) is exact_rank(plain, 9) is None
    assert proven_rank(plain, 8, 8) == 8


def test_symmetric_rigidity_matrix_ranks_one_row_per_edge_orbit_in_each_block(monkeypatch):
    # The kernel gets 2m/3 rows, alternately B0's and B1's, built from m/3
    # position differences. On the concurrent prism the blocks fall short
    # of 2n - 3 and prove no rank; the reference ranks the m plain integer
    # rows as sympy ranks the Cartesian matrix.
    handed, differences = [], []
    eliminate = field._eliminate

    def counted_eliminate(rows, *args):
        handed.append(list(rows))
        return eliminate(handed[-1], *args)

    def counted_v_sub(p, q):
        differences.append((p, q))
        return v_sub(p, q)

    monkeypatch.setattr(field, "_eliminate", counted_eliminate)
    monkeypatch.setattr(geometry, "v_sub", counted_v_sub)
    cases = [(prism(), _CONCURRENT)] + [
        (sg, symmetric_generic_positions(sg, 0))
        for sg in [prism(), k33(), octahedron()] + _digest_graphs()
    ]
    for sg, placement in cases:
        g = sg.graph
        for seen in (handed, differences):
            seen.clear()
        matrix = rigidity_matrix(g, placement, sg.action)
        assert len(differences) == g.m // 3
        rank = exact_rank(matrix, 2 * g.n - 3)
        [rows] = handed
        assert len(rows) == 2 * g.m // 3
        assert all(c < matrix.twice_from for row in rows[::2] for c in row)
        assert all(c >= matrix.twice_from for row in rows[1::2] for c in row)
        if placement is _CONCURRENT:
            assert rank is None
            exact = rigidity_rows(g, placement)
            assert len(exact) == g.m
            assert fraction_free_rank(exact) == _sympy_cartesian_rank(g, placement) == 8
        else:
            assert rank == min(g.m, 2 * g.n - 3)


def test_orbit_blocks_need_the_rotation_a_free_action_and_a_symmetric_placement(monkeypatch):
    def refuse(*args):
        raise AssertionError("orbit blocks built")

    monkeypatch.setattr(geometry, "_orbit_blocks", refuse)
    sg = prism()
    symmetric = symmetric_generic_positions(sg, 0)
    (a, b), *rest = symmetric.positions
    nudged = Placement(((a + 1, b),) + tuple(rest))
    p = pair(3, -7)
    hub = Placement((p, rotate_omega(p), rotate_omega(rotate_omega(p)), pair(0, 0)))
    assert _symmetric(k13_hub(), hub)
    for case, placement, rank in (
        (SymGraph(sg.graph), symmetric, 9), (sg, nudged, 9), (k13_hub(), hub, 3)
    ):
        assert rigidity_matrix(case.graph, placement, case.action).twice_from == 2 * case.graph.n
        assert numeric_isostatic_check(case, placement).rank == rank


def test_placement_without_an_image_is_inconclusive(monkeypatch):
    # full rank 9, but P divides every entry's image: the rank mod P falls
    # short of the ceiling 9, so the verdict is inconclusive, not false
    sg = prism()
    assert _symmetric(sg, _NO_IMAGE)
    calls = _counted_ceiling_games(monkeypatch)
    verdict = numeric_isostatic_check(sg, _NO_IMAGE)
    _assert_inconclusive(verdict, sg.graph)
    assert len(calls) == 1
    assert fraction_free_rank(rigidity_rows(sg.graph, _NO_IMAGE)) == 9


@pytest.mark.parametrize("placement, rank", [(_CONCURRENT, 8), (_NO_IMAGE, 9)])
def test_planted_prism_ranks_match_sympy(placement, rank):
    # sympy and the reference agree on each planted rank; the placement
    # check proves neither and reports both as inconclusive
    assert _sympy_cartesian_rank(prism().graph, placement) == rank
    assert fraction_free_rank(rigidity_rows(prism().graph, placement)) == rank
    _assert_inconclusive(numeric_isostatic_check(prism(), placement), prism().graph)


# Each example ranks one matrix in sympy; shrinking an index, a seed and a
# flag would rerun that for little gain, so a failure is reported as drawn.
@settings(max_examples=10, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(
    st.integers(min_value=0, max_value=len(acceptance_corpus()) - 1),
    st.integers(min_value=0, max_value=2**64),
    st.booleans(),
)
def test_pair_placements_rank_and_rotate_like_their_cartesian_points(index, seed, nudge):
    # the change of basis from (1, w) pairs to Q(sqrt 3) points keeps the
    # rank and the symmetry; a nudged first joint breaks the symmetry
    sg = acceptance_corpus()[index]
    placement = symmetric_generic_positions(sg, seed)
    if nudge:
        (a, b), *rest = placement.positions
        placement = Placement(((a + 1, b),) + tuple(rest))
    cart = [_sympy_point(p) for p in placement.positions]
    rotates = all(
        _same_sympy_point(cart[sg.action.gamma[v]], _sympy_rotate(cart[v]))
        for v in range(sg.graph.n)
    )
    assert _symmetric(sg, placement) == rotates == (not nudge)
    assert numeric_isostatic_check(sg, placement).rank == _sympy_cartesian_rank(
        sg.graph, placement
    )


def test_placement_rank_matches_the_rigidity_matrix_on_acceptance_corpus():
    # every rank is proven, against 2n - 3 or else the matroid ceiling, and
    # is the reference rank of the plain integer rows
    for sg in acceptance_corpus():
        g = sg.graph
        placement = symmetric_generic_positions(sg, 0)
        expected = fraction_free_rank(rigidity_rows(g, placement))
        assert numeric_isostatic_check(sg, placement).rank == expected


@given(st.tuples(small_rationals, small_rationals))
def test_pair_rotation_is_the_cartesian_product(p):
    rotated = _sympy_point(rotate_omega(p))
    assert _same_sympy_point(rotated, _sympy_rotate(_sympy_point(p)))
    assert rotate_omega(rotate_omega(rotate_omega(p))) == p


def _certified_partition(sg):
    seq = extract_sequence(sg)
    return relabel_partition(build_tree_partition(seq), seq.relabeling)


def _positions(live):
    # each vertex's point in a live frame, over its class's scale
    return tuple(live.points[c] for c in live.joint_class)


def test_k3_frame_positions():
    sg = k3()
    live = geometry._LiveFrame.read(sg, _certified_partition(sg))
    parked = _positions(live)
    # each vertex sits at the corner of the one tree it misses
    assert parked == (E_POINTS[1], E_POINTS[2], E_POINTS[0])
    assert exact_rank(generalized_matrix(sg.graph, live.dirs)) == 3
    assert _coincident_edges(sg.graph, parked) == []
    # no round runs: the parked frame recentred on the triangle's centre,
    # (0 + 1 + (1 + w)) / 3, at three times its scale
    centred = tuple((3 * x - 2, 3 * y - 1) for x, y in parked)
    assert pull_apart_fully(sg, _certified_partition(sg)) == (Placement(centred, 3), 0)


def test_prism_frame_parks_two_joints_per_corner():
    sg = prism()
    live = geometry._LiveFrame.read(sg, _certified_partition(sg))
    parked = _positions(live)
    _frame_lambdas(sg.graph, parked, live.dirs)  # a scalar per edge
    for corner in E_POINTS:
        assert sum(1 for p in parked if p == corner) == 2
    assert exact_rank(generalized_matrix(sg.graph, live.dirs)) == 9


def test_generalized_matrix_single_edge():
    g = Graph(2, frozenset({(0, 1)}))
    directions = (pair(1, 2),)
    m = generalized_matrix(g, directions)
    assert m.rest == [{0: 1, 1: 2, 2: _P - 1, 3: _P - 2}]
    assert pair_rows(g, directions.__getitem__) == [{0: 1, 1: 2, 2: -1, 3: -2}]


def test_prism_pull_apart_separates_in_rounds():
    sg = prism()
    tp = _certified_partition(sg)
    parked = _positions(geometry._LiveFrame.read(sg, tp))
    assert len(_coincident_edges(sg.graph, parked)) == 3
    placement, rounds = pull_apart_fully(sg, tp)
    assert rounds >= 1
    assert _coincident_edges(sg.graph, placement.positions) == []
    rank = fraction_free_rank(rigidity_rows(sg.graph, placement))
    assert exact_rank(rigidity_matrix(sg.graph, placement)) == rank == 9


def test_pull_apart_gives_up_when_every_parameter_loses_rank(monkeypatch):
    sg = prism()
    tp = _certified_partition(sg)
    tried = []
    candidates, pull_apart = geometry._t_candidates, geometry.pull_apart

    def counted(limit):
        for p in candidates(limit):
            tried.append(p)
            yield p

    def last_round(*args, **kwargs):
        # only the candidates of the last call, the round that runs out, count
        tried.clear()
        return pull_apart(*args, **kwargs)

    monkeypatch.setattr(geometry, "_t_candidates", counted)
    monkeypatch.setattr(geometry, "pull_apart", last_round)
    # every round falls short mod P in the offline pass, at every t, as if
    # P divided every coefficient of every minor
    monkeypatch.setattr(geometry, "exact_rank", lambda matrix: None)
    with pytest.raises(ExhaustedT):
        pull_apart_fully(sg, tp)
    # three corner classes and nine edges: (3 + 1) + 9 + 1 candidates
    assert len(tried) == 14
    assert tried[:5] == [2, 3, 5, 7, 11]
    assert tried[-1] == 43


def test_candidate_parameters_are_prime_reciprocals_made_lazily():
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    # t = 1/p, given as p
    assert list(geometry._t_candidates(len(primes))) == primes
    assert list(geometry._t_candidates(0)) == []
    endless = geometry._t_candidates(10**9)
    assert [next(endless) for _ in range(3)] == [2, 3, 5]


def test_candidate_parameters_are_found_once():
    # The primes are kept across calls: asking again for as many as are
    # known gives them back and finds no new one.
    list(geometry._t_candidates(30))
    known = geometry._PRIMES
    assert len(known) >= 30
    assert list(geometry._t_candidates(len(known))) == list(known)
    assert geometry._PRIMES is known


def test_candidate_cache_survives_an_extension_inside_another(monkeypatch):
    # A second caller extends the cache in the middle of the first one's
    # trial division, as another thread might: the first still yields each
    # prime once, and the cache holds each once.
    monkeypatch.setattr(geometry, "_PRIMES", geometry._PRIMES[:1])
    takewhile = geometry.takewhile
    inner = []

    def interleaved(predicate, iterable):
        monkeypatch.setattr(geometry, "takewhile", takewhile)
        inner.extend(geometry._t_candidates(2))
        return takewhile(predicate, iterable)

    monkeypatch.setattr(geometry, "takewhile", interleaved)
    assert list(geometry._t_candidates(3)) == [2, 3, 5]
    assert inner == [2, 3]
    assert tuple(geometry._PRIMES) == (2, 3, 5)
    assert list(geometry._t_candidates(4)) == [2, 3, 5, 7]


def test_candidate_cache_holds_under_threads(monkeypatch):
    # More threads than cores extend one cache at once, switching every
    # microsecond: each still gets the primes in order, each once.
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]
    got = []

    def extend():
        for _ in range(5):
            got.append(list(geometry._t_candidates(len(primes))))

    monkeypatch.setattr(geometry, "_PRIMES", geometry._PRIMES[:1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extend) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [primes] * 20
    assert list(geometry._PRIMES) == primes[: len(geometry._PRIMES)]


def test_separated_state_refuses_a_coincident_edge_or_a_broken_symmetry():
    # The live state's placement checks the two invariants every round
    # keeps: the prism's parked state still has coincident edges, and a
    # separated state with one class point moved is no longer symmetric.
    sg = prism()
    act = sg.require_action()
    live = _live_frame(sg, _certified_partition(sg))
    with pytest.raises(InternalInvariantBroken, match="share a position"):
        live.placement(act)
    while live.coincident:
        geometry.pull_apart(sg, live)
    assert _symmetric(sg, live.placement(act))
    c = live.joint_class[0]
    x, y = live.points[c]
    live.points[c] = (x + 1000 * live.scales[c], y)
    with pytest.raises(InternalInvariantBroken, match="not symmetric"):
        live.placement(act)


def test_frame_route_yields_symmetric_isostatic_framework():
    sg = prism()
    tp = _certified_partition(sg)
    placement, _ = pull_apart_fully(sg, tp)
    pos = placement.positions
    assert all(pos[u] != pos[v] for u, v in sg.graph.edges)
    assert _symmetric(sg, placement)
    assert numeric_isostatic_check(sg, placement).isostatic


def test_scaling_rows_by_lambda_gives_rigidity_matrix():
    # the directions the separation ends with, read off a live state
    # separated here as the route separates it
    sg = prism()
    tp = _certified_partition(sg)
    live = _live_frame(sg, tp)
    rounds = 0
    while live.coincident:
        geometry.pull_apart(sg, live)
        rounds += 1
    placement = live.placement(sg.require_action())
    assert pull_apart_fully(sg, tp) == (placement, rounds)
    lams = _frame_lambdas(sg.graph, placement.positions, live.dirs)
    assert all(lams)
    # each row is built up to a positive scale, so the rows agree up to
    # the sign of their edge's scalar
    rig = rigidity_rows(sg.graph, placement)
    gen = pair_rows(sg.graph, live.dirs.__getitem__)
    for lam, rig_row, gen_row in zip(lams, rig, gen, strict=True):
        sign = 1 if lam > 0 else -1
        assert rig_row == {c: sign * x for c, x in gen_row.items()}


FRAME_PLACEMENT_DIGEST = "7fdca134907dd0ca2d2885efabefdd20e03939eee976f42f67887de4c422d3ba"


def _digest_graphs():
    graphs = [sg for sg in acceptance_corpus() if check_c3_isostatic(sg).isostatic]
    return graphs + [fast_tight_symgraph(s, n) for s in range(3) for n in (45, 90, 120)]


def test_frame_placements_match_their_pinned_digest():
    # One sha256 over the rounds and exact positions of the frame route on
    # 374 isostatic graphs pins the separation: the class split, the
    # parameter chosen and the recentring. The goldens cover six inputs only.
    digest = hashlib.sha256()
    for sg in _digest_graphs():
        tp = _certified_partition(sg)
        placement, rounds = pull_apart_fully(sg, tp)
        exact = [[e["x"], e["y"]] for e in cli._placement_json(placement)["exact"]]
        digest.update(json.dumps({"rounds": rounds, "exact": exact}, sort_keys=True).encode())
    assert digest.hexdigest() == FRAME_PLACEMENT_DIGEST


def test_digest_graphs_rarely_meet_a_deficit_mod_p(monkeypatch):
    # A deficit mod P costs the frame route a restart and the placement
    # check a pebble game for the matroid ceiling. The digest's graphs meet
    # ten, all on the frame route and none at generic seeds 0-2; a prime
    # that divided many of their minors would meet more.
    short = []
    first_short_round = geometry._first_short_round

    def counted(*args):
        bad = first_short_round(*args)
        if bad is not None:
            short.append(bad)
        return bad

    games = _counted_ceiling_games(monkeypatch)
    monkeypatch.setattr(geometry, "_first_short_round", counted)
    for sg in _digest_graphs():
        tp = _certified_partition(sg)
        placement, _ = pull_apart_fully(sg, tp)
        assert numeric_isostatic_check(sg, placement).isostatic
        for seed in range(3):
            assert numeric_isostatic_check(sg, symmetric_generic_positions(sg, seed)).isostatic
    assert 0 < len(short) <= 10 and not games


def _landing_key(live, split, p):
    # the key of the point the split's first copy lands on at t = 1/p
    copies, steps, _ = split
    c = live.joint_class[copies[0][0]]
    (x, y), s = live.points[c], live.scales[c]
    a, b = steps[0]
    return geometry._key((p * x + s * a, p * y + s * b), p * s)


def test_separation_skips_parameters_that_land_on_a_class(monkeypatch):
    # The digest's graphs reach the collision rule: some candidates are
    # skipped, with no rank taken, because a copy would land on a class or
    # on another copy at them.
    counts = dict.fromkeys(("rounds", "calls", "tried", "ranked", "skipped"), 0)
    candidates, rank, plan, pull_apart = (
        geometry._t_candidates, geometry.exact_rank, geometry._plan, geometry.pull_apart
    )
    latest = [None]

    def counted_plan(sg, live):
        split = plan(sg, live)
        latest[0] = live, split
        return split

    def counted_candidates(limit):
        live, split = latest[0]
        for p in candidates(limit):
            counts["tried"] += 1
            counts["skipped"] += _landing_key(live, split, p) in live.occupied
            yield p

    def counted_rank(matrix):
        counts["ranked"] += 1
        return rank(matrix)

    def counted(*args):
        counts["calls"] += 1
        return pull_apart(*args)

    monkeypatch.setattr(geometry, "_t_candidates", counted_candidates)
    monkeypatch.setattr(geometry, "exact_rank", counted_rank)
    monkeypatch.setattr(geometry, "_plan", counted_plan)
    monkeypatch.setattr(geometry, "pull_apart", counted)
    for sg in _digest_graphs():
        tp = _certified_partition(sg)
        counts["rounds"] += pull_apart_fully(sg, tp)[1]
    assert counts["ranked"] >= counts["rounds"] > 0
    # every call takes one candidate that is not skipped for a collision
    assert counts["tried"] - counts["skipped"] >= counts["calls"] >= counts["rounds"]
    assert counts["skipped"] > 0


def _scanned_class(sg, live):
    # the class to split as a scan over every coincident edge finds it: the
    # smallest vertex of its rotation representative at the corner of tree 0
    act = sg.require_action()
    best = None
    for u, v in sg.graph.sorted_edges:
        c = live.joint_class[u]
        if c == live.joint_class[v]:
            back = (None, act.gamma2, act.gamma)[live.miss[live.members[c][0]]]
            rep = live.members[c] if back is None else [back[x] for x in live.members[c]]
            if best is None or min(rep) < min(best):
                best = rep
    return sorted(best)


def _tried_parameter(sg, live, split, skip):
    # the parameter as a trial of every candidate finds it: with every class
    # point brought to the common scale D, the copies' landed points at the
    # scale p D against every class point times p
    copies, steps, _ = split
    scale = live.scale
    points = [(scale // s * x, scale // s * y) for (x, y), s in zip(live.points, live.scales)]
    occupied = set(points)
    starts = [points[live.joint_class[copy[0]]] for copy in copies]
    limit = 3 * (len(live.members) + 1) + sg.graph.m + 1
    for p in geometry._t_candidates(limit):
        landed = [(p * x + scale * a, p * y + scale * b) for (x, y), (a, b) in zip(starts, steps)]
        if len(set(landed)) < 3 or any(
            not x % p and not y % p and (x // p, y // p) in occupied for x, y in landed
        ):
            continue
        if not skip:
            return p
        skip -= 1
    return None


def test_indexed_rounds_match_the_scans(monkeypatch):
    # On every round of the digest's graphs, the ones run again after a
    # restart included, the class the queue gives is the one a scan of the
    # coincident edges gives, and the parameter taken past the collision
    # set is the one a trial of every candidate takes.
    pull_apart = geometry.pull_apart
    counts = {"rounds": 0, "restarted": 0}

    def checked(sg, live, skip=0):
        assert geometry._class_to_split(live) == _scanned_class(sg, live)
        split = geometry._plan(sg, live)
        expected = _tried_parameter(sg, live, split, skip)
        taken = pull_apart(sg, live, skip)
        assert taken == (split, expected)
        counts["rounds"] += 1
        counts["restarted"] += skip > 0
        return taken

    monkeypatch.setattr(geometry, "pull_apart", checked)
    for sg in _digest_graphs():
        tp = _certified_partition(sg)
        pull_apart_fully(sg, tp)
    assert counts["restarted"] >= 10 and counts["rounds"] > 900


def test_frame_route_verdict_is_the_placement_check(monkeypatch):
    # The frame route reports the rank its separation proved, with no rank
    # of the placement: that verdict is the placement check's.
    graphs = [k3()] + _digest_graphs()
    for sg in graphs:
        with monkeypatch.context() as patched:
            patched.setattr(cli, "numeric_isostatic_check", None)
            placement, verdict, _ = cli._realize(sg, "frame", 0)
        assert verdict == numeric_isostatic_check(sg, placement)
        assert verdict.isostatic


def _live_frame(sg, tp):
    # the start state pull_apart_fully reads
    return geometry._LiveFrame.read(sg, tp)


def _ranked_rounds(sg, tp):
    # the separation ranked round by round, with no speculation and no
    # offline pass: each round takes, on a copy of the live state, the first
    # collision-free t past k skipped ones whose rows keep full rank
    g = sg.graph
    live = _live_frame(sg, tp)
    rounds = 0
    while live.coincident:
        rounds += 1
        assert rounds <= g.n
        for k in itertools.count():
            trial = copy.deepcopy(live)
            geometry.pull_apart(sg, trial, k)
            if geometry.exact_rank(geometry._pair_matrix(g, trial.dirs.__getitem__)) == g.m:
                break
        live = trial
    return live.placement(sg.require_action()), rounds


def test_speculative_separation_matches_ranking_every_round(monkeypatch):
    # Where the offline pass finds a round short of full rank, the
    # separation takes that round back and speculates again from its next
    # collision-free t; the digest's graphs do so at n = 12, 15 and 120.
    # Every graph ends as the ranked loop ends.
    restarted = []
    pull_apart = geometry.pull_apart

    def counted(sg, live, skip=0):
        if skip:
            restarted.append(sg.graph.n)
        return pull_apart(sg, live, skip)

    for sg in _digest_graphs():
        tp = _certified_partition(sg)
        with monkeypatch.context() as patched:
            patched.setattr(geometry, "pull_apart", counted)
            speculated = pull_apart_fully(sg, tp)
        assert speculated == _ranked_rounds(sg, tp)
    assert {12, 15, 120} <= set(restarted)


def test_separation_reads_its_partition_once_and_builds_one_placement(monkeypatch):
    # The separation verifies the partition once and reads its start from
    # the partition, on entry and at each restart, so it builds one
    # Placement, the one it returns: on the prism and on the digest's
    # graphs, those that restart at n = 12, 15 and 120 among them.
    counts = {"placements": 0, "verified": 0}
    restarted = set()
    placement_init, verify, pull_apart = (
        geometry.Placement.__post_init__,
        geometry.verify_tree_partition,
        geometry.pull_apart,
    )

    def counted_placement(placement):
        counts["placements"] += 1
        placement_init(placement)

    def counted_verify(sg, tp):
        counts["verified"] += 1
        return verify(sg, tp)

    def counted(sg, live, skip=0):
        if skip:
            restarted.add(sg.graph.n)
        return pull_apart(sg, live, skip)

    monkeypatch.setattr(geometry.Placement, "__post_init__", counted_placement)
    monkeypatch.setattr(geometry, "verify_tree_partition", counted_verify)
    monkeypatch.setattr(geometry, "pull_apart", counted)
    for sg in [prism()] + _digest_graphs():
        tp = _certified_partition(sg)
        live = geometry._LiveFrame.read(sg, tp)
        assert live.tree == [tp.tree_of[e] for e in sg.graph.sorted_edges]
        counts.update(placements=0, verified=0)
        pull_apart_fully(sg, tp)
        assert counts == {"placements": 1, "verified": 1}
    assert {12, 15, 120} <= restarted


def _realize_frame_graphs(seed):
    # the benchmark's 48 realize_frame graphs at n = 45 for one seed; it
    # draws each op's placement seed right after the op's graph
    from bench import gen

    rng = random.Random(f"realize_frame:{seed}")
    graphs = []
    for _ in range(48):
        graphs.append(parse_graph(gen.make_graph(rng, "tight", 45)))
        rng.randrange(10**6)
    return graphs


def _plain_round_ranks(g, history, lo, hi):
    # each round's plain rows, one ``_row`` per edge, eliminated from
    # scratch: the round, its rank mod P, and whether its exact rank, by the
    # reference, is short of full row rank
    for j in range(lo, hi + 1):
        now = {i: q for i, q, a, b in history if a <= j <= b}
        rank = geometry._pair_matrix(g, now.__getitem__).modular_rank()
        short = rank < g.m and fraction_free_rank(pair_rows(g, now.__getitem__)) < g.m
        yield j, rank, short


def _plain_first_short_round(g, history, lo, hi, blocks):
    # the offline pass on plain rows, ranked by the exact reference, for
    # ``geometry._first_short_round``
    return next((j for j, _, short in _plain_round_ranks(g, history, lo, hi) if short), None)


def test_orbit_blocks_pick_the_short_rounds_plain_rows_pick(monkeypatch):
    # Every round of the frame route on the digest's graphs and the
    # benchmark's realize_frame graphs at seeds 0-2 is ranked through the
    # orbit blocks and, test-side, through plain rows: both find the same
    # first short round at every offline pass, and the separation ends the
    # same with either. The rank the walk carries is r0 + 2 r1, and where
    # it is full, so is the plain rank mod P.
    first_short_round = geometry._first_short_round
    counts = {"rounds": 0, "block_short": 0, "short": 0}

    def checked(g, history, lo, hi, blocks):
        reps, rows_of, twice_from = blocks
        versions = [(row, a, b) for i, q, a, b in history if i in reps for row in rows_of(i, q)]
        walked = field._round_pivots(versions, lo, hi, twice_from)
        for (j, pivots, rank), (k, plain, short) in zip(
            walked, _plain_round_ranks(g, history, lo, hi), strict=True
        ):
            r0 = sum(c < twice_from for c in pivots)
            assert j == k and rank == r0 + 2 * (len(pivots) - r0)
            counts["rounds"] += 1
            counts["short"] += short
            if rank == g.m:
                assert plain == g.m and not short
            else:
                counts["block_short"] += 1
        bad = first_short_round(g, history, lo, hi, blocks)
        assert bad == _plain_first_short_round(g, history, lo, hi, blocks)
        return bad

    graphs = _digest_graphs() + [sg for seed in range(3) for sg in _realize_frame_graphs(seed)]
    for sg in graphs:
        tp = _certified_partition(sg)
        with monkeypatch.context() as patched:
            patched.setattr(geometry, "_first_short_round", checked)
            blocked = pull_apart_fully(sg, tp)
        with monkeypatch.context() as patched:
            patched.setattr(geometry, "_first_short_round", _plain_first_short_round)
            assert pull_apart_fully(sg, tp) == blocked
    # the digest's restarts are among the short rounds, and on these graphs
    # the blocks fall short mod P at no other round
    assert counts["block_short"] == counts["short"] >= 10
    assert counts["rounds"] > 2500


def test_separation_refuses_an_unverified_partition_before_any_round(monkeypatch):
    # K4 with the hub 3 fixed, under a hand-built partition that puts every
    # vertex in exactly two trees: no verified partition has a fixed vertex,
    # and the separation verifies this one before it builds a live state
    edges = [list(e) for e in itertools.combinations(range(4), 2)]
    sg = parse_graph({"vertices": 4, "edges": edges, "c3": [1, 2, 0, 3]})
    tp = TreePartition(
        (frozenset({(0, 1), (0, 2), (1, 2)}), frozenset({(0, 3), (1, 3)}), frozenset({(2, 3)}))
    )

    def refuse(*args):
        raise AssertionError("a live state was built")

    monkeypatch.setattr(geometry._LiveFrame, "read", refuse)
    with pytest.raises(InvalidPartition, match="rotation_cycles_trees"):
        pull_apart_fully(sg, tp)


def _offline_case(rng):
    # Each of m slots holds a run of row versions over the rounds lo..hi,
    # with images from few values over few columns, so some rounds are
    # dependent by chance; half the cases copy one slot's row into another
    # slot for one round, which makes that round dependent.
    lo = rng.randint(1, 5)
    hi = lo + rng.randint(0, 12)
    vertices = rng.randint(2, 6)
    runs = []
    for _ in range(rng.randint(1, 2 * vertices - 1)):
        run, a = [], lo
        while a <= hi:
            b = rng.randint(a, hi)
            image = (rng.randrange(3), rng.randrange(3))
            run.append([geometry._row(*rng.sample(range(vertices), 2), image), a, b])
            a = b + 1
        runs.append(run)
    if len(runs) > 1 and rng.random() < 0.5:
        j = rng.randint(lo, hi)
        source, target = rng.sample(runs, 2)
        row = next(r for r, a, b in source if a <= j <= b)
        k = next(i for i, (_, a, b) in enumerate(target) if a <= j <= b)
        old, a, b = target[k]
        target[k : k + 1] = [[old, a, j - 1], [row, j, j], [old, j + 1, b]]
    return [tuple(v) for run in runs for v in run], lo, hi


def test_offline_pass_eliminates_every_round():
    rng = random.Random(16)
    outcomes = {"none": 0, "first": 0, "later": 0}
    for _ in range(400):
        versions, lo, hi = _offline_case(rng)
        rounds = [[row for row, a, b in versions if a <= j <= b] for j in range(lo, hi + 1)]
        # no pivot reaches column 12, as the cases have at most six vertices;
        # then the pivots from a random column on count twice
        for twice_from in (12, rng.randrange(12)):
            walked = []
            for j, pivots, rank in field._round_pivots(versions, lo, hi, twice_from):
                rows = rounds[j - lo]
                copies = [dict(row) for row in rows]
                alone = field.PartialElimination(len(rows), 12, {}, copies, twice_from)
                # the pivots are keyed by their leading columns, count the
                # rank the sweep carries and span the round's rows: those
                # ``span_key`` and the planted deficits read
                assert all(min(row) == c for c, row in pivots.items())
                r0 = sum(c < twice_from for c in pivots)
                assert rank == r0 + 2 * (len(pivots) - r0) == alone.modular_rank()
                swept = field.PartialElimination(len(rows), 12, pivots, [], twice_from, rank)
                assert span_key(swept) == span_key(alone)
                walked.append(j)
            assert walked == list(range(lo, hi + 1))
        ranks = [field._eliminate(map(dict, rows), {}, 12) for rows in rounds]
        short = [j for j, rows, r in zip(range(lo, hi + 1), rounds, ranks) if r < len(rows)]
        outcomes["none" if not short else "first" if short[0] == lo else "later"] += 1
    assert min(outcomes.values()) >= 40


def test_offline_pass_hands_each_row_version_to_the_elimination_once(monkeypatch):
    # The separation of this graph takes one offline pass over 284 rounds.
    # The sweep hands each row version with a nonempty round range to
    # ``_eliminate`` once, 4272 rows in all, where a segment tree over the
    # rounds handed each one to every node that covered its range, 19326
    # rows. The count is exact: the separation is deterministic.
    sg = fast_tight_symgraph(11, 960)
    tp = _certified_partition(sg)
    offline, eliminate = geometry._round_pivots, field._eliminate
    passes, handed = [], []

    def kept_offline(versions, lo, hi, twice_from):
        passes.append((versions, lo, hi))
        return offline(versions, lo, hi, twice_from)

    def counted(rows, pivots, twice_from, inverses=None, lasts=None):
        rows = list(rows)
        handed.extend(row if lasts is None else row[0] for row in rows)
        return eliminate(rows, pivots, twice_from, inverses, lasts)

    monkeypatch.setattr(geometry, "_round_pivots", kept_offline)
    monkeypatch.setattr(field, "_eliminate", counted)
    assert pull_apart_fully(sg, tp)[1] == 284
    [(versions, lo, hi)] = passes
    assert (lo, hi) == (1, 284)
    nonempty = [row for row, a, b in versions if a <= b]
    assert len(nonempty) < len(versions)
    assert collections.Counter(map(id, handed)) == collections.Counter(map(id, nonempty))
    assert len(handed) == 4272


def _planted_keys(sg, dirs):
    # the spans mod P of a round's plain rows and of its orbit blocks: the
    # matrices ``_ranked_rounds`` and the offline pass rank for that round
    g = sg.graph
    return [span_key(geometry._pair_matrix(g, dirs.__getitem__, act)) for act in (None, sg.action)]


def test_a_failed_speculative_round_waits_for_the_rounds_before_it(monkeypatch):
    # A speculative round may fail only because an earlier round lost rank
    # and left a wrong state. With round 2 short of full rank at its first
    # t and a failure at the fourth speculative round, rounds 1-3 are ranked
    # first, and speculation goes on from round 2 at its next t, ending as
    # the ranked loop ends with the same deficit.
    sg = fast_tight_symgraph(0, 45)
    tp = _certified_partition(sg)
    unplanted = _ranked_rounds(sg, tp)
    live = _live_frame(sg, tp)
    geometry.pull_apart(sg, live)
    geometry.pull_apart(sg, live)
    planted = _planted_keys(sg, live.dirs)
    rank, offline, plan, pull_apart = (
        geometry.exact_rank, geometry._round_pivots, geometry._plan, geometry.pull_apart
    )
    asked, planned, restarted = [], [], []

    def planted_rank(matrix):
        return None if span_key(matrix) in planted else rank(matrix)

    def counted_offline(versions, lo, hi, twice_from):
        asked.append((lo, hi))
        return offline(versions, lo, hi, twice_from)

    def failing_plan(*args):
        planned.append(True)
        if len(planned) == 4:
            raise InternalInvariantBroken("planted")
        return plan(*args)

    def counted(sg, live, skip=0):
        if skip:
            restarted.append(len(live.members))
        return pull_apart(sg, live, skip)

    monkeypatch.setattr(geometry, "exact_rank", planted_rank)
    expected = _ranked_rounds(sg, tp)
    assert expected != unplanted and expected[1] > 4
    monkeypatch.setattr(geometry, "_round_pivots", counted_offline)
    monkeypatch.setattr(geometry, "_plan", failing_plan)
    monkeypatch.setattr(geometry, "pull_apart", counted)
    assert pull_apart_fully(sg, tp) == expected
    assert asked[:2] == [(1, 3), (2, expected[1])]
    # three classes at the start and three more per round: round 2 reran
    assert restarted == [6]


def test_a_round_short_at_two_successive_parameters_skips_both(monkeypatch):
    # With round 2 short of full rank at its first two collision-free t,
    # the separation redoes it past one and then past two of them, and ends
    # as the ranked loop ends. A skip that started again at one would find
    # the second t short for ever; the call bound turns that into a failure.
    sg = fast_tight_symgraph(0, 45)
    g = sg.graph
    tp = _certified_partition(sg)
    live = _live_frame(sg, tp)
    geometry.pull_apart(sg, live)
    planted = []
    for k in range(2):
        trial = copy.deepcopy(live)
        geometry.pull_apart(sg, trial, k)
        planted += _planted_keys(sg, trial.dirs)
    rank, pull_apart = geometry.exact_rank, geometry.pull_apart
    calls, skipped = [], []

    def planted_rank(matrix):
        return None if span_key(matrix) in planted else rank(matrix)

    def counted(sg, live, skip=0):
        calls.append(skip)
        assert len(calls) <= 4 * g.n, "the skip did not advance"
        if skip:
            skipped.append((len(live.members), skip))
        return pull_apart(sg, live, skip)

    monkeypatch.setattr(geometry, "exact_rank", planted_rank)
    expected = _ranked_rounds(sg, tp)
    monkeypatch.setattr(geometry, "pull_apart", counted)
    assert pull_apart_fully(sg, tp) == expected
    # three classes at the start and three more per round: round 2, twice
    assert skipped == [(6, 1), (6, 2)]


def test_a_failed_speculative_round_raises_as_the_ranked_round(monkeypatch):
    # With the rounds before it at full rank, a failing speculative round
    # raises the error the ranked loop raises: here a planted one in the
    # fourth round.
    sg = fast_tight_symgraph(0, 45)
    tp = _certified_partition(sg)
    offline, plan = geometry._round_pivots, geometry._plan
    asked = []

    def counted_offline(versions, lo, hi, twice_from):
        asked.append((lo, hi))
        return offline(versions, lo, hi, twice_from)

    def failing_plan(sg, live):
        if len(live.members) == 12:
            raise NoSeparableComponent("planted in round 4")
        return plan(sg, live)

    monkeypatch.setattr(geometry, "_round_pivots", counted_offline)
    monkeypatch.setattr(geometry, "_plan", failing_plan)
    with pytest.raises(NoSeparableComponent, match="planted in round 4"):
        _ranked_rounds(sg, tp)
    with pytest.raises(NoSeparableComponent, match="planted in round 4"):
        pull_apart_fully(sg, tp)
    assert asked == [(1, 3)]


def _rational_copies(sg, live, c, d):
    # The copies of a split from class c moved by d and its rotations: class
    # c and the two classes that hold the rotated images of its members, each
    # at its rational point. Returns whether they land on an occupied class
    # point or on each other at t = 1/p, and where they land.
    act = sg.require_action()
    points = [(Fraction(x, s), Fraction(y, s)) for (x, y), s in zip(live.points, live.scales)]
    occupied = set(points)
    classes = []
    for back in (None, act.gamma, act.gamma2):
        image = live.members[c] if back is None else [back[x] for x in live.members[c]]
        classes.append(live.joint_class[image[0]])
        assert {live.joint_class[x] for x in image} == {classes[-1]}
    steps = (d, rotate_omega(d), rotate_omega(rotate_omega(d)))

    def landed(p):
        return [
            (x + Fraction(a, p), y + Fraction(b, p))
            for (x, y), (a, b) in zip((points[k] for k in classes), steps)
        ]

    def collide(p):
        return len(set(landed(p))) < 3 or bool(set(landed(p)) & occupied)

    return collide, landed


def test_integer_collision_rule_matches_the_rational_points():
    # A split's first copy, class c's members, moved by a direction d of
    # ``_SPLITS`` at t = 1/p, and its two rotated copies land on an
    # occupied class point, or on each other, exactly when the first copy's
    # landing point is in ``live.occupied``, for every p up to 60, before
    # and after each round of two separations.
    rng = random.Random(5)
    directions = [d for _, d in geometry._SPLITS]
    hits = states = 0
    for sg in (prism(), fast_tight_symgraph(0, 45)):
        tp = _certified_partition(sg)
        live = _live_frame(sg, tp)
        while True:
            for _ in range(20):
                c = rng.randrange(len(live.members))
                d = rng.choice(directions)
                split = ([live.members[c]], [d], {})
                collide, _ = _rational_copies(sg, live, c, d)
                for p in range(1, 61):
                    occupied = _landing_key(live, split, p) in live.occupied
                    assert occupied == collide(p)
                    hits += occupied
            states += 1
            if not live.coincident:
                break
            geometry.pull_apart(sg, live)
    assert states >= 10 and hits > 0


@pytest.mark.parametrize("d", [d for _, d in geometry._SPLITS])
def test_copies_that_meet_at_the_centre_collide(d):
    # No separation of the corpus lands a first copy on the centre at a
    # positive integer p, so this state is placed by hand: the prism's
    # corner classes moved so that the class at the corner of tree 0 and its
    # two rotated images, moved by d and its rotations at t = 1/7, all land
    # on ``_CENTRE``. The frame stays symmetric about it.
    sg = prism()
    act = sg.require_action()
    live = _live_frame(sg, _certified_partition(sg))
    p = 7
    (cx, cy), r = geometry._CENTRE
    c = live.joint_class[live.miss.index(0)]
    offset = (-r * d[0], -r * d[1])  # the point C - d/p over the scale r p
    for x in (live.members[c][0], act.gamma[live.members[c][0]], act.gamma2[live.members[c][0]]):
        k = live.joint_class[x]
        live.occupied.discard(geometry._key(live.points[k], live.scales[k]))
        live.points[k] = (p * cx + offset[0], p * cy + offset[1])
        live.scales[k] = r * p
        live._index(k)
        offset = rotate_omega(offset)
    centre = (Fraction(cx, r), Fraction(cy, r))

    def from_centre(v):
        (x, y), s = live.points[live.joint_class[v]], live.scales[live.joint_class[v]]
        return (Fraction(x, s) - centre[0], Fraction(y, s) - centre[1])

    assert all(from_centre(act.gamma[v]) == rotate_omega(from_centre(v)) for v in range(sg.graph.n))
    split = ([live.members[c]], [d], {})
    collide, landed = _rational_copies(sg, live, c, d)
    assert _landing_key(live, split, p) == geometry._key(*geometry._CENTRE)
    assert all(
        (_landing_key(live, split, q) in live.occupied) == collide(q) for q in range(1, 61)
    )
    assert set(landed(p)) == {centre}


def test_separation_tests_a_pinned_number_of_candidates(monkeypatch):
    # Each round looks up one landing point per candidate it tests: over
    # this separation, 12907 candidates in 284 rounds. The counts are
    # exact: the separation is deterministic.
    candidates = geometry._t_candidates
    tested = 0

    def counted(limit):
        nonlocal tested
        for p in candidates(limit):
            tested += 1
            yield p

    monkeypatch.setattr(geometry, "_t_candidates", counted)
    sg = fast_tight_symgraph(11, 960)
    assert pull_apart_fully(sg, _certified_partition(sg))[1] == 284
    assert tested == 12907


@settings(max_examples=200, deadline=None)
@given(
    st.integers(), st.integers(), st.integers(min_value=1), st.integers(min_value=1, max_value=10**6)
)
def test_a_point_has_one_key_whatever_its_scale(a, b, s, k):
    assert geometry._key((k * a, k * b), k * s) == geometry._key((a, b), s)


small_ints = st.integers(min_value=-12, max_value=12)
small_scales = st.integers(min_value=1, max_value=12)


@settings(max_examples=500, deadline=None)
@given(small_ints, small_ints, small_scales, small_ints, small_ints, small_scales)
@example(1, -2, 3, 4, -8, 12)
@example(0, 0, 5, 0, 0, 1)
def test_two_keys_are_equal_exactly_when_their_points_are(a, b, s, c, d, r):
    same = (Fraction(a, s), Fraction(b, s)) == (Fraction(c, r), Fraction(d, r))
    assert (geometry._key((a, b), s) == geometry._key((c, d), r)) == same


def test_frame_route_on_corpus():
    rng = random.Random(99)
    for n in (6, 9, 12):
        sg = random_tight_symgraph(rng, n)
        tp = _certified_partition(sg)
        parked = geometry._LiveFrame.read(sg, tp).dirs
        assert exact_rank(generalized_matrix(sg.graph, parked)) == sg.graph.m
        placement, _ = pull_apart_fully(sg, tp)
        assert numeric_isostatic_check(sg, placement).isostatic
        assert _symmetric(sg, placement)


def test_generic_and_combinatorial_verdicts_agree():
    rng = random.Random(2718)
    for _ in range(10):
        sg = random_tight_symgraph(rng, 3 * rng.randint(2, 5))
        bad = perturb_edge_swap(rng, sg)
        assert numeric_isostatic_check(sg, symmetric_generic_positions(sg, 0)).isostatic
        from c3rig import check_c3_isostatic

        expected = check_c3_isostatic(bad).isostatic
        got = numeric_isostatic_check(bad, symmetric_generic_positions(bad, 0)).isostatic
        if got and not expected:
            raise AssertionError("rank exceeded the combinatorial bound")
        if expected and not got:
            got = numeric_isostatic_check(
                bad, symmetric_generic_positions(bad, 1)
            ).isostatic
        assert got == expected


def test_omega_pairs_commute_with_the_rotation():
    h = Fraction(1, 2)
    assert [_report_point(p) for p in E_POINTS] == [(0, 0), (1, 0), (h, h)]
    assert [_report_point(d) for d in TREE_DIRECTIONS] == [(-h, h), (-h, -h), (1, 0)]
    for p in E_POINTS + TREE_DIRECTIONS:
        rotated = _sympy_point(rotate_omega(p))
        assert _same_sympy_point(rotated, _sympy_rotate(_sympy_point(p)))
    rng = random.Random(3)
    for _ in range(50):
        a, b = [(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(2)]
        rotated = _sympy_point(rotate_omega(a))
        assert _same_sympy_point(rotated, _sympy_rotate(_sympy_point(a)))
        assert rotate_omega(rotate_omega(rotate_omega(a))) == a
        # linear, so a placement may be recentred before or after converting
        c, d = rng.randint(-9, 9), rng.randint(1, 9)
        assert _report_point((a[0] + c * b[0], a[1] + c * b[1]), d) == tuple(
            (x + c * y) / d for x, y in zip(_report_point(a), _report_point(b))
        )
        assert _report_point(a, d) == ((a[0] - Fraction(a[1], 2)) / d, Fraction(a[1], 2 * d))
    # a pair over a scale converts like the pair divided by it
    assert _report_point((6, -10), 2) == _report_point((3, -5)) == (Fraction(11, 2), Fraction(-5, 2))


def _cartesian_rank(g, directions):
    # exact rank over Q(sqrt 3) of the generalized rigidity matrix with
    # Cartesian directions, through the regular representation
    # a + b*sqrt(3) -> [[a, 3b], [b, a]], a rational matrix of twice that rank
    rows = []
    for (u, v), d in zip(g.sorted_edges, map(_cartesian, directions)):
        top, bottom = [0] * (4 * g.n), [0] * (4 * g.n)
        for k, (xa, xb) in enumerate(d):
            for col, a, b in ((2 * u + k, xa, xb), (2 * v + k, -xa, -xb)):
                top[2 * col], top[2 * col + 1] = a, 3 * b
                bottom[2 * col], bottom[2 * col + 1] = b, a
        rows += [top, bottom]
    doubled = fraction_free_rank(integer_rows(rows))
    assert doubled % 2 == 0
    return doubled // 2


def _pair_rank_mod_p(g, directions):
    # rank mod P of the rows of direction pairs
    rows = [
        geometry._row(u, v, (d[0] % _P, d[1] % _P))
        for (u, v), d in zip(g.sorted_edges, directions)
    ]
    return field._eliminate(rows, {}, 2 * g.n)


def test_rational_rows_rank_like_the_generalized_rigidity_matrix():
    rng = random.Random(8)
    steps = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]
    deficient = 0
    for sg in acceptance_corpus():
        g = sg.graph
        if check_c3_isostatic(sg).isostatic:
            # full rank mod P on both sides proves both exact ranks full
            # the parked frame's directions, and the position differences
            # of the placement the separation returns
            tp = _certified_partition(sg)
            pos = pull_apart_fully(sg, tp)[0].positions
            differences = [v_sub(pos[u], pos[v]) for u, v in g.sorted_edges]
            for directions in (geometry._LiveFrame.read(sg, tp).dirs, differences):
                assert _pair_rank_mod_p(g, directions) == _cartesian_rank(g, directions) == g.m
        # directions drawn from few values, so many of these lose rank
        drawn = tuple(rng.choice(steps) for _ in range(g.m))
        matrix = generalized_matrix(g, drawn)
        exact = fraction_free_rank(pair_rows(g, drawn.__getitem__))
        assert exact == _cartesian_rank(g, drawn)
        assert _pair_rank_mod_p(g, drawn) == matrix.modular_rank()
        deficient += exact < g.m
    assert deficient > 100


def test_separation_ranks_only_through_the_orbit_blocks(monkeypatch):
    # the separation ranks mod P only, through the orbit blocks: no plain
    # row is built and no pebble game runs for a ceiling
    def refuse(*args, **kwargs):
        raise AssertionError("plain rows or a ceiling game reached")

    for sg in (prism(), random_tight_symgraph(7, 45)):
        tp = _certified_partition(sg)
        with monkeypatch.context() as patched:
            patched.setattr(geometry, "_row", refuse)
            patched.setattr(geometry, "_play_in_degree_order", refuse)
            placement, rounds = pull_apart_fully(sg, tp)
        assert rounds >= 1
        assert _coincident_edges(sg.graph, placement.positions) == []
        assert numeric_isostatic_check(sg, placement).isostatic


def test_class_connected_in_both_trees_cannot_separate():
    # Three K4s rotated into each other; each K4 is two spanning trees of
    # the partition (trees 1 and 2 for the first), so each parks on one
    # corner as a class that no tree splits. The K4s are over the count, so
    # the partition is not proper and the separation refuses it; a round
    # run on its parked frame anyway finds no part to move.
    path = [(0, 1), (1, 2), (2, 3)]
    star = [(0, 2), (0, 3), (1, 3)]

    def shift(edges, k):
        return [(u + 4 * k, v + 4 * k) for u, v in edges]

    trees = (
        frozenset(shift(star, 1) + shift(path, 2)),
        frozenset(path + shift(star, 2)),
        frozenset(star + shift(path, 1)),
    )
    edges = frozenset().union(*trees)
    sg = SymGraph(Graph(12, edges), C3Action(tuple((v + 4) % 12 for v in range(12))))
    tp = TreePartition(trees)
    parked = tuple(E_POINTS[v // 4] for v in range(12))
    assert len(_coincident_edges(sg.graph, parked)) == 18
    with pytest.raises(InvalidPartition, match="proper"):
        pull_apart_fully(sg, tp)
    # each K4 misses the tree whose corner it is parked on
    live = geometry._LiveFrame.read(sg, tp)
    with pytest.raises(NoSeparableComponent):
        geometry.pull_apart(sg, live)
