import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings, strategies as st

from c3rig import (
    C3Action,
    Frame,
    Graph,
    SymGraph,
    build_tree_partition,
    check_c3_isostatic,
    exact_rank,
    extract_sequence,
    frame_from_partition,
    framework_from_frame,
    numeric_isostatic_check,
    pull_apart_fully,
    relabel_partition,
    rigidity_matrix,
    symmetric_generic_positions,
)
from c3rig import field, geometry
from c3rig.field import _P, ExactMatrix, QSqrt3
from c3rig.errors import (
    CoincidentAdjacentJoints,
    DegenerateSpan,
    ExhaustedRetries,
    ExhaustedT,
    FixedVertexPresent,
    InternalInvariantBroken,
    NoSeparableComponent,
    ZeroDirection,
)
from c3rig.geometry import (
    E_POINTS,
    TREE_DIRECTIONS,
    Placement,
    adjacent_coincidences,
    frame_lambdas,
    from_omega,
    generalized_rigidity_matrix,
    placement_is_symmetric,
    rotate_omega,
    v_add,
    v_scale,
    v_sub,
)
from c3rig.trees import TreePartition
from tests.corpus import (
    acceptance_corpus,
    fast_tight_symgraph,
    k13_hub,
    k3,
    octahedron,
    perturb_edge_swap,
    prism,
    random_tight_symgraph,
)


def q(a, b=0):
    return QSqrt3(Fraction(a), Fraction(b))


def pair(a, b):
    return (Fraction(a), Fraction(b))


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _sympy(x):
    # a Q(sqrt 3) report coordinate as a sympy number
    sympy = pytest.importorskip("sympy")
    return sympy.Rational(x.a.numerator, x.a.denominator) + sympy.Rational(
        x.b.numerator, x.b.denominator
    ) * sympy.sqrt(3)


def _sympy_rotate(p):
    # the Cartesian rotation by 120 degrees of a Q(sqrt 3) point, in sympy
    sympy = pytest.importorskip("sympy")
    c, s = sympy.Rational(-1, 2), sympy.sqrt(3) / 2
    x, y = map(_sympy, p)
    return (c * x - s * y, s * x + c * y)


def _same_sympy_point(p, q):
    return all((a - b).expand() == 0 for a, b in zip(p, q))


def _sympy_cartesian_rank(g, placement):
    # sympy's rank of the Cartesian rigidity matrix at the converted points
    sympy = pytest.importorskip("sympy")
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    cart = [tuple(map(_sympy, p)) for p in map(from_omega, placement.positions)]
    rows = []
    for u, v in g.sorted_edges:
        row = [0] * (2 * g.n)
        dx, dy = cart[u][0] - cart[v][0], cart[u][1] - cart[v][1]
        row[2 * u], row[2 * u + 1], row[2 * v], row[2 * v + 1] = dx, dy, -dx, -dy
        rows.append(row)
    # exact arithmetic in Q(sqrt 3), so no zero test needs simplification
    q_sqrt3 = sympy.QQ.algebraic_field(sympy.sqrt(3))
    return DomainMatrix.from_list_sympy(len(rows), 2 * g.n, rows).convert_to(q_sqrt3).rank()


def test_symmetric_positions_satisfy_rotation_equation():
    sg = prism()
    placement = symmetric_generic_positions(sg, 7)
    pos = placement.positions
    assert all(pos[u] != pos[v] for u, v in sg.graph.edges)
    assert placement_is_symmetric(sg, placement)


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
    assert m.entries == ((-1, -2, 1, 2),)


def test_rigidity_rows_sum_to_zero():
    sg = prism()
    placement = symmetric_generic_positions(sg, 5)
    m = rigidity_matrix(sg.graph, placement)
    for row in m.entries:
        nonzero = [x for x in row if x]
        assert len(nonzero) <= 4
        assert sum(row[2 * v] for v in range(6)) == 0
        assert sum(row[2 * v + 1] for v in range(6)) == 0


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
            placement = symmetric_generic_positions(graph, 1)
            rank = exact_rank(rigidity_matrix(graph.graph, placement))
            assert rank <= min(graph.graph.m, 2 * graph.graph.n - 3)


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


def test_full_rank_placement_builds_no_exact_matrix(monkeypatch):
    # the octahedron's 12 rows reach only rank 9: the 2n - 3 ceiling is
    # what proves that rank mod P
    cases = [(prism(), 9, 9), (random_tight_symgraph(7, 60), 117, 117), (octahedron(), 12, 9)]
    placements = [symmetric_generic_positions(sg, 0) for sg, _, _ in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("exact matrix or exact elimination reached")

    monkeypatch.setattr(geometry, "rigidity_matrix", refuse)
    monkeypatch.setattr(geometry, "_pair_matrix", refuse)
    monkeypatch.setattr(geometry, "ExactMatrix", refuse)
    monkeypatch.setattr(field, "ExactMatrix", refuse)
    monkeypatch.setattr(field, "_fraction_free_rank", refuse)
    for (sg, m, rank), placement in zip(cases, placements):
        verdict = numeric_isostatic_check(sg, placement)
        assert (verdict.edge_count, verdict.rank, verdict.flex_dim) == (m, rank, 0)


def _counted_exact_elimination(monkeypatch):
    calls = []
    original = field._fraction_free_rank

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(field, "_fraction_free_rank", counted)
    return calls


def _prism_at(inner, outer):
    # inner triangle at inner, R inner, R^2 inner; outer likewise, R the rotation
    def orbit(p):
        return [p, rotate_omega(p), rotate_omega(rotate_omega(p))]

    return Placement(tuple(orbit(inner) + orbit(outer)))


# the bars 0-3, 1-4, 2-5 lie on three lines through the origin
_CONCURRENT = _prism_at(pair(Fraction(3, 7), Fraction(-2, 5)), pair(Fraction(6, 7), Fraction(-4, 5)))
# a coordinate with denominator P has no image mod P
_NO_IMAGE = _prism_at(pair(Fraction(1, _P), Fraction(2, 5)), pair(Fraction(3, 7), Fraction(-5, 11)))


def test_concurrent_prism_bars_reach_exact_elimination(monkeypatch):
    sg = prism()
    assert placement_is_symmetric(sg, _CONCURRENT)
    calls = _counted_exact_elimination(monkeypatch)
    verdict = numeric_isostatic_check(sg, _CONCURRENT)
    assert (verdict.rank, verdict.flex_dim) == (8, 1)
    assert not verdict.isostatic and not verdict.independent
    assert len(calls) == 1


def test_placement_without_an_image_reaches_exact_elimination(monkeypatch):
    sg = prism()
    assert placement_is_symmetric(sg, _NO_IMAGE)
    calls = _counted_exact_elimination(monkeypatch)
    verdict = numeric_isostatic_check(sg, _NO_IMAGE)
    assert verdict.isostatic and verdict.rank == 9
    assert len(calls) == 1


@pytest.mark.parametrize("placement, rank", [(_CONCURRENT, 8), (_NO_IMAGE, 9)])
def test_planted_prism_ranks_match_sympy(placement, rank):
    assert _sympy_cartesian_rank(prism().graph, placement) == rank
    assert numeric_isostatic_check(prism(), placement).rank == rank


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
    cart = [from_omega(p) for p in placement.positions]
    rotates = all(
        _same_sympy_point(tuple(map(_sympy, cart[sg.action.gamma[v]])), _sympy_rotate(cart[v]))
        for v in range(sg.graph.n)
    )
    assert placement_is_symmetric(sg, placement) == rotates == (not nudge)
    assert numeric_isostatic_check(sg, placement).rank == _sympy_cartesian_rank(
        sg.graph, placement
    )


def test_placement_rank_matches_the_rigidity_matrix_on_acceptance_corpus():
    for sg in acceptance_corpus():
        g = sg.graph
        placement = symmetric_generic_positions(sg, 0)
        expected = exact_rank(rigidity_matrix(g, placement), 2 * g.n - 3)
        assert numeric_isostatic_check(sg, placement).rank == expected


@given(st.tuples(small_rationals, small_rationals))
def test_pair_rotation_is_the_cartesian_product(p):
    rotated = tuple(map(_sympy, from_omega(rotate_omega(p))))
    assert _same_sympy_point(rotated, _sympy_rotate(from_omega(p)))
    assert rotate_omega(rotate_omega(rotate_omega(p))) == p


def _certified_partition(sg):
    seq = extract_sequence(sg)
    return relabel_partition(build_tree_partition(seq), seq.relabeling)


def test_k3_frame_positions():
    sg = k3()
    frame = frame_from_partition(sg, _certified_partition(sg))
    # each vertex sits at the corner of the one tree it misses
    assert frame.positions == (E_POINTS[1], E_POINTS[2], E_POINTS[0])
    assert exact_rank(generalized_rigidity_matrix(sg.graph, frame)) == 3
    assert adjacent_coincidences(sg.graph, frame) == ()
    assert pull_apart_fully(sg, _certified_partition(sg), frame) == (frame, 0)


def test_prism_frame_parks_two_joints_per_corner():
    sg = prism()
    tp = _certified_partition(sg)
    frame = frame_from_partition(sg, tp)
    frame_lambdas(sg.graph, frame)  # the defining scalar exists per edge
    for corner in E_POINTS:
        assert sum(1 for p in frame.positions if p == corner) == 2
    assert exact_rank(generalized_rigidity_matrix(sg.graph, frame)) == 9


def test_generalized_matrix_single_edge():
    g = Graph(2, frozenset({(0, 1)}))
    frame = Frame((pair(0, 0), pair(0, 0)), (pair(1, 2),))
    m = generalized_rigidity_matrix(g, frame)
    assert m.entries == ((1, 2, -1, -2),)
    with pytest.raises(ZeroDirection):
        generalized_rigidity_matrix(g, Frame(frame.positions, (pair(0, 0),)))


def test_pull_apart_refuses_a_zero_direction():
    sg = prism()
    tp = _certified_partition(sg)
    frame = frame_from_partition(sg, tp)
    zero = Frame(frame.positions, (pair(0, 0),) + frame.directions[1:])
    with pytest.raises(ZeroDirection):
        pull_apart_fully(sg, tp, zero)


def test_prism_pull_apart_separates_in_rounds():
    sg = prism()
    tp = _certified_partition(sg)
    frame = frame_from_partition(sg, tp)
    assert len(adjacent_coincidences(sg.graph, frame)) == 3
    separated, rounds = pull_apart_fully(sg, tp, frame)
    assert rounds >= 1
    assert adjacent_coincidences(sg.graph, separated) == ()
    assert separated.positions != frame.positions
    assert exact_rank(generalized_rigidity_matrix(sg.graph, separated)) == 9


def test_pull_apart_gives_up_when_every_parameter_loses_rank(monkeypatch):
    sg = prism()
    tp = _certified_partition(sg)
    frame = frame_from_partition(sg, tp)
    tried = []
    candidates = geometry._t_candidates

    def counted(limit):
        for p in candidates(limit):
            tried.append(p)
            yield p

    monkeypatch.setattr(geometry, "_t_candidates", counted)
    monkeypatch.setattr(geometry, "exact_rank", lambda matrix: matrix.rows - 1)
    with pytest.raises(ExhaustedT):
        pull_apart_fully(sg, tp, frame)
    # three corner classes and nine edges: 3 * (3 + 1) + 9 + 1 candidates
    assert len(tried) == 22
    assert tried[:5] == [2, 3, 5, 7, 11]
    assert tried[-1] == 79


def test_candidate_parameters_are_prime_reciprocals_made_lazily():
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    # t = 1/p, given as p
    assert list(geometry._t_candidates(len(primes))) == primes
    assert list(geometry._t_candidates(0)) == []
    endless = geometry._t_candidates(10**9)
    assert [next(endless) for _ in range(3)] == [2, 3, 5]


def test_framework_from_frame_requires_separation():
    sg = prism()
    tp = _certified_partition(sg)
    frame = frame_from_partition(sg, tp)
    with pytest.raises(CoincidentAdjacentJoints):
        framework_from_frame(sg, frame)


def test_frame_route_yields_symmetric_isostatic_framework():
    sg = prism()
    tp = _certified_partition(sg)
    frame, _ = pull_apart_fully(sg, tp, frame_from_partition(sg, tp))
    placement = framework_from_frame(sg, frame)
    pos = placement.positions
    assert all(pos[u] != pos[v] for u, v in sg.graph.edges)
    assert placement_is_symmetric(sg, placement)
    assert numeric_isostatic_check(sg, placement).isostatic


def test_scaling_rows_by_lambda_gives_rigidity_matrix():
    sg = prism()
    tp = _certified_partition(sg)
    frame, _ = pull_apart_fully(sg, tp, frame_from_partition(sg, tp))
    lams = frame_lambdas(sg.graph, frame)
    assert all(lams)
    rig = rigidity_matrix(sg.graph, Placement(frame.positions))
    gen = generalized_rigidity_matrix(sg.graph, frame)
    for i in range(sg.graph.m):
        assert tuple(lams[i] * x for x in gen.entries[i]) == rig.entries[i]


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
        frame, rounds = pull_apart_fully(sg, tp, frame_from_partition(sg, tp))
        positions = framework_from_frame(sg, frame).cartesian
        exact = [[x.as_json_dict(), y.as_json_dict()] for x, y in positions]
        digest.update(json.dumps({"rounds": rounds, "exact": exact}, sort_keys=True).encode())
    assert digest.hexdigest() == FRAME_PLACEMENT_DIGEST


def test_digest_graphs_rarely_fall_back_to_exact_elimination(monkeypatch):
    # A deficit mod P costs an exact elimination. The digest's graphs meet
    # ten, all on the frame route and none at generic seeds 0-2; a prime
    # that divided many of their minors would meet more.
    fallbacks = []
    fraction_free_rank = field._fraction_free_rank

    def counted(rows):
        fallbacks.append(True)
        return fraction_free_rank(rows)

    monkeypatch.setattr(field, "_fraction_free_rank", counted)
    for sg in _digest_graphs():
        tp = _certified_partition(sg)
        frame, _ = pull_apart_fully(sg, tp, frame_from_partition(sg, tp))
        numeric_isostatic_check(sg, framework_from_frame(sg, frame))
        for seed in range(3):
            numeric_isostatic_check(sg, symmetric_generic_positions(sg, seed))
    assert len(fallbacks) <= 10


def test_separation_skips_parameters_that_land_on_a_class(monkeypatch):
    # The digest's graphs reach the integer collision rule: some candidates
    # are skipped, with no rank taken, because a copy would land on a class.
    counts = dict.fromkeys(("rounds", "tried", "ranked", "landed"), 0)
    candidates, rank, on_a_class = (
        geometry._t_candidates, geometry.exact_rank, geometry._on_a_class
    )

    def counted_candidates(limit):
        for p in candidates(limit):
            counts["tried"] += 1
            yield p

    def counted_rank(matrix):
        counts["ranked"] += 1
        return rank(matrix)

    def counted_landing(*args):
        # ``any`` stops at the first hit, so this counts skipped candidates
        hit = on_a_class(*args)
        counts["landed"] += hit
        return hit

    monkeypatch.setattr(geometry, "_t_candidates", counted_candidates)
    monkeypatch.setattr(geometry, "exact_rank", counted_rank)
    monkeypatch.setattr(geometry, "_on_a_class", counted_landing)
    for sg in _digest_graphs():
        tp = _certified_partition(sg)
        counts["rounds"] += pull_apart_fully(sg, tp, frame_from_partition(sg, tp))[1]
    assert counts["ranked"] >= counts["rounds"] > 0
    assert counts["tried"] - counts["ranked"] >= counts["landed"] > 0


def test_integer_collision_rule_matches_the_rational_points():
    # A class point S / D moved by d at t = 1/p lands on an occupied class
    # point exactly when ``_on_a_class`` says so of p * S + D * d, before
    # and after each round of the prism's separation.
    sg = prism()
    tp = _certified_partition(sg)
    live = geometry._LiveFrame.read(sg, tp, frame_from_partition(sg, tp))
    steps = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b]
    hits = states = 0
    while True:
        d = live.scale
        occupied = {(Fraction(x, d), Fraction(y, d)) for x, y in live.points}
        for p in geometry._t_candidates(8):
            for x, y in live.points:
                for a, b in steps:
                    point = (Fraction(x, d) + Fraction(a, p), Fraction(y, d) + Fraction(b, p))
                    hit = geometry._on_a_class((p * x + d * a, p * y + d * b), p, set(live.points))
                    assert hit == (point in occupied)
                    hits += hit
        states += 1
        if not live.coincident:
            break
        geometry.pull_apart(sg, tp, live)
    assert states >= 2 and live.scale > 1
    assert hits > 0


def test_separation_refuses_a_direction_off_its_edge():
    # Hand-built frames on the triangle: a direction must be a nonzero
    # multiple of its edge's position difference where the ends are apart.
    sg = k3()
    tp = _certified_partition(sg)
    pos = (E_POINTS[1], E_POINTS[2], E_POINTS[0])
    along = tuple(v_scale(Fraction(-3, 2), v_sub(pos[u], pos[v])) for u, v in sg.graph.sorted_edges)
    assert pull_apart_fully(sg, tp, Frame(pos, along)) == (Frame(pos, along), 0)
    askew = (rotate_omega(along[0]),) + along[1:]
    with pytest.raises(InternalInvariantBroken):
        pull_apart_fully(sg, tp, Frame(pos, askew))


def test_separation_ignores_the_scale_of_a_direction():
    # Rescaling a parked direction rescales its row only: the rounds, the
    # positions and the turned directions stay the same.
    sg = prism()
    tp = _certified_partition(sg)
    frame = frame_from_partition(sg, tp)
    rescaled = Frame(frame.positions, tuple(v_scale(Fraction(-5, 3), q) for q in frame.directions))
    separated, rounds = pull_apart_fully(sg, tp, frame)
    again, again_rounds = pull_apart_fully(sg, tp, rescaled)
    assert (again.positions, again_rounds) == (separated.positions, rounds)
    turned = [i for i, q in enumerate(frame.directions) if separated.directions[i] != q]
    assert turned
    for i, (u, v) in enumerate(sg.graph.sorted_edges):
        if i in turned:
            assert again.directions[i] == separated.directions[i]
            assert separated.directions[i] == v_sub(separated.positions[u], separated.positions[v])
        else:
            assert again.directions[i] == rescaled.directions[i]


def test_frame_route_on_corpus():
    rng = random.Random(99)
    for n in (6, 9, 12):
        sg = random_tight_symgraph(rng, n)
        tp = _certified_partition(sg)
        frame = frame_from_partition(sg, tp)
        assert exact_rank(generalized_rigidity_matrix(sg.graph, frame)) == sg.graph.m
        frame, _ = pull_apart_fully(sg, tp, frame)
        placement = framework_from_frame(sg, frame)
        assert numeric_isostatic_check(sg, placement).isostatic
        assert placement_is_symmetric(sg, placement)


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
    half, sqrt3_half = q(Fraction(1, 2)), q(0, Fraction(1, 2))
    assert [from_omega(p) for p in E_POINTS] == [(q(0), q(0)), (q(1), q(0)), (half, sqrt3_half)]
    assert [from_omega(d) for d in TREE_DIRECTIONS] == [
        (-half, sqrt3_half), (-half, -sqrt3_half), (q(1), q(0))
    ]
    for p in E_POINTS + TREE_DIRECTIONS:
        rotated = tuple(map(_sympy, from_omega(rotate_omega(p))))
        assert _same_sympy_point(rotated, _sympy_rotate(from_omega(p)))
    rng = random.Random(3)
    for _ in range(50):
        a, b = [
            (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(2)
        ]
        rotated = tuple(map(_sympy, from_omega(rotate_omega(a))))
        assert _same_sympy_point(rotated, _sympy_rotate(from_omega(a)))
        assert rotate_omega(rotate_omega(rotate_omega(a))) == a
        # linear, so a placement may be recentred before or after converting
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert from_omega(v_add(a, v_scale(c, b))) == tuple(
            QSqrt3(x.a + c * y.a, x.b + c * y.b) for x, y in zip(from_omega(a), from_omega(b))
        )
    # integer pairs convert like the same Fractions
    assert from_omega((3, -5)) == from_omega(pair(3, -5)) == (q(Fraction(11, 2)), q(0, Fraction(-5, 2)))


def _cartesian_rank(g, frame):
    # exact rank over Q(sqrt 3) of the generalized rigidity matrix with
    # Cartesian directions, through the regular representation
    # a + b*sqrt(3) -> [[a, 3b], [b, a]], a rational matrix of twice that rank
    rows = []
    for (u, v), d in zip(g.sorted_edges, map(from_omega, frame.directions)):
        top, bottom = [0] * (4 * g.n), [0] * (4 * g.n)
        for col, x in ((2 * u, d[0]), (2 * u + 1, d[1]), (2 * v, -d[0]), (2 * v + 1, -d[1])):
            top[2 * col], top[2 * col + 1] = x.a, 3 * x.b
            bottom[2 * col], bottom[2 * col + 1] = x.b, x.a
        rows += [top, bottom]
    doubled = field._fraction_free_rank(ExactMatrix.from_rows(rows).integer_rows())
    assert doubled % 2 == 0
    return doubled // 2


def _pair_rank_mod_p(g, frame):
    # rank mod P of the rows of direction pairs
    inverses = {}
    rows = [
        geometry._row(u, v, geometry._pair_image(d, inverses))
        for (u, v), d in zip(g.sorted_edges, frame.directions)
    ]
    return field._eliminate(rows, {})


def test_rational_rows_rank_like_the_generalized_rigidity_matrix():
    rng = random.Random(8)
    steps = [(Fraction(a), Fraction(b)) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]
    deficient = 0
    for sg in acceptance_corpus():
        g = sg.graph
        if check_c3_isostatic(sg).isostatic:
            # full rank mod P on both sides proves both exact ranks full
            tp = _certified_partition(sg)
            parked = frame_from_partition(sg, tp)
            for frame in (parked, pull_apart_fully(sg, tp, parked)[0]):
                assert _pair_rank_mod_p(g, frame) == _cartesian_rank(g, frame) == g.m
        # directions drawn from few values, so many of these lose rank
        drawn = tuple(rng.choice(steps) for _ in range(g.m))
        frame = Frame(tuple(E_POINTS[0] for _ in range(g.n)), drawn)
        matrix = generalized_rigidity_matrix(g, frame)
        exact = field._fraction_free_rank(matrix.integer_rows())
        assert exact == _cartesian_rank(g, frame)
        assert _pair_rank_mod_p(g, frame) == field._modular_rank(matrix)
        deficient += exact < g.m
    assert deficient > 100


def test_separation_builds_no_exact_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact elimination reached")

    for sg in (prism(), random_tight_symgraph(7, 45)):
        tp = _certified_partition(sg)
        frame = frame_from_partition(sg, tp)
        with monkeypatch.context() as patched:
            patched.setattr(field, "_fraction_free_rank", refuse)
            patched.setattr(geometry, "ExactMatrix", refuse)
            patched.setattr(field, "ExactMatrix", refuse)
            separated, rounds = pull_apart_fully(sg, tp, frame)
        assert rounds >= 1
        assert adjacent_coincidences(sg.graph, separated) == ()
        assert exact_rank(generalized_rigidity_matrix(sg.graph, separated)) == sg.graph.m


def test_class_connected_in_both_trees_cannot_separate():
    # Three K4s rotated into each other; each K4 is two spanning trees of
    # the partition (trees 1 and 2 for the first), so each parks on one
    # corner as a class that no tree splits.
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
    tree_of = {e: i for i in range(3) for e in trees[i]}
    frame = Frame(
        tuple(E_POINTS[v // 4] for v in range(12)),
        tuple(TREE_DIRECTIONS[tree_of[e]] for e in sg.graph.sorted_edges),
    )
    assert len(adjacent_coincidences(sg.graph, frame)) == 18
    with pytest.raises(NoSeparableComponent):
        pull_apart_fully(sg, tp, frame)
