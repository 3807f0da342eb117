import copy
import hashlib
import itertools
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
from c3rig import cli, field, geometry
from c3rig.field import _P
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
    cross,
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
    rational_matrix,
)


def pair(a, b):
    return (Fraction(a), Fraction(b))


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _cartesian(p):
    # the point a*1 + b*w at x = a - b/2 and y = (b/2)*sqrt(3), each as
    # (rational part, coefficient of sqrt(3))
    a, b = map(Fraction, p)
    return (a - b / 2, Fraction(0)), (Fraction(0), b / 2)


def _report_point(p):
    # the report's exact point of a pair, as x and y / sqrt(3)
    xn, xd, yn, yd = geometry._cartesian_terms(p)
    return Fraction(xn, xd), Fraction(yn, yd)


def _frame_lambdas(g, frame):
    # each edge's scalar lam with position difference = lam * direction
    lams = []
    for (u, v), q in zip(g.sorted_edges, frame.directions):
        delta = v_sub(frame.positions[u], frame.positions[v])
        assert q != (0, 0) and cross(delta, q) == 0
        lams.append(delta[0] / q[0] if q[0] else delta[1] / q[1])
    return lams


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
    assert (m.rows, m.cols) == (1, 4)
    assert m.integer_rows() == [{0: -1, 1: -2, 2: 1, 3: 2}]


def test_rigidity_rows_sum_to_zero():
    sg = prism()
    placement = symmetric_generic_positions(sg, 5)
    m = rigidity_matrix(sg.graph, placement)
    for row in m.integer_rows():
        assert len(row) <= 4
        assert sum(x for c, x in row.items() if c % 2 == 0) == 0
        assert sum(x for c, x in row.items() if c % 2 == 1) == 0


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
    # each check builds the one rigidity matrix it ranks, and builds it
    # once; the octahedron's 12 rows reach only rank 9: the 2n - 3 ceiling
    # is what proves that rank mod P
    cases = [(prism(), 9, 9), (random_tight_symgraph(7, 60), 117, 117), (octahedron(), 12, 9)]
    placements = [symmetric_generic_positions(sg, 0) for sg, _, _ in cases]
    builds = []
    build = geometry.rigidity_matrix

    def counted(*args):
        builds.append(True)
        return build(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("exact rows or exact elimination reached")

    monkeypatch.setattr(geometry, "rigidity_matrix", counted)
    monkeypatch.setattr(geometry, "_exact_rows", refuse)
    monkeypatch.setattr(field, "_fraction_free_rank", refuse)
    for (sg, m, rank), placement in zip(cases, placements):
        builds.clear()
        verdict = numeric_isostatic_check(sg, placement)
        assert (verdict.edge_count, verdict.rank, verdict.flex_dim) == (m, rank, 0)
        assert len(builds) == 1


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
    cart = [_sympy_point(p) for p in placement.positions]
    rotates = all(
        _same_sympy_point(cart[sg.action.gamma[v]], _sympy_rotate(cart[v]))
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
    rotated = _sympy_point(rotate_omega(p))
    assert _same_sympy_point(rotated, _sympy_rotate(_sympy_point(p)))
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
    _frame_lambdas(sg.graph, frame)  # the defining scalar exists per edge
    for corner in E_POINTS:
        assert sum(1 for p in frame.positions if p == corner) == 2
    assert exact_rank(generalized_rigidity_matrix(sg.graph, frame)) == 9


def test_generalized_matrix_single_edge():
    g = Graph(2, frozenset({(0, 1)}))
    frame = Frame((pair(0, 0), pair(0, 0)), (pair(1, 2),))
    m = generalized_rigidity_matrix(g, frame)
    assert m.integer_rows() == [{0: 1, 1: 2, 2: -1, 3: -2}]
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
    # every round loses rank in the offline pass, at every t
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


def test_candidate_parameters_are_found_once():
    # The primes are kept across calls: asking again for as many as are
    # known gives them back and finds no new one.
    list(geometry._t_candidates(30))
    known = list(geometry._PRIMES)
    assert len(known) >= 30
    assert list(geometry._t_candidates(len(known))) == known
    assert geometry._PRIMES == known


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
    lams = _frame_lambdas(sg.graph, frame)
    assert all(lams)
    # each row is built up to a positive scale, so the rows agree up to
    # the sign of their edge's scalar
    rig = rigidity_matrix(sg.graph, Placement(frame.positions)).integer_rows()
    gen = generalized_rigidity_matrix(sg.graph, frame).integer_rows()
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
        frame, rounds = pull_apart_fully(sg, tp, frame_from_partition(sg, tp))
        placement = framework_from_frame(sg, frame)
        exact = [[e["x"], e["y"]] for e in cli._placement_json(placement)["exact"]]
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


def _ranked_rounds(sg, tp, frame):
    # the separation ranked round by round, with no speculation and no
    # offline pass: each round takes, on a copy of the live state, the first
    # collision-free t past k skipped ones whose rows keep full rank
    g = sg.graph
    live = geometry._LiveFrame.read(sg, tp, frame)
    rounds = 0
    while live.coincident:
        rounds += 1
        assert rounds <= g.n
        for k in itertools.count():
            trial = copy.deepcopy(live)
            geometry.pull_apart(sg, tp, trial, k)
            if geometry.exact_rank(geometry._pair_matrix(g, trial.dirs)) == g.m:
                break
        live = trial
    return live.frame(g, frame), rounds


def test_speculative_separation_matches_ranking_every_round(monkeypatch):
    # Where the offline pass finds a round short of full rank, the
    # separation takes that round back and speculates again from its next
    # collision-free t; the digest's graphs do so at n = 12, 15 and 120.
    # Every graph ends as the ranked loop ends.
    restarted = []
    pull_apart = geometry.pull_apart

    def counted(sg, tp, live, skip=0):
        if skip:
            restarted.append(sg.graph.n)
        return pull_apart(sg, tp, live, skip)

    for sg in _digest_graphs():
        tp = _certified_partition(sg)
        frame = frame_from_partition(sg, tp)
        with monkeypatch.context() as patched:
            patched.setattr(geometry, "pull_apart", counted)
            speculated = pull_apart_fully(sg, tp, frame)
        assert speculated == _ranked_rounds(sg, tp, frame)
    assert {12, 15, 120} <= set(restarted)


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
        rounds = [[dict(row) for row, a, b in versions if a <= j <= b] for j in range(lo, hi + 1)]
        ranks = [field._eliminate(rows, {}) for rows in rounds]
        walked = [(j, len(pivots)) for j, pivots in field._round_pivots(versions, lo, hi)]
        assert walked == list(enumerate(ranks, lo))
        short = [j for j, rows, r in zip(range(lo, hi + 1), rounds, ranks) if r < len(rows)]
        outcomes["none" if not short else "first" if short[0] == lo else "later"] += 1
    assert min(outcomes.values()) >= 40


def _rows_key(matrix):
    return sorted(sorted(row.items()) for row in matrix.integer_rows())


def test_a_failed_speculative_round_waits_for_the_rounds_before_it(monkeypatch):
    # A speculative round may fail only because an earlier round lost rank
    # and left a wrong state. With round 2 short of full rank at its first
    # t and a failure at the fourth speculative round, rounds 1-3 are ranked
    # first, and speculation goes on from round 2 at its next t, ending as
    # the ranked loop ends with the same deficit.
    sg = fast_tight_symgraph(0, 45)
    tp = _certified_partition(sg)
    frame = frame_from_partition(sg, tp)
    unplanted = _ranked_rounds(sg, tp, frame)
    live = geometry._LiveFrame.read(sg, tp, frame)
    geometry.pull_apart(sg, tp, live)
    geometry.pull_apart(sg, tp, live)
    planted = _rows_key(geometry._pair_matrix(sg.graph, live.dirs))
    rank, offline, plan, pull_apart = (
        geometry.exact_rank, geometry._round_pivots, geometry._plan, geometry.pull_apart
    )
    asked, planned, restarted = [], [], []

    def planted_rank(matrix):
        return matrix.rows - 1 if _rows_key(matrix) == planted else rank(matrix)

    def counted_offline(versions, lo, hi):
        asked.append((lo, hi))
        return offline(versions, lo, hi)

    def failing_plan(*args):
        planned.append(True)
        if len(planned) == 4:
            raise InternalInvariantBroken("planted")
        return plan(*args)

    def counted(sg, tp, live, skip=0):
        if skip:
            restarted.append(len(live.members))
        return pull_apart(sg, tp, live, skip)

    monkeypatch.setattr(geometry, "exact_rank", planted_rank)
    expected = _ranked_rounds(sg, tp, frame)
    assert expected != unplanted and expected[1] > 4
    monkeypatch.setattr(geometry, "_round_pivots", counted_offline)
    monkeypatch.setattr(geometry, "_plan", failing_plan)
    monkeypatch.setattr(geometry, "pull_apart", counted)
    assert pull_apart_fully(sg, tp, frame) == expected
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
    frame = frame_from_partition(sg, tp)
    live = geometry._LiveFrame.read(sg, tp, frame)
    geometry.pull_apart(sg, tp, live)
    planted = []
    for k in range(2):
        trial = copy.deepcopy(live)
        geometry.pull_apart(sg, tp, trial, k)
        planted.append(_rows_key(geometry._pair_matrix(g, trial.dirs)))
    rank, pull_apart = geometry.exact_rank, geometry.pull_apart
    calls, skipped = [], []

    def planted_rank(matrix):
        return matrix.rows - 1 if _rows_key(matrix) in planted else rank(matrix)

    def counted(sg, tp, live, skip=0):
        calls.append(skip)
        assert len(calls) <= 4 * g.n, "the skip did not advance"
        if skip:
            skipped.append((len(live.members), skip))
        return pull_apart(sg, tp, live, skip)

    monkeypatch.setattr(geometry, "exact_rank", planted_rank)
    expected = _ranked_rounds(sg, tp, frame)
    monkeypatch.setattr(geometry, "pull_apart", counted)
    assert pull_apart_fully(sg, tp, frame) == expected
    # three classes at the start and three more per round: round 2, twice
    assert skipped == [(6, 1), (6, 2)]


def test_a_failed_speculative_round_raises_as_the_ranked_round(monkeypatch):
    # With the rounds before it at full rank, a failing speculative round
    # raises the error the ranked loop raises: here a planted one in the
    # fourth round.
    sg = fast_tight_symgraph(0, 45)
    tp = _certified_partition(sg)
    frame = frame_from_partition(sg, tp)
    offline, plan = geometry._round_pivots, geometry._plan
    asked = []

    def counted_offline(versions, lo, hi):
        asked.append((lo, hi))
        return offline(versions, lo, hi)

    def failing_plan(sg, tp, live):
        if len(live.members) == 12:
            raise NoSeparableComponent("planted in round 4")
        return plan(sg, tp, live)

    monkeypatch.setattr(geometry, "_round_pivots", counted_offline)
    monkeypatch.setattr(geometry, "_plan", failing_plan)
    with pytest.raises(NoSeparableComponent, match="planted in round 4"):
        _ranked_rounds(sg, tp, frame)
    with pytest.raises(NoSeparableComponent, match="planted in round 4"):
        pull_apart_fully(sg, tp, frame)
    assert asked == [(1, 3)]


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
    h = Fraction(1, 2)
    assert [_report_point(p) for p in E_POINTS] == [(0, 0), (1, 0), (h, h)]
    assert [_report_point(d) for d in TREE_DIRECTIONS] == [(-h, h), (-h, -h), (1, 0)]
    for p in E_POINTS + TREE_DIRECTIONS:
        rotated = _sympy_point(rotate_omega(p))
        assert _same_sympy_point(rotated, _sympy_rotate(_sympy_point(p)))
    rng = random.Random(3)
    for _ in range(50):
        a, b = [
            (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(2)
        ]
        rotated = _sympy_point(rotate_omega(a))
        assert _same_sympy_point(rotated, _sympy_rotate(_sympy_point(a)))
        assert rotate_omega(rotate_omega(rotate_omega(a))) == a
        # linear, so a placement may be recentred before or after converting
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert _report_point(v_add(a, v_scale(c, b))) == tuple(
            x + c * y for x, y in zip(_report_point(a), _report_point(b))
        )
        assert _report_point(a) == (a[0] - a[1] / 2, a[1] / 2)
    # integer pairs convert like the same Fractions
    assert _report_point((3, -5)) == _report_point(pair(3, -5)) == (Fraction(11, 2), Fraction(-5, 2))


def _cartesian_rank(g, frame):
    # exact rank over Q(sqrt 3) of the generalized rigidity matrix with
    # Cartesian directions, through the regular representation
    # a + b*sqrt(3) -> [[a, 3b], [b, a]], a rational matrix of twice that rank
    rows = []
    for (u, v), d in zip(g.sorted_edges, map(_cartesian, frame.directions)):
        top, bottom = [0] * (4 * g.n), [0] * (4 * g.n)
        for k, (xa, xb) in enumerate(d):
            for col, a, b in ((2 * u + k, xa, xb), (2 * v + k, -xa, -xb)):
                top[2 * col], top[2 * col + 1] = a, 3 * b
                bottom[2 * col], bottom[2 * col + 1] = b, a
        rows += [top, bottom]
    doubled = field._fraction_free_rank(rational_matrix(rows).integer_rows())
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
        assert _pair_rank_mod_p(g, frame) == matrix.modular_rank()
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
            patched.setattr(geometry, "_exact_rows", refuse)
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
