import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from c3rig import (
    Frame,
    Graph,
    QSqrt3,
    SymGraph,
    adjacent_coincidences,
    build_tree_partition,
    exact_rank,
    extract_sequence,
    frame_from_partition,
    frame_lambdas,
    framework_from_frame,
    generalized_rigidity_matrix,
    numeric_isostatic_check,
    placement_is_symmetric,
    pull_apart,
    pull_apart_fully,
    relabel_partition,
    rigidity_matrix,
    symmetric_generic_positions,
)
from c3rig import geometry
from c3rig.errors import (
    CoincidentAdjacentJoints,
    DegenerateSpan,
    ExhaustedRetries,
    ExhaustedT,
    FixedVertexPresent,
    ZeroDirection,
)
from c3rig.geometry import E_POINTS, Placement, rotate
from tests.corpus import k13_hub, k3, perturb_edge_swap, prism, random_tight_symgraph


def q(a, b=0):
    return QSqrt3(Fraction(a), Fraction(b))


def test_symmetric_positions_satisfy_rotation_equation():
    sg = prism()
    placement = symmetric_generic_positions(sg, 7)
    assert placement.framework
    assert placement_is_symmetric(sg, placement)


def test_symmetric_positions_deterministic():
    sg = prism()
    assert symmetric_generic_positions(sg, 3) == symmetric_generic_positions(sg, 3)
    assert symmetric_generic_positions(sg, 3) != symmetric_generic_positions(sg, 4)


def test_k3_orbit_is_forced():
    placement = symmetric_generic_positions(k3(), 1)
    p0, p1, p2 = placement.positions
    assert p1 == rotate(p0)
    assert p2 == rotate(p1)


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
    placement = Placement(((q(0), q(0)), (q(1), q(0))))
    m = rigidity_matrix(g, placement)
    assert m.entries == ((q(-1), q(0), q(1), q(0)),)


def test_rigidity_rows_sum_to_zero():
    sg = prism()
    placement = symmetric_generic_positions(sg, 5)
    m = rigidity_matrix(sg.graph, placement)
    for row in m.entries:
        nonzero = [x for x in row if not x.is_zero]
        assert len(nonzero) <= 4
        assert sum(row[2 * v] for v in range(6)) == q(0)
        assert sum(row[2 * v + 1] for v in range(6)) == q(0)


def test_k3_at_reference_triangle_has_rank_three():
    g = k3().graph
    placement = Placement((E_POINTS[0], E_POINTS[1], E_POINTS[2]))
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
    line = Placement(((q(0), q(0)), (q(1), q(0)), (q(2), q(0))))
    with pytest.raises(DegenerateSpan):
        numeric_isostatic_check(g, line)


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
    assert pull_apart(sg, _certified_partition(sg), frame) == frame


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
    frame = Frame(((q(0), q(0)), (q(0), q(0))), ((q(1), q(0)),))
    m = generalized_rigidity_matrix(g, frame)
    assert m.entries == ((q(1), q(0), q(-1), q(0)),)
    with pytest.raises(ZeroDirection):
        generalized_rigidity_matrix(
            g, Frame(frame.positions, ((q(0), q(0)),))
        )


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
    monkeypatch.setattr(geometry, "exact_rank", lambda matrix: matrix.rows - 1)
    with pytest.raises(ExhaustedT):
        pull_apart(sg, tp, frame)


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
    assert placement.framework
    assert placement_is_symmetric(sg, placement)
    assert numeric_isostatic_check(sg, placement).isostatic


def test_scaling_rows_by_lambda_gives_rigidity_matrix():
    sg = prism()
    tp = _certified_partition(sg)
    frame, _ = pull_apart_fully(sg, tp, frame_from_partition(sg, tp))
    lams = frame_lambdas(sg.graph, frame)
    assert all(not lam.is_zero for lam in lams)
    placement = Placement(frame.positions)
    rig = rigidity_matrix(sg.graph, placement)
    gen = generalized_rigidity_matrix(sg.graph, frame)
    for i in range(sg.graph.m):
        assert tuple(lams[i] * x for x in gen.entries[i]) == rig.entries[i]


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
