import random
from itertools import permutations

import pytest

from c3rig import (
    DELTA_EXTENSION,
    EDGE_SPLIT,
    VERTEX_ADDITION,
    brute_force_laman,
    count_fixed,
    laman_check,
)
from c3rig import certify
from c3rig.errors import (
    C3RigError,
    DegenerateMove,
    FixedAnchor,
    InvalidAnchor,
    MissingEdge,
)
from tests.corpus import grow, k13_hub, k3, k33, prism, random_move, random_tight_symgraph


def test_vertex_addition_on_k3():
    sg = grow(k3(), VERTEX_ADDITION, 0, 1)
    assert sg.graph.n == 6
    assert sg.graph.m == 9
    assert sg.action.gamma == (1, 2, 0, 4, 5, 3)
    assert sg.graph.edges >= {(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)}
    assert laman_check(sg.graph)
    assert brute_force_laman(sg.graph)


def test_vertex_addition_on_prism():
    sg = grow(prism(), VERTEX_ADDITION, 0, 3)
    assert (sg.graph.n, sg.graph.m) == (9, 15)
    assert laman_check(sg.graph)
    assert count_fixed(sg).j == 0


def test_vertex_addition_rejects_equal_anchors():
    with pytest.raises(InvalidAnchor):
        grow(k3(), VERTEX_ADDITION, 0, 0)


def test_edge_split_on_prism():
    sg = grow(prism(), EDGE_SPLIT, 0, 1, 3)
    assert (sg.graph.n, sg.graph.m) == (9, 15)
    assert laman_check(sg.graph)
    # the split orbit is gone, the new orbit carries the load
    assert not sg.graph.has_edge(0, 1)
    assert not sg.graph.has_edge(1, 2)
    assert not sg.graph.has_edge(0, 2)
    assert sg.graph.edges >= {(0, 6), (1, 6), (3, 6)}


def test_edge_split_of_k3_gives_bipartite_shape():
    sg = grow(k3(), EDGE_SPLIT, 0, 1, 2)
    assert sg == k33()


def test_edge_split_errors():
    with pytest.raises(MissingEdge):
        grow(prism(), EDGE_SPLIT, 0, 4, 1)
    with pytest.raises(InvalidAnchor):
        grow(prism(), EDGE_SPLIT, 0, 1, 0)
    # a fully fixed edge cannot be split symmetrically
    with pytest.raises(DegenerateMove):
        grow(
            __import__("c3rig").parse_graph(
                '{"vertices":5, "edges":[[0,1],[1,2],[2,0],[3,4]], "c3":[1,2,0,3,4]}'
            ),
            EDGE_SPLIT,
            3,
            4,
            0,
        )


def test_delta_extension_builds_prism():
    sg = grow(k3(), DELTA_EXTENSION, 0)
    assert sg.graph.edges == frozenset(
        {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)}
    )


def test_delta_extension_on_prism():
    sg = grow(prism(), DELTA_EXTENSION, 3)
    assert (sg.graph.n, sg.graph.m) == (9, 15)
    assert laman_check(sg.graph)


def test_delta_extension_rejects_fixed_anchor():
    with pytest.raises(FixedAnchor):
        grow(k13_hub(), DELTA_EXTENSION, 3)


def test_moves_add_one_orbit_and_six_edges():
    rng = random.Random(8)
    for _ in range(40):
        sg = random_tight_symgraph(rng, 3 * rng.randint(1, 5))
        bigger = random_move(rng, sg)
        assert bigger.graph.n == sg.graph.n + 3
        assert bigger.graph.m == sg.graph.m + 6
        n = sg.graph.n
        assert bigger.action.gamma[n:] == (n + 1, n + 2, n)
        assert laman_check(bigger.graph)
        assert count_fixed(bigger).j == 0


def _small_tight_graphs():
    rng = random.Random(15)
    return [k3(), prism(), k33()] + [random_tight_symgraph(rng, 9) for _ in range(2)]


def _moves_that_break_tightness(graphs):
    """Every row of the move table, with every anchor tuple it accepts, on
    each graph; the moves whose result fails the subset counts, checked
    literally. The replay runs no pebble game, so this is what guards the
    table."""
    broken = []
    for sg in graphs:
        seen = set()
        for kind, shape in certify.MOVE_TABLE.items():
            for anchors in permutations(range(sg.graph.n), shape.arity):
                try:
                    bigger = grow(sg, kind, *anchors)
                except C3RigError:
                    continue
                if bigger.graph.edges in seen:
                    continue
                seen.add(bigger.graph.edges)
                if not brute_force_laman(bigger.graph):
                    broken.append((sg, kind, anchors))
    return broken


def test_every_move_table_row_keeps_tightness():
    assert _moves_that_break_tightness(_small_tight_graphs()) == []


@pytest.mark.parametrize(
    "kind, row",
    [
        # the counts still add up, but when the first anchor's orbit is a
        # triangle holding the third anchor (as on the prism), that
        # triangle, the new one and the six spokes between them put
        # 12 > 2 * 6 - 3 edges on six vertices
        (
            EDGE_SPLIT,
            certify.MoveShape(
                3,
                lambda a, v: ((a[0], (0,)), (a[2], (0,)), (v + 1, (0,))),
                splits_edge=True,
            ),
        ),
        # one spoke orbit too few: the count is short
        (VERTEX_ADDITION, certify.MoveShape(2, lambda a, v: ((a[0], (0,)),))),
    ],
    ids=["rejected_insert", "short_count"],
)
def test_a_patched_move_table_row_fails_the_table_check(monkeypatch, kind, row):
    graphs = _small_tight_graphs()
    monkeypatch.setitem(certify.MOVE_TABLE, kind, row)
    broken = _moves_that_break_tightness(graphs)
    assert broken and {k for _, k, _ in broken} == {kind}
