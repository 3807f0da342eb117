import itertools
import json
import random

import pytest

from c3rig import (
    C3Action,
    Graph,
    SymGraph,
    count_fixed,
    parse_graph,
    relabel_symgraph,
    serialize_graph,
)
from c3rig.errors import (
    LoopOrDuplicateEdge,
    MissingAction,
    NotAPermutation,
    NotAnAutomorphism,
    NotOrderThree,
    SchemaError,
)
from tests.corpus import k13_hub, prism, random_tight_symgraph

K3_DOC = '{"vertices":3, "edges":[[0,1],[1,2],[2,0]], "c3":[1,2,0]}'


def test_parse_k3():
    sg = parse_graph(K3_DOC)
    assert sg.graph.n == 3
    assert sg.graph.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    assert sg.action.gamma == (1, 2, 0)


def test_parse_prism():
    sg = prism()
    assert sg.graph.n == 6
    assert sg.graph.m == 9
    assert sg.action.gamma == (1, 2, 0, 4, 5, 3)


def test_parse_rejects_transposition():
    with pytest.raises(NotOrderThree):
        parse_graph('{"vertices":3, "edges":[[0,1],[1,2],[2,0]], "c3":[1,0,2]}')


def test_parse_rejects_identity():
    with pytest.raises(NotOrderThree):
        parse_graph('{"vertices":3, "edges":[[0,1],[1,2],[2,0]], "c3":[0,1,2]}')


@pytest.mark.parametrize(
    "gamma", [p for n in range(3) for p in itertools.permutations(range(n))]
)
def test_no_rotation_acts_on_fewer_than_three_points(gamma):
    # so everything past ``require_action`` may take n >= 3
    with pytest.raises(NotOrderThree):
        C3Action(gamma)


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all",
        '{"vertices": 3}',
        '{"edges": []}',
        '{"vertices": 3, "edges": [], "extra": 1}',
        '{"vertices": -1, "edges": []}',
        '{"vertices": true, "edges": []}',
        '{"vertices": 3, "edges": [[0]]}',
        '{"vertices": 3, "edges": [[0, 3]]}',
        '{"vertices": 3, "edges": [[0, "1"]]}',
        '{"vertices": 3, "edges": {}}',
        b"\xff{}",  # not UTF-8, nor any encoding json detects
        b"\xff\xfe{}",
        pytest.param("[" * 100000, id="nested"),  # deeper than the decoder's stack
        pytest.param(b"[" * 100000, id="nested-bytes"),
    ],
)
def test_parse_schema_errors(doc):
    with pytest.raises(SchemaError):
        parse_graph(doc)


def test_parse_rejects_loops_and_duplicates():
    with pytest.raises(LoopOrDuplicateEdge):
        parse_graph('{"vertices": 3, "edges": [[1, 1]]}')
    with pytest.raises(LoopOrDuplicateEdge):
        parse_graph('{"vertices": 3, "edges": [[0, 1], [1, 0]]}')


def test_parse_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        parse_graph('{"vertices":3, "edges":[[0,1]], "c3":[1,1,0]}')
    with pytest.raises(NotAPermutation):
        parse_graph('{"vertices":3, "edges":[[0,1]], "c3":[1,2]}')


def test_parse_rejects_non_automorphism_with_witness():
    # path 0-1-2 is not invariant under the rotation
    with pytest.raises(NotAnAutomorphism) as info:
        parse_graph('{"vertices":3, "edges":[[0,1],[1,2]], "c3":[1,2,0]}')
    assert info.value.witness_edge in {(0, 1), (1, 2)}


def test_small_graphs_parse_without_action():
    sg = parse_graph('{"vertices": 2, "edges": [[0, 1]]}')
    assert sg.action is None
    with pytest.raises(MissingAction):
        count_fixed(sg)


def test_count_fixed():
    assert count_fixed(prism()) == (0, 0) or count_fixed(prism()).j == 0
    assert (count_fixed(prism()).j, count_fixed(prism()).b) == (0, 0)
    hub = k13_hub()
    assert (count_fixed(hub).j, count_fixed(hub).b) == (1, 0)
    k3 = parse_graph(K3_DOC)
    assert (count_fixed(k3).j, count_fixed(k3).b) == (0, 0)


def test_fixed_edge_needs_both_endpoints_fixed():
    # triangle orbit plus an entirely fixed edge {3, 4}
    sg = parse_graph(
        '{"vertices":5, "edges":[[0,1],[1,2],[2,0],[3,4]], "c3":[1,2,0,3,4]}'
    )
    counts = count_fixed(sg)
    assert counts.j == 2
    assert counts.b == 1


def test_fixed_edges_are_counted_among_the_fixed_vertices():
    # a triangle orbit, three fixed vertices with two edges among them, and
    # the orbit joined to one of them
    sg = parse_graph(
        '{"vertices":6, "edges":[[0,1],[1,2],[0,2],[3,4],[4,5],[0,3],[1,3],[2,3]],'
        ' "c3":[1,2,0,3,4,5]}'
    )
    fixed = sg.action.fixed_vertices()
    assert fixed == (3, 4, 5)
    assert (count_fixed(sg).j, count_fixed(sg).b) == (3, 2)
    # found once and kept on the action
    assert sg.action.fixed_vertices() is fixed


@pytest.mark.parametrize(
    "entries, message",
    [
        ("[[0, 1], [0], [0, 9]]", "edge entry [0] is not a pair of integers"),
        ('[[0, 1], "01"]', "edge entry '01' is not a pair of integers"),
        ("[[0, 1, 2]]", "edge entry [0, 1, 2] is not a pair of integers"),
        ('[[0, "1"], [true, 1]]', "edge entry [0, '1'] is not a pair of integers"),
        ("[[true, 1]]", "edge entry [True, 1] is not a pair of integers"),
        ("[[0, 1.0]]", "edge entry [0, 1.0] is not a pair of integers"),
        ("[[0, 3], [0]]", "edge [0, 3] out of range for n=3"),
        ("[[-1, 2]]", "edge [-1, 2] out of range for n=3"),
    ],
)
def test_parse_names_the_first_bad_edge_entry(entries, message):
    with pytest.raises(SchemaError) as info:
        parse_graph(f'{{"vertices": 3, "edges": {entries}}}')
    assert str(info.value) == message


def test_graph_tells_an_unsorted_pair_from_one_out_of_range():
    with pytest.raises(SchemaError) as info:
        Graph(3, frozenset({(1, 0)}))
    assert str(info.value) == "edge (1, 0) is not sorted: store it as (0, 1)"
    for u, v in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(SchemaError) as info:
            Graph(3, frozenset({(u, v)}))
        assert str(info.value) == f"edge ({u}, {v}) out of range for n=3"


def test_action_refuses_a_bool_as_a_vertex():
    # as parse_graph refuses one in 'c3', though True == 1
    with pytest.raises(NotAPermutation):
        C3Action((True, 2, 0))
    with pytest.raises(SchemaError):
        parse_graph('{"vertices":3, "edges":[], "c3":[true,2,0]}')


def test_orbit_examples():
    act = prism().action
    assert act.orbit(0) == (0, 1, 2)
    assert act.orbit(4) == (4, 5, 3)
    hub = k13_hub().action
    assert hub.orbit(3) == (3, 3, 3)


def test_orbit_cycles():
    act = prism().action
    for v in range(6):
        a, b, c = act.orbit(v)
        assert act.orbit(b) == (b, c, a)
        assert act.orbit(c) == (c, a, b)


def test_serialize_round_trip():
    rng = random.Random(404)
    for seed in range(20):
        sg = random_tight_symgraph(rng, 3 * rng.randint(1, 5))
        doc = serialize_graph(sg)
        assert parse_graph(json.dumps(doc)) == sg
    plain = parse_graph('{"vertices": 4, "edges": [[0, 1], [2, 3]]}')
    assert parse_graph(json.dumps(serialize_graph(plain))) == plain


def test_orbit_counts_divisible_by_three_when_nothing_fixed():
    rng = random.Random(11)
    for _ in range(15):
        sg = random_tight_symgraph(rng, 3 * rng.randint(2, 6))
        assert count_fixed(sg).j == 0
        assert sg.graph.n % 3 == 0
        assert sg.graph.m % 3 == 0


def test_parser_only_raises_package_errors():
    # junk documents must fail with a validation error, never a stray
    # TypeError or KeyError
    import string

    from c3rig.errors import C3RigError

    rng = random.Random(8675309)

    def junk(depth=0):
        choice = rng.randrange(8 if depth < 2 else 6)
        if choice == 0:
            return rng.randint(-10, 15)
        if choice == 1:
            return rng.choice([True, False, None])
        if choice == 2:
            return "".join(rng.choices(string.printable[:60], k=rng.randint(0, 6)))
        if choice == 3:
            return rng.random()
        if choice == 4:
            return [rng.randint(-2, 8) for _ in range(rng.randint(0, 3))]
        if choice == 5:
            return [
                [rng.randint(-2, 8) for _ in range(rng.randint(0, 3))]
                for _ in range(rng.randint(0, 5))
            ]
        if choice == 6:
            return {key(): junk(depth + 1) for _ in range(rng.randint(0, 3))}
        return [junk(depth + 1) for _ in range(rng.randint(0, 3))]

    def key():
        return rng.choice(["vertices", "edges", "c3", "x", "", "Edges"])

    for _ in range(3000):
        doc = {key(): junk() for _ in range(rng.randint(0, 4))}
        try:
            parse_graph(json.dumps(doc))
        except C3RigError:
            pass


def test_relabel_symgraph_conjugates_action():
    sg = prism()
    perm = (3, 4, 5, 0, 1, 2)
    moved = relabel_symgraph(sg, perm)
    assert moved.graph.m == sg.graph.m
    for u, v in sg.graph.edges:
        assert moved.graph.has_edge(perm[u], perm[v])
    for x in range(6):
        assert moved.action.gamma[perm[x]] == perm[sg.action.gamma[x]]
    assert relabel_symgraph(moved, perm) == sg


@pytest.mark.parametrize(
    "perm", [(0, 1, 1), (0, 1), (0, 1, 2, 3)], ids=["repeated", "short", "long"]
)
def test_relabel_symgraph_rejects_a_perm_that_is_not_a_permutation(perm):
    # a repeated image would merge vertices and drop an edge; a short perm
    # would fail on a bare index
    sg = SymGraph(Graph(3, frozenset({(0, 1), (0, 2)})))
    with pytest.raises(NotAPermutation):
        relabel_symgraph(sg, perm)
