import hashlib
import heapq
import json
import random

import pytest

from c3rig import (
    DELTA_EXTENSION,
    EDGE_SPLIT,
    VERTEX_ADDITION,
    C3Action,
    ConstructionSequence,
    Graph,
    Move,
    SymGraph,
    build_tree_partition,
    canonical_base,
    check_c3_isostatic,
    count_fixed,
    extract_sequence,
    laman_check,
    parse_graph,
    relabel_symgraph,
    replay_sequence,
)
from c3rig import certify, trees
from c3rig.errors import (
    IntermediateNotTight,
    InternalInvariantBroken,
    InvalidAnchor,
    MissingAction,
    MissingEdge,
    NotIsostatic,
)
from c3rig.graphs import edge_orbit
from tests.corpus import (
    acceptance_corpus,
    fast_tight_symgraph,
    grow,
    k13_hub,
    k3,
    k33,
    octahedron,
    perturb_edge_swap,
    prism,
    random_tight_symgraph,
)


def test_check_k3():
    verdict = check_c3_isostatic(k3())
    assert verdict.isostatic
    assert verdict.reasons == ()


def test_check_prism():
    assert check_c3_isostatic(prism()).isostatic


def test_check_fixed_hub():
    verdict = check_c3_isostatic(k13_hub())
    assert not verdict.isostatic
    assert "fixed_vertex" in verdict.reasons
    assert verdict.witness == 3


def test_check_hexagon_with_hub():
    # hexagon plus a hub tied to alternating corners; the hub is fixed
    sg = parse_graph(
        {
            "vertices": 7,
            "edges": [[i, (i + 1) % 6] for i in range(6)] + [[6, 0], [6, 2], [6, 4]],
            "c3": [2, 3, 4, 5, 0, 1, 6],
        }
    )
    verdict = check_c3_isostatic(sg)
    assert not verdict.isostatic
    assert "fixed_vertex" in verdict.reasons


def test_check_octahedron_overcount():
    verdict = check_c3_isostatic(octahedron())
    assert not verdict.isostatic
    assert "count" in verdict.reasons


def test_check_requires_action():
    with pytest.raises(MissingAction):
        check_c3_isostatic(parse_graph('{"vertices":3, "edges":[[0,1],[1,2],[2,0]]}'))


def test_reduce_prism_to_triangle():
    seq = extract_sequence(prism())
    assert seq.moves == (Move(DELTA_EXTENSION, (0,), (3, 4, 5)),)
    assert relabel_symgraph(replay_sequence(seq), seq.relabeling) == prism()


def test_reduce_vertex_addition_shape():
    sg = grow(k3(), VERTEX_ADDITION, 0, 1)
    seq = extract_sequence(sg)
    assert seq.moves == (Move(VERTEX_ADDITION, (0, 1), (3, 4, 5)),)
    assert relabel_symgraph(replay_sequence(seq), seq.relabeling) == sg


def test_reduce_k33_via_edge_split():
    seq = extract_sequence(k33())
    (move,) = seq.moves
    assert move.kind == EDGE_SPLIT
    assert move.new_vertices == (3, 4, 5)


def test_extract_rejects_non_isostatic_graphs():
    with pytest.raises(NotIsostatic) as over:
        extract_sequence(octahedron())
    assert over.value.verdict == check_c3_isostatic(octahedron())
    assert "count" in over.value.verdict.reasons
    with pytest.raises(NotIsostatic) as hub:
        extract_sequence(k13_hub())
    assert hub.value.verdict.reasons == ("count", "fixed_vertex")
    assert hub.value.verdict.witness == 3


def _drop_edge_orbit(act, adj, alive, game, low, result):
    # the smallest edge's orbit leaves the live reduced graph, not the game;
    # its ends are indexed under their new valences, as the reduction does
    u = next(x for x in range(len(adj)) if adj[x])
    for x, y in edge_orbit((u, min(adj[u])), act.gamma):
        adj[x].discard(y)
        adj[y].discard(x)
        for z in (x, y):
            if len(adj[z]) in low:
                heapq.heappush(low[len(adj[z])], z)
    return result


def _swap_last_anchor(act, adj, alive, game, low, result):
    # the last anchor is never part of a split edge, and the reduced graph
    # fixes no vertex, so the swapped move still applies
    kind, anchors, orbit = result
    other = next(x for x, on in enumerate(alive) if on and x not in anchors)
    return kind, anchors[:-1] + (other,), orbit


@pytest.mark.parametrize("corrupt", [_drop_edge_orbit, _swap_last_anchor])
@pytest.mark.parametrize("n", [9, 15])
def test_corrupted_reduction_yields_no_certificate(monkeypatch, corrupt, n):
    # no reduced graph is checked on its own; the round trip must catch a
    # wrong first step, whether the wrong graph or the wrong move
    sg = random_tight_symgraph(0, n)
    extract_sequence(sg)
    original = certify._reduce_step
    steps = []

    def step(*live):
        steps.append(live)
        result = original(*live)
        return corrupt(*live, result) if len(steps) == 1 else result

    monkeypatch.setattr(certify, "_reduce_step", step)
    with pytest.raises(InternalInvariantBroken):
        extract_sequence(sg)


# Each tamper below turns the walk's replay into a valid symmetric graph that
# fails one of the round trip's comparisons with the input.


def _tamper_the_walk(monkeypatch, tamper):
    # The extraction compares the walk's rotation and edges with the input,
    # with no graph built: make them those of tamper(replayed graph).
    walk = ConstructionSequence._walked.func

    def walked(seq):
        gamma, edges, trees = walk(seq)
        replayed = tamper(SymGraph(Graph(len(gamma), edges), C3Action(gamma)))
        return replayed.action.gamma, replayed.graph.edges, trees

    monkeypatch.setattr(ConstructionSequence, "_walked", property(walked))


def _add_a_vertex_orbit(sg):
    n = sg.graph.n
    return SymGraph(Graph(n + 3, sg.graph.edges), C3Action(sg.action.gamma + (n + 1, n + 2, n)))


def _reverse_the_rotation(sg):
    # the edge set is invariant under gamma^2 too
    return SymGraph(sg.graph, C3Action(sg.action.gamma2))


def _drop_an_edge_orbit(sg):
    # every edge left is still an input edge: only the counts differ
    orbit = edge_orbit(sg.graph.sorted_edges[0], sg.action.gamma)
    return SymGraph(Graph(sg.graph.n, sg.graph.edges - frozenset(orbit)), sg.action)


def _swap_an_edge_orbit(sg):
    # the counts agree, but one edge orbit is not the input's
    return perturb_edge_swap(random.Random(0), sg)


@pytest.mark.parametrize(
    "tamper",
    [_add_a_vertex_orbit, _reverse_the_rotation, _drop_an_edge_orbit, _swap_an_edge_orbit],
)
def test_a_replay_that_differs_from_the_input_yields_no_certificate(monkeypatch, tamper):
    sg = random_tight_symgraph(0, 15)
    _tamper_the_walk(monkeypatch, tamper)
    with pytest.raises(InternalInvariantBroken, match="does not reproduce the input"):
        extract_sequence(sg)


def test_a_relabeling_that_repeats_a_vertex_yields_no_certificate(monkeypatch):
    # Renamed by (3, 4, 5, 3, 4, 5), this graph agrees with the prism in its
    # vertex and edge counts, its rotation and every renamed edge: only the
    # repeated images tell the two apart.
    edges = {(3, 4), (4, 5), (3, 5), (0, 4), (1, 5), (2, 3), (0, 5), (1, 3), (2, 4)}
    folded = SymGraph(Graph(6, frozenset(edges)), C3Action((1, 2, 0, 4, 5, 3)))

    def repeating(base, moves, relabeling):
        return ConstructionSequence(base, moves, (3, 4, 5, 3, 4, 5))

    monkeypatch.setattr(certify, "ConstructionSequence", repeating)
    _tamper_the_walk(monkeypatch, lambda replayed: folded)
    with pytest.raises(InternalInvariantBroken, match="does not reproduce the input"):
        extract_sequence(prism())


def test_extract_k3_is_empty():
    seq = extract_sequence(k3())
    assert seq.moves == ()
    assert replay_sequence(seq) == k3()


def test_extract_prism():
    seq = extract_sequence(prism())
    assert [m.kind for m in seq.moves] == [DELTA_EXTENSION]
    assert relabel_symgraph(replay_sequence(seq), seq.relabeling) == prism()


def test_extract_k33():
    seq = extract_sequence(k33())
    assert [m.kind for m in seq.moves] == [EDGE_SPLIT]
    assert relabel_symgraph(replay_sequence(seq), seq.relabeling) == k33()


def test_extract_handles_reversed_rotation():
    # same triangle, opposite rotation: the base normalization absorbs it
    sg = parse_graph('{"vertices":3, "edges":[[0,1],[1,2],[2,0]], "c3":[2,0,1]}')
    seq = extract_sequence(sg)
    assert seq.moves == ()
    assert seq.relabeling == (0, 2, 1)
    assert relabel_symgraph(replay_sequence(seq), seq.relabeling) == sg


def test_two_extractions_from_one_graph_agree():
    # each extraction reduces its own copy of the graph's game, which keeps
    # all 117 edges of this graph
    sg = fast_tight_symgraph(11, 60)
    seq = extract_sequence(sg)
    assert sum(map(len, sg.graph.sparsity.game.out)) == sg.graph.m
    assert extract_sequence(sg) == seq


def test_extract_round_trip_on_corpus():
    rng = random.Random(5150)
    for n in (6, 9, 12, 15):
        for _ in range(8):
            sg = random_tight_symgraph(rng, n)
            seq = extract_sequence(sg)
            assert len(seq.moves) == (n - 3) // 3
            assert relabel_symgraph(replay_sequence(seq), seq.relabeling) == sg
            for k in range(len(seq.moves) + 1):
                step = replay_sequence(ConstructionSequence(canonical_base(), seq.moves[:k]))
                assert laman_check(step.graph)
                assert count_fixed(step).j == 0


SEQUENCE_DIGEST = "a3cf845a34a3a01483a6e4ff403833e78ad30a58f2df6868f009580f07aea570"


def test_extracted_sequences_match_their_pinned_digest():
    # One sha256 over the sequences of 426 graphs pins the move choice: the
    # smallest label of lowest valence, the anchor pair order and the anchor
    # order. The goldens cover six graphs only.
    graphs = list(acceptance_corpus())
    graphs += [fast_tight_symgraph(s, n) for s in range(4) for n in (30, 60, 120, 240)]
    graphs += [random_tight_symgraph(s, 45) for s in range(10)]
    digest = hashlib.sha256()
    for sg in graphs:
        try:
            text = json.dumps(extract_sequence(sg).as_json_dict(), sort_keys=True)
        except NotIsostatic:
            text = "NotIsostatic"
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == SEQUENCE_DIGEST


def test_extraction_survives_arbitrary_labelings():
    # corpus builders always append orbits at the top indices; shuffling
    # the labels exercises extraction on arbitrary orbit index patterns
    rng = random.Random(31337)
    for _ in range(15):
        sg = random_tight_symgraph(rng, 3 * rng.randint(2, 6))
        perm = list(range(sg.graph.n))
        rng.shuffle(perm)
        moved = relabel_symgraph(sg, tuple(perm))
        seq = extract_sequence(moved)
        assert relabel_symgraph(replay_sequence(seq), seq.relabeling) == moved


def test_tight_graph_with_fixed_vertices_fails_symmetry_only():
    # both plain counts hold, so the fixed vertex is the single obstacle
    sg = parse_graph(
        {
            "vertices": 5,
            "edges": [[3, 4], [3, 0], [3, 1], [3, 2], [4, 0], [4, 1], [4, 2]],
            "c3": [1, 2, 0, 3, 4],
        }
    )
    assert laman_check(sg.graph)
    verdict = check_c3_isostatic(sg)
    assert verdict.reasons == ("fixed_vertex",)
    assert verdict.witness == 3


def test_decision_matches_extraction_on_perturbed_corpus():
    rng = random.Random(616)
    for _ in range(25):
        sg = perturb_edge_swap(rng, random_tight_symgraph(rng, 3 * rng.randint(2, 5)))
        verdict = check_c3_isostatic(sg).isostatic
        try:
            extract_sequence(sg)
            extracted = True
        except NotIsostatic:
            extracted = False
        assert verdict == extracted


def test_all_reduction_shapes_occur_in_corpus():
    # the extractor has three forward move kinds; a fixed corpus must hit
    # every one, or a precedence regression could hide a dead branch
    rng = random.Random(321)
    kinds = {VERTEX_ADDITION: 0, EDGE_SPLIT: 0, DELTA_EXTENSION: 0}
    for _ in range(40):
        sg = random_tight_symgraph(rng, 3 * rng.randint(2, 8))
        for move in extract_sequence(sg).moves:
            kinds[move.kind] += 1
    assert all(count > 0 for count in kinds.values()), kinds


def test_decision_against_independent_oracle():
    # brute-force subset enumeration plus a direct fixed scan; no pebble
    # game or reduction machinery on this side
    from c3rig import brute_force_laman

    def oracle(sg):
        free = all(sg.action.gamma[v] != v for v in range(sg.graph.n))
        return brute_force_laman(sg.graph) and free

    rng = random.Random(271828)
    for _ in range(40):
        sg = random_tight_symgraph(rng, 3 * rng.randint(2, 4))
        cases = [sg, perturb_edge_swap(rng, sg)]
        perm = list(range(sg.graph.n))
        rng.shuffle(perm)
        cases.append(relabel_symgraph(sg, tuple(perm)))
        for case in cases:
            assert check_c3_isostatic(case).isostatic == oracle(case)
    assert not oracle(k13_hub())
    assert not oracle(octahedron())


def test_sequence_base_is_pinned():
    with pytest.raises(InvalidAnchor):
        ConstructionSequence(prism(), ())


def test_replay_propagates_move_errors():
    bad = ConstructionSequence(
        canonical_base(), (Move(EDGE_SPLIT, (0, 1, 5), (3, 4, 5)),)
    )
    with pytest.raises(InvalidAnchor):
        replay_sequence(bad)
    missing = ConstructionSequence(
        canonical_base(),
        (
            Move(VERTEX_ADDITION, (0, 1), (3, 4, 5)),
            Move(EDGE_SPLIT, (3, 4, 0), (6, 7, 8)),
        ),
    )
    with pytest.raises(MissingEdge):
        replay_sequence(missing)


# a vertex addition row with one spoke orbit too few: the count is short
_SHORT_ROW = certify.MoveShape(2, lambda a, v: ((a[0], (0,)),))


@pytest.mark.parametrize(
    "kind, row, anchors", [(VERTEX_ADDITION, _SHORT_ROW, (0, 3))], ids=["short_count"]
)
def test_replay_rejects_a_move_that_breaks_tightness(monkeypatch, kind, row, anchors):
    # every row of the move table preserves tightness (tests/test_moves.py
    # checks the table), so only a patched row can miss the count
    monkeypatch.setitem(certify.MOVE_TABLE, kind, row)
    prism_moves = (Move(DELTA_EXTENSION, (0,), (3, 4, 5)),)
    assert replay_sequence(ConstructionSequence(canonical_base(), prism_moves)) == prism()
    seq = ConstructionSequence(canonical_base(), prism_moves + (Move(kind, anchors, (6, 7, 8)),))
    with pytest.raises(IntermediateNotTight):
        replay_sequence(seq)


@pytest.mark.parametrize(
    "moves, error, short_row",
    [
        (lambda: (Move(VERTEX_ADDITION, (0,), (3, 4, 5)),), InvalidAnchor, False),
        (lambda: (Move(EDGE_SPLIT, (0, 1, 7), (3, 4, 5)),), InvalidAnchor, False),
        (
            lambda: (
                Move(VERTEX_ADDITION, (0, 1), (3, 4, 5)),
                Move(EDGE_SPLIT, (3, 4, 0), (6, 7, 8)),
            ),
            MissingEdge,
            False,
        ),
        (
            lambda: (
                Move(DELTA_EXTENSION, (0,), (3, 4, 5)),
                Move(VERTEX_ADDITION, (0, 3), (6, 7, 8)),
            ),
            IntermediateNotTight,
            True,
        ),
    ],
    ids=["arity", "out_of_range", "missing_split_edge", "short_count"],
)
def test_bad_sequence_fails_alike_in_replay_and_partition(monkeypatch, moves, error, short_row):
    # the count is checked before the trees place a move's edges, so a
    # short row fails the partition as it fails the replay
    if short_row:
        monkeypatch.setitem(certify.MOVE_TABLE, VERTEX_ADDITION, _SHORT_ROW)
    for consume in (replay_sequence, build_tree_partition):
        with pytest.raises(error):
            consume(ConstructionSequence(canonical_base(), moves()))


def test_replay_and_partition_of_one_sequence_walk_it_once(monkeypatch):
    sg = fast_tight_symgraph(3, 45)
    seq = extract_sequence(sg)
    checked = []
    move_spokes = certify.move_spokes

    def counted(move, gamma, has_edge):
        checked.append(move)
        return move_spokes(move, gamma, has_edge)

    for module in (certify, trees):
        if hasattr(module, "move_spokes"):
            monkeypatch.setattr(module, "move_spokes", counted)
    fresh = ConstructionSequence(seq.base, seq.moves, seq.relabeling)
    assert relabel_symgraph(replay_sequence(fresh), fresh.relabeling) == sg
    tp = build_tree_partition(fresh)
    assert checked == list(seq.moves)
    # the extracted sequence is equal, and its round trip has walked it
    assert seq == fresh and build_tree_partition(seq) == tp
    assert replay_sequence(seq) == replay_sequence(fresh)
    assert checked == list(seq.moves)
