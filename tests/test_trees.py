import dataclasses
import random

import pytest

from c3rig import (
    TreePartition,
    build_tree_partition,
    extract_sequence,
    pebble_sparsity,
    pull_apart_fully,
    relabel_partition,
    relabel_symgraph,
    replay_sequence,
    verify_tree_partition,
)
from c3rig.errors import InvalidPartition, NotAPermutation
from c3rig.graphs import edge_orbit
from c3rig.trees import _is_tree
from tests.corpus import (
    acceptance_corpus,
    k3,
    k33,
    perturb_edge_swap,
    prism,
    random_tight_symgraph,
)

PRISM_PARTITION = TreePartition(
    (
        frozenset({(0, 1), (0, 3), (3, 4)}),
        frozenset({(1, 2), (1, 4), (4, 5)}),
        frozenset({(0, 2), (2, 5), (3, 5)}),
    )
)


def test_base_partition():
    seq = extract_sequence(k3())
    tp = build_tree_partition(seq)
    assert tp.trees == (frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(0, 2)}))
    assert verify_tree_partition(k3(), tp).ok


def test_prism_partition_matches_update_rules():
    seq = extract_sequence(prism())
    tp = relabel_partition(build_tree_partition(seq), seq.relabeling)
    assert tp == PRISM_PARTITION
    report = verify_tree_partition(prism(), tp)
    assert report.ok
    assert report.failures() == ()


def test_k33_partition():
    seq = extract_sequence(k33())
    tp = build_tree_partition(seq)
    assert tp.trees == (
        frozenset({(0, 3), (1, 3), (1, 5)}),
        frozenset({(1, 4), (2, 4), (2, 3)}),
        frozenset({(2, 5), (0, 5), (0, 4)}),
    )
    assert verify_tree_partition(replay_sequence(seq), tp).ok
    relabeled = relabel_partition(tp, seq.relabeling)
    assert verify_tree_partition(k33(), relabeled).ok


# The prism partition with the spokes (0, 3) and (1, 4) swapped.
SWAPPED_SPOKES = TreePartition(
    (
        frozenset({(0, 1), (1, 4), (3, 4)}),
        frozenset({(1, 2), (0, 3), (4, 5)}),
        frozenset({(0, 2), (2, 5), (3, 5)}),
    )
)


def test_swapped_spokes_break_equivariance():
    report = verify_tree_partition(prism(), SWAPPED_SPOKES)
    assert report.partitions_edges
    assert not report.rotation_cycles_trees
    assert not report.ok


def test_frame_rejects_swapped_spokes():
    with pytest.raises(InvalidPartition, match="rotation_cycles_trees"):
        pull_apart_fully(prism(), SWAPPED_SPOKES)


def test_missing_edge_breaks_partition():
    trees = (
        frozenset({(0, 1), (0, 3)}),
        frozenset({(1, 2), (1, 4), (4, 5)}),
        frozenset({(0, 2), (2, 5), (3, 5)}),
    )
    assert not verify_tree_partition(prism(), TreePartition(trees)).partitions_edges


def test_cycle_is_not_a_tree():
    sg = prism()
    trees = (
        frozenset({(0, 1), (1, 2), (0, 2)}),
        frozenset({(3, 4), (4, 5), (3, 5)}),
        frozenset({(0, 3), (1, 4), (2, 5)}),
    )
    report = verify_tree_partition(sg, TreePartition(trees))
    assert report.partitions_edges
    assert not report.trees_are_trees


def test_overbraced_graph_fails_properness():
    # swap one edge orbit so a symmetric subgraph goes over the count; the
    # carried-over partition then fails the properness leg
    rng = random.Random(13)
    sg = random_tight_symgraph(rng, 9)
    seq = extract_sequence(sg)
    tp = relabel_partition(build_tree_partition(seq), seq.relabeling)
    assert verify_tree_partition(sg, tp).proper
    for _ in range(100):
        swapped = perturb_edge_swap(rng, sg)
        if not verify_tree_partition(swapped, tp).proper:
            break
    else:
        raise AssertionError("no perturbation broke sparsity")


def test_properness_is_the_graphs_pebble_verdict():
    # the properness check reads the graph's own game, sparse or not
    rng = random.Random(13)
    sg = random_tight_symgraph(rng, 9)
    seq = extract_sequence(sg)
    tp = relabel_partition(build_tree_partition(seq), seq.relabeling)
    graphs = [sg] + [perturb_edge_swap(rng, sg) for _ in range(20)]
    proper = [verify_tree_partition(g, tp).proper for g in graphs]
    assert proper == [pebble_sparsity(g.graph).is_sparse for g in graphs]
    assert set(proper) == {True, False}


@pytest.mark.parametrize(
    "bad",
    [
        (1, 6), (1, 9), (-1, 1), (1, 2.0), (1, "x"), (1, None), (True, 2), (1, 10**6),
        (0, 1, 2), (0,), 5,
    ],
    ids=[
        "n", "past_n", "negative", "float", "str", "none", "bool", "huge",
        "triple", "single", "not_a_tuple",
    ],
)
def test_a_tree_vertex_outside_the_graph_fails_the_report(bad):
    # the edge takes the place of (1, 2) in tree 1 of the prism's partition;
    # vertex -1 must not stand for vertex 5, nor 2.0 or True for 2 or 1:
    # (1, 2.0) and (True, 2) compare and hash equal to (1, 2), so with them
    # every tree equals the true one, and only the vertex's type tells. An
    # edge that is not a pair is reported too, not raised on.
    trees = list(PRISM_PARTITION.trees)
    trees[1] = trees[1] - {(1, 2)} | {bad}
    report = verify_tree_partition(prism(), TreePartition(tuple(trees)))
    assert not report.partitions_edges and not report.ok
    assert not report.two_trees_per_vertex and not report.rotation_cycles_trees
    if type(bad) is not tuple or len(bad) != 2:
        assert not report.trees_are_trees
    with pytest.raises(InvalidPartition, match="partitions_edges"):
        pull_apart_fully(prism(), TreePartition(tuple(trees)))


def _reference_report(sg, tp):
    # the report with every tree searched, whatever the rotation check says
    report = verify_tree_partition(sg, tp)
    return dataclasses.replace(
        report, trees_are_trees=all(map(_is_tree, tp.trees, tp.vertex_sets))
    )


def _orbitwise_partition(sg, rng):
    # each edge orbit spread over the three trees in rotation order from a
    # random first tree, so the rotation always cycles the trees
    parts = ([], [], [])
    placed = set()
    for e in sg.graph.sorted_edges:
        if e not in placed:
            k = rng.randrange(3)
            for j, f in enumerate(edge_orbit(e, sg.action.gamma)):
                parts[(k + j) % 3].append(f)
                placed.add(f)
    return TreePartition(tuple(map(frozenset, parts)))


def _has_cycle(edges):
    root = {}

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    for u, v in edges:
        a, b = find(u), find(v)
        if a == b:
            return True
        root[a] = b
    return False


def _cyclic_rotated_partition():
    # a seeded search for trees that the rotation cycles but hold a cycle
    for seed in range(50):
        sg = random_tight_symgraph(seed % 5, 9)
        tp = _orbitwise_partition(sg, random.Random(seed))
        if any(map(_has_cycle, tp.trees)):
            return sg, tp
    raise AssertionError("no orbitwise partition with a cycle")


def _tampers(sg, tp, rng):
    # two trees swapped, one edge moved to another tree, one dropped, and
    # one with an end past the last vertex
    t0, t1, t2 = tp.trees
    e = rng.choice(sorted(t0))
    return [
        (t0, t2, t1),
        (t0 - {e}, t1 | {e}, t2),
        (t0 - {e}, t1, t2),
        (t0 - {e} | {(e[0], sg.graph.n)}, t1, t2),
    ]


def test_verify_agrees_with_searching_every_tree():
    rng = random.Random(35)
    cases = [(prism(), SWAPPED_SPOKES), _cyclic_rotated_partition()]
    for sg in acceptance_corpus()[:200]:
        seq = extract_sequence(sg)
        tp = relabel_partition(build_tree_partition(seq), seq.relabeling)
        cases.append((sg, tp))
        cases.extend((sg, TreePartition(parts)) for parts in _tampers(sg, tp, rng))
    seen = set()
    for sg, tp in cases:
        report = verify_tree_partition(sg, tp)
        assert report == _reference_report(sg, tp)
        seen.add((report.rotation_cycles_trees, report.trees_are_trees))
    # both branches are taken, each with trees that pass and that fail
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_verify_searches_one_tree_once_the_rotation_cycles_them(monkeypatch):
    sg = random_tight_symgraph(0, 15)
    seq = extract_sequence(sg)
    tp = relabel_partition(build_tree_partition(seq), seq.relabeling)
    searched = []

    def counted(edges, vertices):
        searched.append(edges)
        return _is_tree(edges, vertices)

    monkeypatch.setattr("c3rig.trees._is_tree", counted)
    assert verify_tree_partition(sg, tp).ok
    assert searched == [tp.trees[0]]
    # swapped trees are each a tree, but the rotation no longer cycles them
    searched.clear()
    t0, t1, t2 = tp.trees
    report = verify_tree_partition(sg, TreePartition((t0, t2, t1)))
    assert report.trees_are_trees and not report.rotation_cycles_trees
    assert searched == [t0, t2, t1]


def test_partition_implies_global_count():
    rng = random.Random(45)
    for _ in range(10):
        sg = random_tight_symgraph(rng, 3 * rng.randint(2, 5))
        seq = extract_sequence(sg)
        tp = build_tree_partition(seq)
        total = sum(len(t) for t in tp.trees)
        assert total == 2 * sg.graph.n - 3


def test_corpus_partitions_verify():
    rng = random.Random(8080)
    for n in (6, 9, 12, 15):
        for _ in range(6):
            sg = random_tight_symgraph(rng, n)
            seq = extract_sequence(sg)
            tp = build_tree_partition(seq)
            assert verify_tree_partition(replay_sequence(seq), tp).ok
            assert verify_tree_partition(
                sg, relabel_partition(tp, seq.relabeling)
            ).ok


def test_relabel_partition_round_trip():
    perm = (3, 4, 5, 0, 1, 2)
    inverse = (3, 4, 5, 0, 1, 2)
    moved = relabel_partition(PRISM_PARTITION, perm)
    assert relabel_partition(moved, inverse) == PRISM_PARTITION
    assert verify_tree_partition(relabel_symgraph(prism(), perm), moved).ok


@pytest.mark.parametrize("perm", [(0, 0, 2), (0, 1)], ids=["repeated", "short"])
def test_relabel_partition_rejects_a_perm_that_is_not_a_permutation(perm):
    # (0, 0, 2) would emit the loop (0, 0); (0, 1) leaves vertex 2 unnamed
    tp = build_tree_partition(extract_sequence(k3()))
    with pytest.raises(NotAPermutation):
        relabel_partition(tp, perm)


def test_json_shape():
    doc = PRISM_PARTITION.as_json_dict()
    assert set(doc) == {"T0", "T1", "T2"}
    assert doc["T0"] == [[0, 1], [0, 3], [3, 4]]
