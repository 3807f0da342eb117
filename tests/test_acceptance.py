"""Acceptance suite: one test per release criterion, one printed line each."""
import random
import time

from c3rig import (
    DELTA_EXTENSION,
    EDGE_SPLIT,
    brute_force_laman,
    build_tree_partition,
    check_c3_isostatic,
    count_fixed,
    exact_rank,
    extract_sequence,
    frame_from_partition,
    framework_from_frame,
    laman_check,
    numeric_isostatic_check,
    pebble_sparsity,
    pull_apart_fully,
    relabel_partition,
    relabel_symgraph,
    replay_sequence,
    rigidity_matrix,
    symmetric_generic_positions,
    verify_tree_partition,
)
from c3rig.errors import NotIsostatic
from c3rig.geometry import generalized_rigidity_matrix
from tests.corpus import (
    acceptance_corpus as corpus,
    fast_tight_symgraph,
    k13_hub,
    k3,
    k33,
    octahedron,
    perturb_edge_swap,
    prism,
    random_move,
    random_plain_graph,
    random_tight_symgraph,
)


def _report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _symmetric_rank_verdict(sg):
    for seed in (0, 1):  # one re-seed permitted
        verdict = numeric_isostatic_check(sg, symmetric_generic_positions(sg, seed))
        if verdict.isostatic:
            return True
    return False


def test_criterion_1_oracle_equivalence():
    rng = random.Random(1)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        g = random_plain_graph(rng, rng.randint(4, 10))
        if pebble_sparsity(g).is_tight != brute_force_laman(g):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        mismatches == 0 and elapsed < 30.0,
        f"500 random graphs, {mismatches} mismatches, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_verdict_chain_agreement():
    start = time.perf_counter()
    disagreements = 0
    for sg in corpus():
        count_ok = check_c3_isostatic(sg).isostatic
        try:
            seq = extract_sequence(sg)
            sequence_ok = True
        except NotIsostatic:
            seq = None
            sequence_ok = False
        if seq is not None:
            partition = build_tree_partition(seq)
            partition_ok = verify_tree_partition(replay_sequence(seq), partition).ok
        else:
            partition_ok = False
        rank_ok = _symmetric_rank_verdict(sg)
        if not (count_ok == sequence_ok == partition_ok == rank_ok):
            disagreements += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        disagreements == 0 and elapsed < 300.0,
        f"{len(corpus())} graphs, {disagreements} disagreements, {elapsed:.1f}s (< 5min)",
    )


def test_criterion_3_move_closure():
    rng = random.Random(3)
    failures = 0
    applied = 0
    for _ in range(100):
        sg = random_tight_symgraph(rng, 3 * rng.randint(1, 4))
        for _ in range(10):
            sg = random_move(rng, sg)
            applied += 1
            if not laman_check(sg.graph) or count_fixed(sg).j != 0:
                failures += 1
    _report(3, applied == 1000 and failures == 0, f"{applied} moves, {failures} failures")


def test_criterion_4_round_trip():
    failures = 0
    passing = 0
    for sg in corpus():
        if not check_c3_isostatic(sg).isostatic:
            continue
        passing += 1
        seq = extract_sequence(sg)
        if relabel_symgraph(replay_sequence(seq), seq.relabeling) != sg:
            failures += 1
            continue
        partition = relabel_partition(build_tree_partition(seq), seq.relabeling)
        if not verify_tree_partition(sg, partition).ok:
            failures += 1
    _report(4, passing > 0 and failures == 0, f"{passing} passing graphs, {failures} failures")


def test_criterion_5_frame_pipeline():
    failures = 0
    passing = 0
    for sg in corpus():
        if not check_c3_isostatic(sg).isostatic:
            continue
        passing += 1
        seq = extract_sequence(sg)
        partition = relabel_partition(build_tree_partition(seq), seq.relabeling)
        frame = frame_from_partition(sg, partition)
        if exact_rank(generalized_rigidity_matrix(sg.graph, frame)) != sg.graph.m:
            failures += 1
            continue
        frame, _ = pull_apart_fully(sg, partition, frame)
        placement = framework_from_frame(sg, frame)
        if not numeric_isostatic_check(sg, placement).isostatic:
            failures += 1
    _report(5, passing > 0 and failures == 0, f"{passing} passing graphs, {failures} failures")


def test_criterion_6_worked_instances():
    problems = []

    if not check_c3_isostatic(k3()).isostatic:
        problems.append("triangle not isostatic")
    if extract_sequence(k3()).moves != ():
        problems.append("triangle sequence not empty")

    if not check_c3_isostatic(prism()).isostatic:
        problems.append("prism not isostatic")
    prism_seq = extract_sequence(prism())
    if [m.kind for m in prism_seq.moves] != [DELTA_EXTENSION]:
        problems.append("prism sequence is not one delta extension")
    prism_partition = relabel_partition(
        build_tree_partition(prism_seq), prism_seq.relabeling
    )
    if not verify_tree_partition(prism(), prism_partition).ok:
        problems.append("prism partition fails verification")

    if not check_c3_isostatic(k33()).isostatic:
        problems.append("bipartite 3x3 not isostatic")
    if [m.kind for m in extract_sequence(k33()).moves] != [EDGE_SPLIT]:
        problems.append("bipartite 3x3 sequence is not one edge split")

    hub_verdict = check_c3_isostatic(k13_hub())
    if hub_verdict.isostatic or "fixed_vertex" not in hub_verdict.reasons:
        problems.append("fixed-hub star not rejected for its fixed vertex")

    oct_verdict = check_c3_isostatic(octahedron())
    if oct_verdict.isostatic or "count" not in oct_verdict.reasons:
        problems.append("octahedron not rejected for its count")
    if octahedron().graph.m != 12 or pebble_sparsity(octahedron().graph).target != 9:
        problems.append("octahedron counts off")

    _report(6, not problems, "; ".join(problems) or "all five worked instances match")


def test_criterion_7_performance():
    big = fast_tight_symgraph(11, 3000)
    start = time.perf_counter()
    report = pebble_sparsity(big.graph)
    pebble_elapsed = time.perf_counter() - start

    def timed_rank(sg):
        matrix = rigidity_matrix(sg.graph, symmetric_generic_positions(sg, 0))
        start = time.perf_counter()
        rank = exact_rank(matrix)
        return rank, time.perf_counter() - start

    rank, rank_elapsed = timed_rank(random_tight_symgraph(7, 60))
    big_rank, big_rank_elapsed = timed_rank(fast_tight_symgraph(11, 240))

    # the path realize runs: placement, then the rank check on it
    placed = fast_tight_symgraph(11, 960)
    start = time.perf_counter()
    placed_rank = numeric_isostatic_check(placed, symmetric_generic_positions(placed, 0)).rank
    placed_elapsed = time.perf_counter() - start

    # an over-dense graph: the rank falls short mod P, so the exact fallback runs
    dense = perturb_edge_swap(random.Random(150), fast_tight_symgraph(3, 150))
    dense_placement = symmetric_generic_positions(dense, 0)
    start = time.perf_counter()
    dense_rank = numeric_isostatic_check(dense, dense_placement).rank
    dense_elapsed = time.perf_counter() - start

    # the frame route at n = 480, where a few rounds reach the exact fallback
    framed = fast_tight_symgraph(11, 480)
    framed_seq = extract_sequence(framed)
    framed_tp = relabel_partition(build_tree_partition(framed_seq), framed_seq.relabeling)
    start = time.perf_counter()
    separated, _ = pull_apart_fully(framed, framed_tp, frame_from_partition(framed, framed_tp))
    framework_from_frame(framed, separated)
    frame_elapsed = time.perf_counter() - start

    def timed_extract(sg):
        start = time.perf_counter()
        seq = extract_sequence(sg)
        return seq, time.perf_counter() - start

    seq, extract_elapsed = timed_extract(fast_tight_symgraph(11, 960))
    big_seq, big_extract_elapsed = timed_extract(big)
    start = time.perf_counter()
    replayed = replay_sequence(big_seq)
    big_replay_elapsed = time.perf_counter() - start

    ok = (
        report.is_tight
        and pebble_elapsed < 5.0
        and rank == 117
        and rank_elapsed < 10.0
        and big_rank == 477
        and big_rank_elapsed < 10.0
        and placed_rank == 1917
        and placed_elapsed < 2.0
        and dense_rank == 294
        and dense_elapsed < 2.0
        and frame_elapsed < 10.0
        and len(seq.moves) == 319
        and extract_elapsed < 3.0
        and len(big_seq.moves) == 999
        and big_extract_elapsed < 5.0
        and relabel_symgraph(replayed, big_seq.relabeling) == big
        and big_replay_elapsed < 3.0
    )
    _report(
        7,
        ok,
        f"pebble n=3000 {pebble_elapsed:.2f}s (< 5s), exact rank n=60 {rank_elapsed:.2f}s (< 10s),"
        f" n=240 {big_rank_elapsed:.2f}s (< 10s), placement and rank check n=960"
        f" {placed_elapsed:.2f}s (< 2s), over-dense check n=150 {dense_elapsed:.2f}s (< 2s),"
        f" frame route n=480 {frame_elapsed:.2f}s (< 10s), extraction n=960"
        f" {extract_elapsed:.2f}s (< 3s),"
        f" n=3000 {big_extract_elapsed:.2f}s (< 5s), replay n=3000 {big_replay_elapsed:.2f}s (< 3s)",
    )
