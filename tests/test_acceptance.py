"""Acceptance suite: one test per release criterion, one printed line each."""
import contextlib
import io
import json
import random
import time

from c3rig import (
    DELTA_EXTENSION,
    EDGE_SPLIT,
    SymGraph,
    brute_force_laman,
    build_tree_partition,
    check_c3_isostatic,
    count_fixed,
    exact_rank,
    extract_sequence,
    laman_check,
    numeric_isostatic_check,
    pebble_sparsity,
    pull_apart_fully,
    relabel_partition,
    relabel_symgraph,
    replay_sequence,
    rigidity_matrix,
    serialize_graph,
    symmetric_generic_positions,
    verify_tree_partition,
)
from c3rig import cli
from c3rig.certify import ConstructionSequence
from c3rig.errors import FixedVertexPresent, NotIsostatic
from c3rig.geometry import _LiveFrame
from tests.corpus import (
    acceptance_corpus as corpus,
    add_non_edge_orbit,
    clique_with_tail,
    edge_orbit_graphs,
    fast_tight_symgraph,
    generalized_matrix,
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
        parked = _LiveFrame.read(sg, partition).dirs
        if exact_rank(generalized_matrix(sg.graph, parked)) != sg.graph.m:
            failures += 1
            continue
        placement, _ = pull_apart_fully(sg, partition)
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


def _refuses(route, sg):
    try:
        route(sg)
    except NotIsostatic:
        return True
    return False


def test_criterion_2b_exhaustive_small_graphs():
    # Every graph of 2n - 3 edges, as a set of edge orbits, under a rotation
    # that fixes no vertex, at n = 6 and 9: the four routes (count verdict,
    # extraction and its round trip, generic rank at seed 0, frame route)
    # pass each tight one, and refuse each other one, whose game agrees
    # with the brute-force counts and whose witness W spans at least
    # 2|W| - 2 edges. With one fixed vertex (n = 7 and 10) the orbits of
    # three edges never make 2n - 3 of them: the graphs with the orbit
    # counts either side of it at n = 7, and below it at n = 10 (the 5005
    # above it would double the time), are refused by the count verdict
    # for their counts and their fixed vertex, and by the placement.
    start = time.perf_counter()
    tight, refused, fixed, problems = 0, 0, 0, []
    for n in (6, 9):
        for sg in edge_orbit_graphs(n, (2 * n - 3) // 3):
            g = sg.graph
            if check_c3_isostatic(sg).isostatic:
                tight += 1
                seq = extract_sequence(sg)
                ok = (
                    relabel_symgraph(replay_sequence(seq), seq.relabeling) == sg
                    and cli._realize(sg, "generic", 0)[1].isostatic
                    and cli._realize(sg, "frame", 0)[1].isostatic
                )
            else:
                refused += 1
                report = pebble_sparsity(g)
                witness = set(report.witness or ())
                spanned = sum(u in witness and v in witness for u, v in g.edges)
                ok = (
                    not report.is_tight and not brute_force_laman(g)
                    and spanned >= 2 * len(witness) - 2
                    and _refuses(extract_sequence, sg)
                    and cli._realize(sg, "generic", 0)[1].isostatic is False
                    and _refuses(lambda sg: cli._realize(sg, "frame", 0), sg)
                )
            if not ok:
                problems.append(serialize_graph(sg))
    for n, k in ((7, 3), (7, 4), (10, 5)):
        for sg in edge_orbit_graphs(n, k):
            fixed += 1
            try:
                symmetric_generic_positions(sg, 0)
                placed = True
            except FixedVertexPresent:
                placed = False
            if placed or not {"count", "fixed_vertex"} <= set(check_c3_isostatic(sg).reasons):
                problems.append(serialize_graph(sg))
    elapsed = time.perf_counter() - start
    _report(
        "2b",
        (tight, refused, fixed) == (694, 108, 3073) and not problems,
        f"{tight} tight and {refused} other free graphs at n = 6 and 9, {fixed} with a"
        f" fixed vertex at n = 7 and 10, {len(problems)} disagreements, {elapsed:.2f}s",
    )


def test_criterion_7_performance(tmp_path):
    big = fast_tight_symgraph(11, 3000)
    start = time.perf_counter()
    report = pebble_sparsity(big.graph)
    pebble_elapsed = time.perf_counter() - start

    # the whole check command: read, parse, game, report
    def timed_check_command(sg, name):
        path = tmp_path / name
        path.write_text(json.dumps(serialize_graph(sg)), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            start = time.perf_counter()
            code = cli.main(["check", str(path)])
            elapsed = time.perf_counter() - start
        return code, json.loads(out.getvalue()), elapsed

    check_code, check_report, check_elapsed = timed_check_command(big, "big.json")
    # failing graphs: the game plays the first 2n - 2 sorted edges in degree
    # order, then walks down to the first sorted rejection for the witness;
    # with m = 2n - 3, with one edge orbit over it, and with a 60-clique on
    # the lowest labels, whose first sorted rejection comes within its
    # first 140 edges
    failing = perturb_edge_swap(random.Random(3000), big)
    failing_code, failing_report, failing_elapsed = timed_check_command(failing, "failing.json")
    over = add_non_edge_orbit(random.Random(3000), big)
    over_code, over_report, over_elapsed = timed_check_command(over, "over.json")
    clique = SymGraph(clique_with_tail(random.Random(3000), 60, 3000, True))
    clique_code, clique_report, clique_elapsed = timed_check_command(clique, "clique.json")

    # the rank mod P of a generic placement's rigidity matrix
    def timed_rank(sg):
        matrix = rigidity_matrix(sg.graph, symmetric_generic_positions(sg, 0))
        start = time.perf_counter()
        rank = exact_rank(matrix)
        return rank, time.perf_counter() - start

    rank, rank_elapsed = timed_rank(random_tight_symgraph(7, 60))
    big_rank, big_rank_elapsed = timed_rank(fast_tight_symgraph(11, 240))

    # the path realize runs: placement, then the rank check on it
    def timed_check(sg):
        start = time.perf_counter()
        rank = numeric_isostatic_check(sg, symmetric_generic_positions(sg, 0)).rank
        return rank, time.perf_counter() - start

    placed = fast_tight_symgraph(11, 960)
    placed_rank, placed_elapsed = timed_check(placed)
    largest_placed_rank, largest_placed_elapsed = timed_check(fast_tight_symgraph(11, 1920))

    # over-dense graphs: the rank falls short of 2n - 3 mod P, so the
    # matroid ceiling answers, from one pebble game, at n = 150 and 900
    def timed_deficit(n):
        dense = perturb_edge_swap(random.Random(n), fast_tight_symgraph(3, n))
        dense_placement = symmetric_generic_positions(dense, 0)
        start = time.perf_counter()
        dense_rank = numeric_isostatic_check(dense, dense_placement).rank
        return dense_rank, time.perf_counter() - start

    dense_rank, dense_elapsed = timed_deficit(150)
    big_dense_rank, big_dense_elapsed = timed_deficit(900)

    def timed_frame_route(sg):
        seq = extract_sequence(sg)
        tp = relabel_partition(build_tree_partition(seq), seq.relabeling)
        start = time.perf_counter()
        _, rounds = pull_apart_fully(sg, tp)
        return rounds, time.perf_counter() - start

    # the frame route at n = 240, at n = 480, where a few rounds fall short
    # mod P and are taken again, at n = 960 over 284 rounds, at n = 1920
    # over 561 and at n = 2880 over 885
    _, frame_elapsed = timed_frame_route(fast_tight_symgraph(11, 240))
    _, big_frame_elapsed = timed_frame_route(fast_tight_symgraph(11, 480))
    _, huge_frame_elapsed = timed_frame_route(placed)
    _, largest_frame_elapsed = timed_frame_route(fast_tight_symgraph(11, 1920))
    frame_2880_rounds, frame_2880_elapsed = timed_frame_route(fast_tight_symgraph(11, 2880))

    def timed_extract(sg):
        start = time.perf_counter()
        seq = extract_sequence(sg)
        return seq, time.perf_counter() - start

    seq, extract_elapsed = timed_extract(fast_tight_symgraph(11, 960))
    big_seq, big_extract_elapsed = timed_extract(big)
    # the extraction's round trip has walked big_seq already, and a walk is
    # kept on its sequence: time the first walk of a fresh one
    fresh = ConstructionSequence(big_seq.base, big_seq.moves, big_seq.relabeling)
    start = time.perf_counter()
    replayed = replay_sequence(fresh)
    big_replay_elapsed = time.perf_counter() - start

    ok = (
        report.is_tight
        and pebble_elapsed < 0.5
        and check_code == 0
        and check_report["c3_verdict"]["isostatic"]
        and check_elapsed < 0.2
        and failing.graph.m == big.graph.m
        and failing_code == 1
        and failing_report["sparsity"]["witness"] is not None
        and failing_elapsed < 0.2
        and over.graph.m == big.graph.m + 3
        and over_code == 1
        and over_report["sparsity"]["witness"] is not None
        and over_elapsed < 0.2
        and clique_code == 1
        and clique_report["sparsity"]["witness"] == [0, 1, 2, 3]
        and clique_elapsed < 0.2
        and rank == 117
        and rank_elapsed < 0.5
        and big_rank == 477
        and big_rank_elapsed < 0.5
        and placed_rank == 1917
        and placed_elapsed < 0.5
        and largest_placed_rank == 3837
        and largest_placed_elapsed < 0.5
        and dense_rank == 294
        and dense_elapsed < 0.05
        and big_dense_rank == 1794
        and big_dense_elapsed < 0.5
        and frame_elapsed < 2.0
        and big_frame_elapsed < 1.5
        and huge_frame_elapsed < 1.5
        and largest_frame_elapsed < 2.0
        and frame_2880_rounds == 885
        and frame_2880_elapsed < 10.0
        and len(seq.moves) == 319
        and extract_elapsed < 0.4
        and len(big_seq.moves) == 999
        and big_extract_elapsed < 1.5
        and relabel_symgraph(replayed, big_seq.relabeling) == big
        and big_replay_elapsed < 0.3
    )
    _report(
        7,
        ok,
        f"pebble n=3000 {pebble_elapsed:.2f}s (< 0.5s), check command n=3000"
        f" {check_elapsed:.3f}s (< 0.2s), failing graph {failing_elapsed:.3f}s (< 0.2s),"
        f" over-braced {over_elapsed:.3f}s (< 0.2s), 60-clique {clique_elapsed:.3f}s (< 0.2s),"
        f" rank mod P n=60 {rank_elapsed:.4f}s (< 0.5s),"
        f" n=240 {big_rank_elapsed:.4f}s (< 0.5s), placement and rank check n=960"
        f" {placed_elapsed:.3f}s (< 0.5s), n=1920 {largest_placed_elapsed:.3f}s (< 0.5s),"
        f" over-dense check n=150 {dense_elapsed:.4f}s (< 0.05s),"
        f" n=900 {big_dense_elapsed:.3f}s (< 0.5s),"
        f" frame route n=240 {frame_elapsed:.2f}s (< 2s), n=480 {big_frame_elapsed:.2f}s (< 1.5s),"
        f" n=960 {huge_frame_elapsed:.2f}s (< 1.5s), n=1920 {largest_frame_elapsed:.2f}s (< 2s),"
        f" n=2880 {frame_2880_rounds} rounds {frame_2880_elapsed:.2f}s (< 10s),"
        f" extraction n=960"
        f" {extract_elapsed:.2f}s (< 0.4s),"
        f" n=3000 {big_extract_elapsed:.2f}s (< 1.5s), first replay n=3000 {big_replay_elapsed:.3f}s (< 0.3s)",
    )
