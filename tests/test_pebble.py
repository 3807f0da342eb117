import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from c3rig import Graph, brute_force_laman, edge, extract_sequence, laman_check, pebble_sparsity
from c3rig.errors import InternalInvariantBroken, TooFewVertices, TooLarge
from c3rig.pebble import PebbleGame
from tests.corpus import (
    add_non_edge_orbit,
    clique_with_tail,
    fast_tight_symgraph,
    k33,
    perturb_edge_swap,
    prism,
    random_plain_graph,
    random_tight_symgraph,
)


def complete(n):
    return Graph(n, frozenset(edge(u, v) for u, v in combinations(range(n), 2)))


def test_k3_tight():
    report = pebble_sparsity(complete(3))
    assert report.is_sparse and report.is_tight
    assert report.witness is None
    assert (report.edge_count, report.target) == (3, 3)


def test_k4_overbraced_with_witness():
    report = pebble_sparsity(complete(4))
    assert not report.is_sparse and not report.is_tight
    assert report.witness == (0, 1, 2, 3)


def test_prism_tight():
    assert pebble_sparsity(prism().graph).is_tight
    assert brute_force_laman(prism().graph)


def test_k33_tight_against_oracle():
    g = k33().graph
    assert brute_force_laman(g)
    assert laman_check(g)


def test_two_triangles_one_bridge_fails_global_count():
    g = Graph(
        6,
        frozenset(
            {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)}
        ),
    )
    assert not laman_check(g)
    assert pebble_sparsity(g).is_sparse  # locally fine, globally short


def test_brute_force_rejects_k4():
    assert not brute_force_laman(complete(4))


def test_too_few_vertices():
    with pytest.raises(TooFewVertices):
        pebble_sparsity(Graph(1, frozenset()))


def test_too_large_for_oracle():
    with pytest.raises(TooLarge):
        brute_force_laman(Graph(15, frozenset()))


def test_pebble_matches_oracle_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(150):
        g = random_plain_graph(rng, rng.randint(4, 10))
        assert pebble_sparsity(g).is_tight == brute_force_laman(g)


def test_witness_induces_a_violation():
    rng = random.Random(99)
    found = 0
    while found < 40:
        g = random_plain_graph(rng, rng.randint(4, 10))
        report = pebble_sparsity(g)
        if report.is_sparse:
            continue
        found += 1
        w = set(report.witness)
        assert len(w) >= 2
        inner = sum(1 for u, v in g.edges if u in w and v in w)
        assert inner >= 2 * len(w) - 2


def test_adding_edges_never_restores_sparsity():
    rng = random.Random(7)
    for _ in range(60):
        g = random_plain_graph(rng, rng.randint(4, 9))
        non_edges = [
            e for e in combinations(range(g.n), 2) if edge(*e) not in g.edges
        ]
        if not non_edges or pebble_sparsity(g).is_sparse:
            continue
        extra = rng.choice(non_edges)
        bigger = Graph(g.n, g.edges | {edge(*extra)})
        assert not pebble_sparsity(bigger).is_sparse


def test_deterministic_reports():
    rng = random.Random(5)
    for _ in range(20):
        g = random_plain_graph(rng, 8)
        assert pebble_sparsity(g) == pebble_sparsity(g)


def test_random_tight_graphs_stay_tight():
    rng = random.Random(31)
    for _ in range(10):
        sg = random_tight_symgraph(rng, 3 * rng.randint(2, 6))
        assert laman_check(sg.graph)
        if sg.graph.n <= 14:
            assert brute_force_laman(sg.graph)


def test_classical_single_vertex_moves_preserve_tightness():
    rng = random.Random(62)
    for _ in range(30):
        g = random_tight_symgraph(rng, 3 * rng.randint(1, 4)).graph
        n = g.n
        # hang a new valence-2 vertex on a random pair
        a, b = rng.sample(range(n), 2)
        added = Graph(n + 1, g.edges | {edge(n, a), edge(n, b)})
        assert laman_check(added)
        # subdivide a random edge against a third vertex
        u, v = g.sorted_edges[rng.randrange(g.m)]
        w = rng.choice([x for x in range(n) if x not in (u, v)])
        split = Graph(
            n + 1,
            (g.edges - {edge(u, v)}) | {edge(n, u), edge(n, v), edge(n, w)},
        )
        assert laman_check(split)


operations = st.lists(
    st.tuples(
        st.sampled_from(["insert"] * 4 + ["delete"]), st.integers(0, 10**6)
    ),
    min_size=15,
    max_size=50,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), operations)
def test_live_game_agrees_with_from_scratch_games(n, ops):
    # random inserts and deletes on one live game; each insert must be
    # accepted exactly when the edge set it would make is sparse
    game = PebbleGame(n)
    edges: set = set()
    for op, k in ops:
        if op == "delete" and edges:
            e = sorted(edges)[k % len(edges)]
            game.delete_edge(*(e[::-1] if k % 2 else e))
            edges.remove(e)
        elif op == "insert":
            free = [e for e in combinations(range(n), 2) if e not in edges]
            if not free:
                continue
            e = free[k % len(free)]
            if k % 2:
                e = e[::-1]
            bigger = Graph(n, frozenset(edges | {edge(*e)}))
            accepted = game.insert_edge(*e)
            assert accepted == pebble_sparsity(bigger).is_sparse
            if bigger.m == 2 * n - 3:
                assert accepted == brute_force_laman(bigger)
            if accepted:
                edges.add(edge(*e))
            else:
                region = set(game.region(*e))
                inner = sum(1 for u, v in bigger.edges if u in region and v in region)
                assert inner >= 2 * len(region) - 2
        assert sum(game.pebbles) == 2 * n - len(edges)
        assert all(game.pebbles[x] + len(game.out[x]) == 2 for x in range(n))


def _first_witness(n, edges):
    # By subset enumeration: the first edge of ``edges`` that breaks
    # sparsity, and the smallest vertex set around its ends that spans
    # 2|R| - 3 of the edges before it (it is unique); None if no edge breaks
    # it. ``inner[mask]`` counts the edges so far inside ``mask``.
    inner = [0] * (1 << n)
    for u, v in edges:
        ends = 1 << u | 1 << v
        around = [mask for mask in range(1 << n) if mask & ends == ends]
        tight = [mask for mask in around if inner[mask] == 2 * mask.bit_count() - 3]
        if tight:
            smallest = min(mask.bit_count() for mask in tight)
            (region,) = [mask for mask in tight if mask.bit_count() == smallest]
            return tuple(x for x in range(n) if region >> x & 1)
        for mask in around:
            inner[mask] += 1
    return None


def test_witness_is_the_minimal_tight_set_around_the_first_rejected_edge():
    # The witness is fixed by the graph and its sorted edge order alone: the
    # smallest vertex set around the first rejected edge's ends that spans
    # 2|R| - 3 of the edges before it. That set is closed in any orientation
    # of those edges and carries the 3 pebbles left on the ends, so it is the
    # region the game reports whatever path the pebble searches took.
    rng = random.Random(2008)
    checked = 0
    while checked < 150:
        n = rng.randint(4, 8)
        pairs = list(combinations(range(n), 2))
        chosen = rng.sample(pairs, rng.randint(2 * n - 3, len(pairs)))
        g = Graph(n, frozenset(edge(u, v) for u, v in chosen))
        witness = _first_witness(n, g.sorted_edges)
        report = pebble_sparsity(g)
        assert report.is_sparse == (witness is None)
        assert report.witness == witness
        checked += witness is not None


def test_witness_within_the_edge_count_is_the_first_sorted_rejections():
    # With m <= 2n - 3 the game decides in degree order and walks down to
    # the first sorted rejection for the witness. Two disjoint over-dense
    # regions, plus vertices on no edge: the degree-ordered game often
    # meets the other region first, and the witness must not follow it.
    rng = random.Random(1997)
    elsewhere = isolated = 0
    for _ in range(120):
        sizes = rng.choice([4, 5]), rng.choice([4, 5])
        n = sum(sizes) + rng.randint(0, 2)
        vertices = rng.sample(range(n), n)
        regions = vertices[: sizes[0]], vertices[sizes[0] : sum(sizes)]
        edges = set()
        for region in regions:
            pairs = [edge(u, v) for u, v in combinations(region, 2)]
            edges |= set(rng.sample(pairs, 2 * len(region) - 2))
        non_edges = [e for e in combinations(range(n), 2) if e not in edges]
        edges |= set(rng.sample(non_edges, rng.randint(0, 2 * n - 3 - len(edges))))
        g = Graph(n, frozenset(edges))
        assert g.m <= 2 * n - 3
        witness = _first_witness(n, g.sorted_edges)
        report = pebble_sparsity(g)
        assert not report.is_sparse and report.witness == witness

        place = g.degree_order
        by_degree = sorted(g.edges, key=lambda e: sorted((place[e[0]], place[e[1]])))
        elsewhere += _first_witness(n, by_degree) != witness
        isolated += len({x for e in g.edges for x in e}) < n
    assert elsewhere >= 20 and isolated >= 10


def _plain_sorted_game(g):
    # A plain (2,3)-pebble game over the sorted edges with depth-first
    # searches, independent of PebbleGame: the vertices reachable from the
    # first rejected edge's ends, or None when it accepts every edge.
    pebbles = [2] * g.n
    out = [[] for _ in range(g.n)]

    def pull(x, ends, seen):
        for y in out[x]:
            if y not in seen:
                seen.add(y)
                if pebbles[y] and y not in ends:
                    pebbles[y] -= 1
                elif not pull(y, ends, seen):
                    continue
                out[x].remove(y)
                out[y].append(x)
                return True
        return False

    for u, v in g.sorted_edges:
        while pebbles[u] + pebbles[v] < 4:
            for x in (u, v):
                if pebbles[x] < 2 and pull(x, (u, v), {x}):
                    pebbles[x] += 1
                    break
            else:
                region, stack = {u, v}, [u, v]
                while stack:
                    for y in out[stack.pop()]:
                        if y not in region:
                            region.add(y)
                            stack.append(y)
                return tuple(sorted(region))
        pebbles[v] -= 1
        out[v].append(u)
    return None


def _planted(rng, r, n):
    # A tight graph on r vertices with three more edges inside it, grown to
    # n vertices by hanging each new vertex on two earlier ones, with three
    # of those edges left out: m = 2n - 3, labels shuffled.
    inside = set(fast_tight_symgraph(rng.randrange(100), r).graph.edges)
    non_edges = [e for e in combinations(range(r), 2) if e not in inside]
    inside |= set(rng.sample(non_edges, 3))
    hung = [(a, x) for x in range(r, n) for a in rng.sample(range(x), 2)]
    for e in rng.sample(hung, 3):
        hung.remove(e)
    perm = rng.sample(range(n), n)
    return Graph(n, frozenset(edge(perm[u], perm[v]) for u, v in inside | set(hung)))


def test_witness_matches_a_plain_sorted_game_on_swapped_and_planted_graphs():
    rng = random.Random(2024)
    graphs = []
    for n in (30, 90, 150, 300):
        for seed in range(8):
            graphs.append(perturb_edge_swap(rng, fast_tight_symgraph(seed, n)).graph)
        for _ in range(2):
            graphs.append(_planted(rng, 3 * rng.randint(3, n // 9), n))
    failing = 0
    for g in graphs:
        assert g.m == 2 * g.n - 3
        witness = _plain_sorted_game(g)
        report = pebble_sparsity(g)
        assert report.is_sparse == (witness is None)
        assert report.witness == witness
        failing += witness is not None
    assert failing >= 20


def _with_non_edges(rng, g, count):
    pairs = [e for e in combinations(range(g.n), 2) if e not in g.edges]
    return Graph(g.n, g.edges | frozenset(rng.sample(pairs, count)))


def _spread(rng, g, extra):
    # g relabeled onto ``extra`` more vertices, which lie on no edge
    perm = rng.sample(range(g.n + extra), g.n)
    return Graph(g.n + extra, frozenset(edge(perm[u], perm[v]) for u, v in g.edges))


def test_witness_matches_a_plain_sorted_game_on_overbraced_and_clique_graphs():
    # Beyond 2n' - 3 edges the game plays only the first 2n' - 2 sorted
    # edges, in degree order, and walks that game down to the sorted prefix
    # before the first rejection. A clique on the lowest labels puts that
    # rejection within its first few edges, while the degree order plays
    # the clique last, so the walk goes a long way down.
    rng = random.Random(2008)
    graphs = []
    for n in (30, 90, 150, 300):
        for seed in range(3):
            sg = fast_tight_symgraph(seed, n)
            graphs += [_with_non_edges(rng, sg.graph, count) for count in (1, 3, 10)]
            graphs.append(add_non_edge_orbit(rng, sg).graph)
    for c in (5, 8, 12):
        for n in (c + 4, 45):
            graphs += [clique_with_tail(rng, c, n, hung) for hung in (False, True)]
    graphs += [_spread(rng, g, rng.randint(1, 4)) for g in graphs[::3]]
    failing = 0
    for g in graphs:
        witness = _plain_sorted_game(g)
        report = pebble_sparsity(g)
        assert report.is_sparse == (witness is None)
        assert report.witness == witness
        failing += witness is not None
    assert failing >= 80


def test_one_game_on_the_first_sorted_edges(monkeypatch):
    # A failing graph is decided by one game that is offered only the first
    # 2n' - 2 sorted edges, and that ends holding the sorted prefix before
    # the first rejection.
    games = []
    offered = set()
    init, insert = PebbleGame.__init__, PebbleGame.insert_edge

    def counted_init(self, n):
        games.append(self)
        init(self, n)

    def recorded_insert(self, u, v):
        offered.add(edge(u, v))
        return insert(self, u, v)

    monkeypatch.setattr(PebbleGame, "__init__", counted_init)
    monkeypatch.setattr(PebbleGame, "insert_edge", recorded_insert)
    rng = random.Random(11)
    for g in (
        add_non_edge_orbit(rng, fast_tight_symgraph(3, 90)).graph,
        _with_non_edges(rng, fast_tight_symgraph(4, 60).graph, 10),
        clique_with_tail(rng, 12, 60, True),
        perturb_edge_swap(rng, fast_tight_symgraph(5, 90)).graph,
    ):
        games.clear()
        offered.clear()
        report = pebble_sparsity(g)
        assert not report.is_sparse and len(games) == 1
        assert offered <= set(g.sorted_edges[: 2 * g.n - 2])
        held = {edge(x, y) for x, ys in enumerate(report.game.out) for y in ys}
        assert held == set(g.sorted_edges[: len(held)])
        assert _plain_sorted_game(Graph(g.n, frozenset(g.sorted_edges[: len(held) + 1]))) == report.witness


@pytest.mark.parametrize(
    "offer, message",
    [
        (1, "accepted though the game spans it"),
        (2, "no pending edge takes the place"),
        (3, "does not hold the sorted prefix"),
    ],
)
def test_a_walk_off_its_invariant_raises(monkeypatch, offer, message):
    # The degree-ordered game on these 8 edges rejects (1, 4), whose circuit
    # is every edge. The walk's first offer, (1, 4) again, must be rejected,
    # since the game holds a basis. The walk then deletes the circuit's top
    # edge (3, 4), so its second offer, (1, 4), must be accepted in its
    # place. Its third offer is (3, 4), the first sorted rejection, which
    # must be rejected. A planted flip of any of them raises rather than
    # giving a witness.
    g = Graph(5, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}))
    assert pebble_sparsity(g).witness == (0, 1, 2, 3, 4)
    insert = PebbleGame.insert_edge
    offers = []

    def flipped(self, u, v):
        offers.append((u, v))
        accepted = insert(self, u, v)
        return not accepted if len(offers) == 8 + offer else accepted

    monkeypatch.setattr(PebbleGame, "insert_edge", flipped)
    with pytest.raises(InternalInvariantBroken, match=message):
        pebble_sparsity(g)
    assert offers[8 : 8 + offer] == [(1, 4), (1, 4), (3, 4)][:offer]


def test_every_flipped_offer_of_the_walk_is_caught(monkeypatch):
    # An offer of the walk returning the wrong answer leaves the game off
    # the walk's invariant; each one, planted alone, raises.
    rng = random.Random(5)
    graphs = [
        clique_with_tail(rng, 8, 14, True),
        add_non_edge_orbit(rng, fast_tight_symgraph(0, 30)).graph,
        perturb_edge_swap(random.Random(0), fast_tight_symgraph(0, 30)).graph,
    ]
    insert = PebbleGame.insert_edge
    calls = flip = 0

    def flipped(self, u, v):
        nonlocal calls
        calls += 1
        accepted = insert(self, u, v)
        return not accepted if calls == flip else accepted

    monkeypatch.setattr(PebbleGame, "insert_edge", flipped)
    planted = 0
    for g in graphs:
        calls = flip = 0
        pebble_sparsity(g)
        total = calls
        for flip in range(min(g.m, 2 * g.n - 2) + 1, total + 1):
            calls = 0
            with pytest.raises(InternalInvariantBroken):
                pebble_sparsity(g)
            planted += 1
    assert planted >= 15


def test_gather_takes_the_nearest_free_pebble():
    # r -> a, b; a -> p, e, each holding 2 free pebbles; b -> c, d, holding
    # none; c and d each point to two leaves with free pebbles. The search
    # must take a depth-2 pebble through a and leave every depth-3 leaf alone.
    r, a, b, p, e, c, d = range(7)
    leaves = [7, 8, 9, 10]
    z = 11
    game = PebbleGame(12)
    for x, targets in ((r, [a, b]), (a, [p, e]), (b, [c, d]), (c, leaves[:2]), (d, leaves[2:])):
        game.out[x] = list(targets)
        game.pebbles[x] = 0
    assert all(game.pebbles[x] + len(game.out[x]) == 2 for x in range(12))

    assert game._gather(r, r, z)
    assert game.pebbles[r] == 1 and game.pebbles[p] == 1
    # the path r -> a -> p is reversed to p -> a -> r
    assert game.out[p] == [a] and game.out[a] == [e, r] and game.out[r] == [b]
    assert all(game.pebbles[x] == 2 and not game.out[x] for x in leaves)
    assert game.out[c] == leaves[:2] and game.out[d] == leaves[2:]
    assert all(game.pebbles[x] + len(game.out[x]) == 2 for x in range(12))


def test_the_later_endpoint_pays_and_searches_stay_few(monkeypatch):
    # An accepted edge (u, v) is paid for by v, the end whose edges come
    # later in the game's order, so the next edge at u finds its two pebbles
    # without a search. The deciding game plays this graph in degree order,
    # where that takes 6855 searches; in sorted order it took 6641, and
    # paying with u there took 10214. The count is exact: the game is
    # deterministic.
    game = PebbleGame(3)
    assert game.insert_edge(0, 1) and game.out == [[], [0], []]
    assert game.pebbles == [2, 1, 2]
    calls = 0
    gather = PebbleGame._gather

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return gather(self, *args)

    monkeypatch.setattr(PebbleGame, "_gather", counted)
    assert pebble_sparsity(fast_tight_symgraph(11, 3000).graph).is_tight
    assert calls <= 7000


def _searches(monkeypatch, run, *args):
    # run(*args), the pebble searches it makes and the vertices they visit
    # in all
    searches = visits = 0
    gather = PebbleGame._gather

    def counted(self, *args):
        nonlocal searches, visits
        found = gather(self, *args)
        searches += 1
        visits += self._visited.count(self._stamp)
        return found

    with monkeypatch.context() as patched:
        patched.setattr(PebbleGame, "_gather", counted)
        result = run(*args)
    return result, searches, visits


def _search_visits(monkeypatch, g):
    # pebble_sparsity(g) and the vertices its searches visit in all
    report, _, visits = _searches(monkeypatch, pebble_sparsity, g)
    return report, visits


def test_degree_ordered_searches_visit_few_vertices(monkeypatch):
    # In degree order an edge joins low-degree vertices, whose searches
    # meet few paths: the searches of this graph's game visit 11199 vertices
    # in all, where sorted order visited 63835.
    report, visits = _search_visits(monkeypatch, fast_tight_symgraph(11, 960).graph)
    assert report.is_tight
    assert visits <= 12500


def test_overbraced_searches_visit_few_vertices(monkeypatch):
    # Three edges over 2n - 3: the game plays the first 2n - 2 sorted edges
    # in degree order and walks down to the first sorted rejection. Its
    # searches visit 14306 vertices in all, where the whole sorted game
    # visited 60497.
    g = add_non_edge_orbit(random.Random(0), fast_tight_symgraph(11, 960)).graph
    report, visits = _search_visits(monkeypatch, g)
    assert not report.is_sparse
    assert visits <= 15000


@pytest.mark.parametrize("overbraced, most", [(False, 59300), (True, 75700)], ids=["tight", "overbraced"])
def test_searches_at_the_check_size_visit_few_vertices(monkeypatch, overbraced, most):
    # The check command's benchmark size, n = 3000: the searches visit 53886
    # vertices on the tight graph and 68849 with one edge orbit over it. The
    # game is deterministic, so the counts are exact; the bounds leave 10 %.
    sg = fast_tight_symgraph(11, 3000)
    if overbraced:
        sg = add_non_edge_orbit(random.Random(3000), sg)
    report, visits = _search_visits(monkeypatch, sg.graph)
    assert report.is_sparse is not overbraced
    assert visits <= most


def test_extraction_searches_at_the_check_size_visit_few_vertices(monkeypatch):
    # Extraction at n = 3000, its graph's deciding game played first: the
    # reduction's own games make 3816 searches, which visit 372007 vertices.
    # Both counts are exact, as the games are deterministic; the bounds
    # leave 10 %, so extraction cannot come to search more unseen.
    sg = fast_tight_symgraph(11, 3000)
    assert sg.graph.sparsity.is_tight
    seq, searches, visits = _searches(monkeypatch, extract_sequence, sg)
    assert len(seq.moves) == 999
    assert searches <= 4200
    assert visits <= 409200


def test_extraction_searches_where_their_growth_shows(monkeypatch):
    # Extraction at n = 12000, where each search visits more vertices than
    # at n = 3000 (334 against 97 on average): the reduction's games make
    # 16358 searches, which visit 5469978 vertices. The counts are exact;
    # the bounds leave 10 %, so the growth cannot come to be worse unseen.
    sg = fast_tight_symgraph(11, 12000)
    assert sg.graph.sparsity.is_tight
    seq, searches, visits = _searches(monkeypatch, extract_sequence, sg)
    assert len(seq.moves) == 3999
    assert searches <= 18000
    assert visits <= 6017000
