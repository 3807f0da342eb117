import importlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from c3rig import (
    exact_rank,
    laman_check,
    numeric_isostatic_check,
    rigidity_matrix,
    symmetric_generic_positions,
)
from c3rig import field, geometry
from c3rig.field import _P, _W, PartialElimination
from tests.corpus import (
    acceptance_corpus,
    cone_laman_counts,
    edge_orbit_graphs,
    fraction_free_rank,
    integer_rows,
    k3,
    k33,
    octahedron,
    pair_rows,
    prism,
    proven_rank,
    quotient_gain_graph,
    random_tight_symgraph,
    rational_matrix,
)
from tests.test_geometry import _sympy_cartesian_rank


def _ranked(rows, ceiling=None):
    # the reference rank of rational rows, and exact_rank's answer, checked
    # by ``proven_rank`` to be that rank, or None on a shortfall mod P
    expected = fraction_free_rank(integer_rows(rows))
    return expected, proven_rank(rational_matrix(rows), expected, ceiling)


def test_rank_identity():
    assert exact_rank(rational_matrix([[1, 0], [0, 1]])) == 2


def test_rank_proportional_rows():
    # a deficit proves nothing mod P: only the reference finds the rank
    assert _ranked([[1, Fraction(3, 2)], [2, 3]]) == (1, None)
    assert _ranked([[1, Fraction(3, 2)], [2, 3]], 1) == (1, 1)


def test_rank_zero_matrix():
    assert _ranked([[0, 0], [0, 0]]) == (0, None)
    assert _ranked([[0, 0], [0, 0]], 0) == (0, 0)


def _bareiss_rank(rows):
    # fraction-free integer elimination; independent of exact_rank
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, nr):
            f = rows[r][col]
            rows[r] = [
                (p * rows[r][c] - f * rows[rank][c]) // prev for c in range(nc)
            ]
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def _fraction_rank(rows):
    # plain rational elimination; a second independent reference
    rows = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(rows), len(rows[0])
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, nr):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [rows[r][c] - f * rows[rank][c] for c in range(nc)]
        rank += 1
    return rank


def test_rank_agrees_with_integer_oracles():
    rng = random.Random(2024)
    for _ in range(120):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        ints = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        expected = _bareiss_rank(ints)
        assert expected == _fraction_rank(ints)
        assert _ranked(ints)[0] == expected


def test_rank_invariances():
    rng = random.Random(77)
    for _ in range(40):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ]
        r, proven = _ranked(rows)
        assert _ranked([list(col) for col in zip(*rows)])[0] == r
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3))
        assert _ranked([[scale * x for x in row] for row in rows]) == (r, proven)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert _ranked(shuffled) == (r, proven)


def test_rank_sees_through_tiny_perturbations():
    # a floating-point rank with any tolerance would collapse these rows
    eps = Fraction(1, 10**40)
    assert _ranked([[1, 1], [1, 1 + eps]]) == (2, 2)
    assert _ranked([[1, 1], [1, 1]]) == (1, None)
    # same story at the size of generic coordinates: the determinant is
    # 2^62 - (2^62 - 1) = 1, and 2^62 - 1 rounds to 2^62 as a double
    big = 2**31
    assert _ranked([[big, big + 1], [big - 1, big]]) == (2, 2)
    assert _ranked([[big, big + 1], [2 * big, 2 * big + 2]]) == (1, None)


def _is_prime(n):
    # Deterministic Miller-Rabin: these bases decide every n < 3.3e24.
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert n < 3 * 10**24
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modular_prime(monkeypatch):
    # the primality test itself: small primes, Carmichael numbers, and a
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert [k for k in range(50) if _is_prime(k)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
    ]
    assert not any(_is_prime(k) for k in (561, 1105, 3215031751, (2**31 - 1) * (2**19 - 1)))
    assert _is_prime(2**61 - 1)

    assert _is_prime(_P)
    # one CPython digit, and a cube root of unity in F_P: the largest such prime
    assert _P < 2**30 and _P % 3 == 1
    assert _W != 1 and pow(_W, 3, _P) == 1
    assert not any(_is_prime(k) for k in range(_P + 3, 2**30, 3))
    # the benchmark checks realize reports by rank mod its own primes; a
    # different prime here keeps that check independent of exact_rank
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    assert _P not in importlib.import_module("checker").PRIMES


@pytest.mark.parametrize(
    "rows",
    [
        [[_P]],  # image 0
        [[Fraction(2 * _P, 3)]],  # a numerator P divides maps to 0 too
        [[1, 2], [3, 6 + _P]],  # determinant P
    ],
)
def test_exact_rank_gives_no_rank_when_only_the_image_is_deficient(rows):
    # full rank whose image mod P falls short: exact_rank gives no rank,
    # and the reference shows the deficit is P's, not the matrix's
    m = rational_matrix(rows)
    full = len(rows)
    image_rank = m.modular_rank()
    assert image_rank < full
    assert fraction_free_rank(integer_rows(rows)) == full
    assert exact_rank(m) is None
    assert _ranked(rows) == (full, None)


def test_exact_rank_of_a_deficient_matrix_without_an_image():
    assert _ranked([[Fraction(1, _P), Fraction(2, _P)], [1, 2]]) == (1, None)


def test_full_rank_is_proven_by_the_rank_mod_p():
    # the rank mod P proves full rank on its own
    sg = random_tight_symgraph(7, 60)
    matrix = rigidity_matrix(sg.graph, symmetric_generic_positions(sg, 0))
    assert exact_rank(matrix) == 117 == matrix.pivot_rank


def test_overbraced_placement_proves_its_rank_against_the_ceiling():
    # the octahedron has 12 bars but rank 9 = 2n - 3: only the ceiling the
    # placement check passes lets the image mod P prove that rank
    sg = octahedron()
    placement = symmetric_generic_positions(sg, 0)
    verdict = numeric_isostatic_check(sg, placement)
    assert (verdict.rank, verdict.target, verdict.edge_count) == (9, 9, 12)
    assert not verdict.isostatic and verdict.flex_dim == 0
    matrix = rigidity_matrix(sg.graph, placement)
    assert exact_rank(matrix, 9) == 9
    assert exact_rank(matrix) is None


def _integer_images(rows):
    # each row of integers as a sparse row mod P
    return [{c: x % _P for c, x in enumerate(row) if x % _P} for row in rows]


def test_partial_elimination_ranks_like_its_matrix():
    rng = random.Random(5)
    answers = set()
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        expected = fraction_free_rank(integer_rows(rows))
        split = rng.randint(0, nr)
        images = _integer_images(rows)
        pivots = {}
        found = field._eliminate(images[:split], pivots, nc)
        partial = PartialElimination(nr, nc, pivots, images[split:], nc, found)
        proven = proven_rank(partial, expected)
        # ranking again, with the largest ceiling the rank allows, proves it
        assert exact_rank(partial, expected) == expected
        answers.add(proven is None)
    assert answers == {True, False}


def test_partial_elimination_gives_no_rank_on_a_deficit_mod_p():
    # a deficit mod P that the matrix does not have: no rank, whatever the
    # ceiling, as the rank mod P stays below it
    rows = [[1, 2], [3, 6 + _P]]
    pivots = {}
    found = field._eliminate(_integer_images(rows)[:1], pivots, 2)
    deficient = PartialElimination(2, 2, pivots, _integer_images(rows)[1:], 2, found)
    assert deficient.modular_rank() == 1
    assert exact_rank(deficient) is None and exact_rank(deficient, 2) is None
    assert fraction_free_rank(integer_rows(rows)) == 2


def _dense_pivot_columns(rows, cols):
    # Gauss-Jordan elimination mod P on dense rows, column by column: the
    # leading columns of the reduced echelon form, which the row span fixes
    matrix = [[row.get(c, 0) for c in range(cols)] for row in rows]
    found = []
    for c in range(cols):
        r = len(found)
        k = next((k for k in range(r, len(matrix)) if matrix[k][c]), None)
        if k is None:
            continue
        matrix[r], matrix[k] = matrix[k], matrix[r]
        inv = pow(matrix[r][c], -1, _P)
        matrix[r] = [x * inv % _P for x in matrix[r]]
        for k, other in enumerate(matrix):
            if k != r and other[c]:
                matrix[k] = [(x - other[c] * y) % _P for x, y in zip(other, matrix[r])]
        found.append(c)
    return found


def _counted_rank(columns, twice_from):
    return sum(1 if c < twice_from else 2 for c in columns)


@st.composite
def _sparse_rows(draw):
    # sparse rows mod P whose leading columns come from a few, so rows meet
    # pivots, some of them combinations of earlier rows, and a split point:
    # the rows before it are eliminated first
    cols = draw(st.integers(1, 8))
    value = st.one_of(st.integers(1, 3), st.integers(1, _P - 1))
    leads = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        if rows and draw(st.booleans()):
            row = {}
            for base in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                k = draw(value)
                for c, x in base.items():
                    row[c] = (row.get(c, 0) + k * x) % _P
            row = {c: x for c, x in row.items() if x}
        else:
            lead = draw(st.sampled_from(leads))
            row = {lead: draw(value)}
            for c in draw(st.lists(st.integers(lead, cols - 1), max_size=3)):
                row[c] = draw(value)
        rows.append(row)
    twice_from = draw(st.one_of(st.integers(0, cols - 1), st.just(cols)))
    return cols, rows, twice_from, draw(st.integers(0, len(rows)))


@settings(max_examples=300, deadline=None)
@given(_sparse_rows())
def test_eliminate_ranks_like_dense_elimination_and_changes_no_row(case):
    # two calls on one pivot dict and one inverse memo: the pivots have the
    # dense elimination's leading columns, the rank counts them, no row
    # given changes, and popping the pivots the second call added gives
    # back the first call's dict, its rows unchanged
    cols, rows, twice_from, split = case
    given = [dict(row) for row in rows]
    pivots, inverses = {}, {}
    first = field._eliminate(rows[:split], pivots, twice_from, inverses)
    kept = list(pivots.items())
    kept_rows = [dict(row) for _, row in kept]
    second = field._eliminate(rows[split:], pivots, twice_from, inverses)
    assert rows == given
    columns = _dense_pivot_columns(rows, cols)
    assert sorted(pivots) == columns
    assert all(min(row) == c for c, row in pivots.items())
    assert first == _counted_rank(_dense_pivot_columns(rows[:split], cols), twice_from)
    assert first + second == _counted_rank(columns, twice_from)
    assert all(lead * inv % _P == 1 for lead, inv in inverses.items())
    for _ in range(len(pivots) - len(kept)):
        pivots.popitem()
    assert list(pivots.items()) == kept
    assert [row for _, row in kept] == kept_rows


def test_round_pivots_share_a_row_across_nodes_and_change_none():
    # Over the rounds 1..7, R's versions 2..6 and 7..7 put the one dict in
    # the tree nodes of round 2, rounds 3-4, rounds 5-6 and round 7. Under
    # S (rounds 1-4) it reduces, on a copy; from round 5 on it is a pivot,
    # stored itself, and 2R (round 5) reduces to zero against it. Each
    # round ranks as its rows alone, and no version changes on the walk.
    s, r, u = {0: 1, 1: 2}, {0: 3, 2: 5}, {1: 1, 3: 1}
    versions = [(s, 1, 4), (r, 2, 6), (r, 7, 7), ({0: 6, 2: 10}, 5, 5), (u, 1, 7)]
    given = [dict(row) for row, _, _ in versions]
    for twice_from in (2, 4):
        walked = []
        for j, pivots, rank in field._round_pivots(versions, 1, 7, twice_from):
            assert [dict(row) for row, _, _ in versions] == given
            rows = [dict(row) for row, a, b in versions if a <= j <= b]
            alone = field._eliminate(rows, {}, twice_from)
            assert rank == alone == _counted_rank(_dense_pivot_columns(rows, 4), twice_from)
            assert (pivots[0] is r) == (j >= 5) and (pivots[0] is s) == (j <= 4)
            walked.append(j)
        assert walked == list(range(1, 8))


def test_pivots_from_twice_from_on_count_twice():
    # pivots in columns 0 and 2; the one from column 2 on counts twice, a
    # bound of 3 on the rank that proves full rank only for a matrix of 3
    rows = [{0: 1, 1: 2}, {2: 5}]
    m = PartialElimination(3, 4, {}, [dict(r) for r in rows], 2)
    assert m.modular_rank() == 3 and m.rest == [] and m.modular_rank() == 3
    assert PartialElimination(2, 4, {}, [dict(r) for r in rows], 4).modular_rank() == 2


def test_exact_rank_matches_exact_elimination_on_acceptance_corpus():
    # the placement check proves every rank here, deficits included, by
    # the matroid ceiling; exact_rank alone proves the full ones
    deficient = 0
    for sg in acceptance_corpus():
        g = sg.graph
        placement = symmetric_generic_positions(sg, 0)
        m = rigidity_matrix(g, placement)
        pos = placement.positions
        differences = [geometry.v_sub(pos[u], pos[v]) for u, v in g.sorted_edges]
        expected = fraction_free_rank(pair_rows(g, differences.__getitem__))
        proven_rank(m, expected)
        assert numeric_isostatic_check(sg, placement).rank == expected
        deficient += expected < min(m.rows, m.cols)
    assert 0 < deficient < len(acceptance_corpus())


def test_exact_rank_matches_exact_elimination_with_planted_dependent_rows():
    rng = random.Random(12)

    def element(k):
        return Fraction(rng.randint(-k, k), rng.randint(1, k))

    for _ in range(200):
        nc = rng.randint(1, 7)
        base = [[element(4) for _ in range(nc)] for _ in range(rng.randint(1, 5))]
        rows = list(base)
        for _ in range(rng.randint(1, 3)):
            coeffs = [element(2) for _ in base]
            rows.append(
                [sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(nc)]
            )
        rng.shuffle(rows)
        expected, _ = _ranked(rows)
        assert expected <= len(base)


def test_exact_rank_matches_sympy_on_small_rigidity_matrices():
    # sympy ranks the Cartesian matrix at the pairs' Cartesian points,
    # so this check shares no row formula with the pair matrix it checks
    graphs = [k3(), prism(), k33(), octahedron()]
    graphs += [sg for sg in acceptance_corpus() if sg.graph.n <= 6]
    ranks = set()
    for sg in graphs:
        placement = symmetric_generic_positions(sg, 0)
        m = rigidity_matrix(sg.graph, placement)
        expected = _sympy_cartesian_rank(sg.graph, placement)
        proven_rank(m, expected)
        assert numeric_isostatic_check(sg, placement).rank == expected
        ranks.add((expected, min(m.rows, m.cols)))
    assert (9, 12) in ranks  # the octahedron's deficit needs a ceiling


def test_orbit_blocks_have_full_row_rank_exactly_under_the_cone_laman_counts():
    # Every graph of at least one edge orbit at n = 6 and n = 9, and every
    # 97th of seven edge orbits at n = 12: each of the orbit blocks B0 and
    # B1 at the seed-0 generic placement has full row rank mod P, one per
    # edge orbit, exactly when the quotient gain graph meets both cone-Laman
    # counts (Schulze and Tanigawa's phase-twisted orbit matrices; Malestein
    # and Theran's counts). The frame route proves its placement's rank
    # through these blocks alone. Up to n = 9 no balanced edge set can
    # exceed its count; at n = 12 four graphs fail that count alone.
    # The paper's theorem in quotient form, on the same graphs: the graph is
    # (2,3)-tight exactly when its quotient gain graph has 2|V0| - 1 edges
    # and meets both counts.
    held = {}
    tight = {n: [0, 0] for n in (6, 9, 12)}
    cases = [(n, k, 1) for n in (6, 9) for k in range(1, n * (n - 1) // 6 + 1)]
    for n, k, stride in cases + [(12, 7, 97)]:
        for sg in itertools.islice(edge_orbit_graphs(n, k), 0, None, stride):
            matrix = rigidity_matrix(sg.graph, symmetric_generic_positions(sg, 0), sg.action)
            assert matrix.twice_from < matrix.cols
            matrix.modular_rank()
            r0 = sum(c < matrix.twice_from for c in matrix.pivots)
            r1 = len(matrix.pivots) - r0
            v0, edges = quotient_gain_graph(sg)
            counts = cone_laman_counts(v0, edges)
            assert (r0 == r1 == k) if all(counts) else (r0 < k and r1 < k)
            key = (n < 12, *counts)
            held[key] = held.get(key, 0) + 1
            is_tight = laman_check(sg.graph)
            assert is_tight == (len(edges) == 2 * v0 - 1 and all(counts))
            tight[n][not is_tight] += 1
    assert held == {
        (True, True, True): 1487,
        (True, False, True): 2639,
        (False, True, True): 1304,
        (False, False, True): 451,
        (False, True, False): 4,
    }
    assert tight == {6: [10, 21], 9: [684, 3411], 12: [1304, 455]}
