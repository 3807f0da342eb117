import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from c3rig import (
    exact_rank,
    numeric_isostatic_check,
    rigidity_matrix,
    symmetric_generic_positions,
)
from c3rig import field
from c3rig.field import _P, PartialElimination
from tests.corpus import (
    acceptance_corpus,
    k3,
    k33,
    octahedron,
    prism,
    random_tight_symgraph,
    rational_matrix,
)
from tests.test_geometry import _sympy_cartesian_rank


def test_rank_identity():
    assert exact_rank(rational_matrix([[1, 0], [0, 1]])) == 2


def test_rank_proportional_rows():
    m = rational_matrix([[1, Fraction(3, 2)], [2, 3]])
    assert exact_rank(m) == 1


def test_rank_zero_matrix():
    assert exact_rank(rational_matrix([[0, 0], [0, 0]])) == 0


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
        m = rational_matrix(ints)
        expected = _bareiss_rank(ints)
        assert expected == _fraction_rank(ints)
        assert exact_rank(m) == expected


def test_rank_invariances():
    rng = random.Random(77)
    for _ in range(40):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ]
        m = rational_matrix(rows)
        r = exact_rank(m)
        assert exact_rank(rational_matrix([list(col) for col in zip(*rows)])) == r
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3))
        scaled = rational_matrix([[scale * x for x in row] for row in rows])
        assert exact_rank(scaled) == r
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert exact_rank(rational_matrix(shuffled)) == r


def test_rank_sees_through_tiny_perturbations():
    # a floating-point rank with any tolerance would collapse these rows
    eps = Fraction(1, 10**40)
    nearly = rational_matrix([[1, 1], [1, 1 + eps]])
    assert exact_rank(nearly) == 2
    truly = rational_matrix([[1, 1], [1, 1]])
    assert exact_rank(truly) == 1
    # same story at the size of generic coordinates: the determinant is
    # 2^62 - (2^62 - 1) = 1, and 2^62 - 1 rounds to 2^62 as a double
    big = 2**31
    assert exact_rank(rational_matrix([[big, big + 1], [big - 1, big]])) == 2
    assert exact_rank(rational_matrix([[big, big + 1], [2 * big, 2 * big + 2]])) == 1


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
        [[Fraction(1, _P)]],  # no image
        [[1, 2], [3, 6 + _P]],  # determinant P
    ],
)
def test_exact_rank_falls_back_when_the_image_is_deficient(rows):
    m = rational_matrix(rows)
    full = len(rows)
    image_rank = m.modular_rank()
    assert image_rank is None or image_rank < full
    assert field._fraction_free_rank(m.integer_rows()) == full
    assert exact_rank(m) == full


def test_exact_rank_of_a_deficient_matrix_without_an_image():
    m = rational_matrix([[Fraction(1, _P), Fraction(2, _P)], [1, 2]])
    assert m.modular_rank() is None
    assert exact_rank(m) == 1


def test_full_rank_never_runs_the_exact_elimination(monkeypatch):
    sg = random_tight_symgraph(7, 60)
    matrix = rigidity_matrix(sg.graph, symmetric_generic_positions(sg, 0))

    def forbidden(m):
        raise AssertionError("exact elimination ran on a matrix of full rank")

    monkeypatch.setattr(field, "_fraction_free_rank", forbidden)
    assert exact_rank(matrix) == 117


def test_overbraced_placement_proves_its_rank_without_exact_elimination(monkeypatch):
    # the octahedron has 12 bars but rank 9 = 2n - 3: only the ceiling the
    # placement check passes lets the image mod P prove that rank
    sg = octahedron()
    placement = symmetric_generic_positions(sg, 0)

    def forbidden(m):
        raise AssertionError("exact elimination ran on a matrix of full rank")

    monkeypatch.setattr(field, "_fraction_free_rank", forbidden)
    verdict = numeric_isostatic_check(sg, placement)
    assert (verdict.rank, verdict.target, verdict.edge_count) == (9, 9, 12)
    assert not verdict.isostatic and verdict.flex_dim == 0
    matrix = rigidity_matrix(sg.graph, placement)
    assert exact_rank(matrix, 9) == 9
    with pytest.raises(AssertionError):
        exact_rank(matrix)


def _integer_images(rows):
    # each row of integers as a sparse row mod P
    return [{c: x % _P for c, x in enumerate(row) if x % _P} for row in rows]


def test_partial_elimination_ranks_like_its_matrix():
    rng = random.Random(5)

    def refuse():
        raise AssertionError("exact matrix built for a full image")

    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        m = rational_matrix(rows)
        expected = field._fraction_free_rank(m.integer_rows())
        split = rng.randint(0, nr)
        images = _integer_images(rows)
        pivots = {}
        field._eliminate(images[:split], pivots)
        exact = refuse if expected == min(nr, nc) else m.integer_rows
        assert exact_rank(PartialElimination(nr, nc, pivots, images[split:], exact)) == expected


def test_partial_elimination_falls_back_on_a_deficit_or_a_missing_image():
    rows = [[1, 2], [3, 6 + _P]]
    m = rational_matrix(rows)
    pivots = {}
    field._eliminate(_integer_images(rows)[:1], pivots)
    deficient = PartialElimination(2, 2, pivots, _integer_images(rows)[1:], m.integer_rows)
    assert deficient.modular_rank() == 1
    assert exact_rank(deficient) == 2
    assert exact_rank(PartialElimination(2, 2, None, [], m.integer_rows)) == 2
    assert exact_rank(PartialElimination(2, 2, {}, None, m.integer_rows)) == 2


def test_exact_rank_matches_exact_elimination_on_acceptance_corpus():
    deficient = 0
    for sg in acceptance_corpus():
        m = rigidity_matrix(sg.graph, symmetric_generic_positions(sg, 0))
        expected = field._fraction_free_rank(m.integer_rows())
        assert exact_rank(m) == expected
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
        m = rational_matrix(rows)
        expected = field._fraction_free_rank(m.integer_rows())
        assert expected <= len(base)
        assert exact_rank(m) == expected


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
        assert exact_rank(m) == expected
        ranks.add((expected, min(m.rows, m.cols)))
    assert (9, 12) in ranks  # the octahedron's deficit takes the fallback
