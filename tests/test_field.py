import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from c3rig import ExactMatrix, QSqrt3, exact_rank

small_rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
elements = st.builds(QSqrt3, small_rationals, small_rationals)


def test_conjugate_product():
    x = QSqrt3(1, 1) * QSqrt3(1, -1)
    assert x == QSqrt3(-2)


def test_inverse_of_sqrt3():
    assert QSqrt3(0, 1).inverse() == QSqrt3(0, Fraction(1, 3))


def test_exact_cancellation():
    assert (QSqrt3(Fraction(1, 2)) + QSqrt3() - QSqrt3(Fraction(1, 2))).is_zero


def test_zero_iff_both_components_zero():
    assert not QSqrt3(0, Fraction(1, 10**9)).is_zero
    assert not QSqrt3(Fraction(1, 10**9), 0).is_zero
    assert QSqrt3(0, 0).is_zero


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QSqrt3(1) / QSqrt3()


def test_float_view():
    assert float(QSqrt3(1, 1)) == pytest.approx(2.7320508075688772)


def test_json_dict():
    assert QSqrt3(Fraction(-1, 2), Fraction(3)).as_json_dict() == {
        "a": "-1/2",
        "b": "3/1",
    }


def test_int_coercion():
    assert QSqrt3(2) + 1 == QSqrt3(3)
    assert 2 * QSqrt3(0, 1) == QSqrt3(0, 2)
    assert 1 / QSqrt3(0, 1) == QSqrt3(0, Fraction(1, 3))


@given(elements, elements, elements)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(elements)
def test_multiplicative_inverse(x):
    if not x.is_zero:
        assert x * x.inverse() == QSqrt3(1)


def _matrix(rows):
    return ExactMatrix.from_rows([[_q(x) for x in row] for row in rows])


def _q(x):
    if isinstance(x, QSqrt3):
        return x
    if isinstance(x, tuple):
        return QSqrt3(Fraction(x[0]), Fraction(x[1]))
    return QSqrt3(Fraction(x))


def test_rank_identity():
    assert exact_rank(_matrix([[1, 0], [0, 1]])) == 2


def test_rank_proportional_rows():
    m = _matrix([[(1, 0), (0, 1)], [(2, 0), (0, 2)]])
    assert exact_rank(m) == 1


def test_rank_zero_matrix():
    assert exact_rank(_matrix([[0, 0], [0, 0]])) == 0


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
        m = _matrix(ints)
        expected = _bareiss_rank(ints)
        assert expected == _fraction_rank(ints)
        assert exact_rank(m) == expected


def test_rank_invariances():
    rng = random.Random(77)
    for _ in range(40):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        rows = [
            [
                QSqrt3(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                for _ in range(nc)
            ]
            for _ in range(nr)
        ]
        m = ExactMatrix.from_rows(rows)
        r = exact_rank(m)
        assert exact_rank(ExactMatrix.from_rows([list(col) for col in zip(*rows)])) == r
        scale = QSqrt3(Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3)))
        scaled = ExactMatrix.from_rows(
            [[scale * x for x in row] for row in rows]
        )
        assert exact_rank(scaled) == r
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert exact_rank(ExactMatrix.from_rows(shuffled)) == r


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, ((QSqrt3(1),),))


def test_rank_sees_through_tiny_perturbations():
    # a floating-point rank with any tolerance would collapse these rows
    eps = Fraction(1, 10**40)
    nearly = _matrix([[1, 1], [1, 1 + eps]])
    assert exact_rank(nearly) == 2
    truly = _matrix([[1, 1], [1, 1]])
    assert exact_rank(truly) == 1
    # same story against an irrational direction
    m = ExactMatrix.from_rows(
        [
            [QSqrt3(1), QSqrt3(0, 1)],
            [QSqrt3(0, 1), QSqrt3(3, eps)],
        ]
    )
    assert exact_rank(m) == 2
    dependent = ExactMatrix.from_rows(
        [
            [QSqrt3(1), QSqrt3(0, 1)],
            [QSqrt3(0, 1), QSqrt3(3)],
        ]
    )
    assert exact_rank(dependent) == 1
