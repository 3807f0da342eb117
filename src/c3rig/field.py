"""Exact arithmetic over Q(sqrt 3), and exact matrix rank over that field.

Rotation by 120 degrees has matrix entries -1/2 and +-sqrt(3)/2, so every
coordinate this package touches lives in the field of numbers a + b*sqrt(3)
with rational a, b. Since sqrt(3) is irrational, such a number is zero
exactly when a = b = 0, which is what makes zero-tolerance rank computation
possible.

``exact_rank`` first proves full rank through the image of the matrix modulo
a fixed prime P (a ring homomorphism, so the rank mod P never exceeds the
exact rank), full meaning the smaller side or a known ceiling on the rank;
only a deficit mod P falls back to exact fraction-free elimination over the
field. It ranks a dense ``ExactMatrix`` or a ``PartialElimination``, whose
rows are partly eliminated mod P already and which builds its exact matrix
only for that fallback.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class QSqrt3:
    """The number a + b*sqrt(3) with exact rational components."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        # Arithmetic hands over exact Fractions; only other rationals
        # (int, bool, Fraction subclasses) are re-wrapped.
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "QSqrt3 | None":
        if isinstance(value, QSqrt3):
            return value
        if isinstance(value, (int, Fraction)):
            return QSqrt3(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt3(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt3":
        # (a + b*sqrt3)^-1 = (a - b*sqrt3) / (a^2 - 3 b^2); the norm is
        # nonzero for nonzero inputs because sqrt(3) is irrational.
        norm = self.a * self.a - 3 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 3)")
        return QSqrt3(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return QSqrt3(-self.a, -self.b)

    # -- predicates and views --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT3

    def __repr__(self) -> str:
        return f"QSqrt3({self.a}, {self.b})"

    def as_json_dict(self) -> dict:
        return {
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "b": f"{self.b.numerator}/{self.b.denominator}",
        }


Q_ZERO = QSqrt3()


@dataclass(frozen=True)
class ExactMatrix:
    """A dense matrix over Q(sqrt 3), stored row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[QSqrt3, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")

    @classmethod
    def from_rows(cls, rows: list[list[QSqrt3]]) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(nrows, ncols, tuple(tuple(r) for r in rows))

    def modular_rank(self) -> int | None:
        return _modular_rank(self)

    def exact(self) -> "ExactMatrix":
        return self


def _integer_rows(m: ExactMatrix) -> list[list[tuple[int, int]]]:
    # Scale each row by the lcm of its denominators; row scaling by a
    # nonzero rational does not change the rank.
    rows = []
    for row in m.entries:
        scale = 1
        for x in row:
            scale = scale * x.a.denominator // math.gcd(scale, x.a.denominator)
            scale = scale * x.b.denominator // math.gcd(scale, x.b.denominator)
        rows.append(
            [
                (
                    int(x.a.numerator * (scale // x.a.denominator)),
                    int(x.b.numerator * (scale // x.b.denominator)),
                )
                for x in row
            ]
        )
    return rows


# A fixed prime P = 11 (mod 12), so 3 is a square mod P (P = 3 mod 4 and
# P = 2 mod 3), and a square root S of 3 mod P.
_P = 2305843009213692671
_S = pow(3, (_P + 1) // 4, _P)


def _residue(q: Fraction, inverses: dict[int, int]) -> int | None:
    """The image of ``q`` mod P, or None when P divides its denominator.

    ``inverses`` caches the inverse of each denominator mod P.
    """
    d = q.denominator
    if d == 1:
        return q.numerator % _P
    inv = inverses.get(d)
    if inv is None:
        if d % _P == 0:
            return None
        inv = inverses[d] = pow(d, -1, _P)
    return q.numerator * inv % _P


def _image(x: QSqrt3, inverses: dict[int, int]) -> int | None:
    """The image a + b*S (mod P) of a + b*sqrt(3), or None when it has none."""
    a = _residue(x.a, inverses) if x.a else 0
    b = _residue(x.b, inverses) if x.b else 0
    if a is None or b is None:
        return None
    return (a + b * _S) % _P


def _eliminate(rows: Iterable[dict[int, int]], pivots: dict[int, dict[int, int]]) -> int:
    """Reduce sparse rows mod P against ``pivots``; return how many were independent.

    A row maps columns to nonzero residues. Each row is reduced, always at
    its smallest column, against the pivot rows so far; one that does not
    reduce to zero becomes a new pivot row, normalized to 1 at its pivot
    column. The rows are consumed (reduced in place); pivot rows are never
    changed once stored, so a copy of ``pivots`` can be extended alone.
    """
    found = 0
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, _P)
                pivots[col] = {c: v * inv % _P for c, v in row.items()}
                found += 1
                break
            f = row[col]
            for c, v in pivot.items():
                x = (row.get(c, 0) - f * v) % _P
                if x:
                    row[c] = x
                else:
                    del row[c]
    return found


def _modular_rank(m: ExactMatrix) -> int | None:
    """Rank of the image of ``m`` under a + b*sqrt(3) -> a + b*S (mod P).

    Returns None when some entry's denominator is divisible by P, so that
    entry has no image.
    """
    inverses: dict[int, int] = {}
    rows = []
    for entries in m.entries:
        row = {}
        for c, x in enumerate(entries):
            if x is Q_ZERO:
                continue
            v = _image(x, inverses)
            if v is None:
                return None
            if v:
                row[c] = v
        rows.append(row)
    return _eliminate(rows, {})


@dataclass(frozen=True)
class PartialElimination:
    """A matrix over Q(sqrt 3) given mod P as eliminated rows plus rows to reduce.

    ``pivots`` are some of its rows eliminated mod P by ``_eliminate``, so
    their number is the rank of those rows mod P, and ``rest`` are the
    images of its other rows; either is None when an entry has no image.
    ``exact`` builds the whole matrix, which ``exact_rank`` asks for only on
    a deficit mod P. Matrices that differ only in ``rest`` can share their
    pivots, which are copied before ``rest`` is reduced (and consumed).
    """

    rows: int
    cols: int
    pivots: dict[int, dict[int, int]] | None
    rest: list[dict[int, int]] | None
    exact: Callable[[], ExactMatrix]

    def modular_rank(self) -> int | None:
        if self.pivots is None or self.rest is None:
            return None
        return len(self.pivots) + _eliminate(self.rest, dict(self.pivots))


def exact_rank(m: ExactMatrix | PartialElimination, ceiling: int | None = None) -> int:
    """Rank over Q(sqrt 3), with no tolerance.

    Full rank is proven through the image mod P: the map is a ring
    homomorphism, so every minor maps to the image of that minor and the
    rank mod P never exceeds the exact rank. When it reaches min(rows,
    cols, ceiling) that is the rank; ``ceiling`` is an upper bound on the
    rank the caller knows from elsewhere, such as 2n - 3 for the rigidity
    matrix of n joints that are not all coincident. A lower rank mod P
    proves nothing, so it (and an entry with no image mod P) falls back to
    exact elimination.
    """
    full = min(m.rows, m.cols)
    if ceiling is not None:
        full = min(full, ceiling)
    if m.modular_rank() == full:
        return full
    return _fraction_free_rank(m.exact())


def _fraction_free_rank(m: ExactMatrix) -> int:
    """Rank over Q(sqrt 3), by Gaussian elimination with exact division.

    Pivoting is deterministic: for each column, the first remaining row with
    a nonzero entry is used. Dividing by the pivot goes through its
    conjugate, so each updated row is an integer multiple (the pivot's norm)
    of the exact eliminated row; the integer content is then gcd-reduced to
    keep the entries small.
    """
    rows = _integer_rows(m)
    nrows, ncols = m.rows, m.cols
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if rows[r][col] != (0, 0):
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        pa, pb = pivot_row[col]
        norm = pa * pa - 3 * pb * pb
        for r in range(rank + 1, nrows):
            fa, fb = rows[r][col]
            if fa == 0 and fb == 0:
                continue
            # factor = (fa + fb s) * conj(pivot), s = sqrt 3
            ta = fa * pa - 3 * fb * pb
            tb = fb * pa - fa * pb
            row = rows[r]
            new = row[:col]
            g = 0
            for c in range(col, ncols):
                xa, xb = row[c]
                ya, yb = pivot_row[c]
                na = norm * xa - ta * ya - 3 * tb * yb
                nb = norm * xb - ta * yb - tb * ya
                new.append((na, nb))
                if g != 1:
                    g = math.gcd(g, na, nb)
            if g > 1:
                new[col:] = [(na // g, nb // g) for na, nb in new[col:]]
            rows[r] = new
        rank += 1
        if rank == nrows:
            break
    return rank
