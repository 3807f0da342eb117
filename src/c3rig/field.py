"""Exact matrix rank over the rationals, and the report's number type Q(sqrt 3).

Every placement and frame is held in (1, w) pairs: the pair (a, b) is the
point a*1 + b*w with w = (-1/2, sqrt(3)/2), so rotating by 120 degrees is the
integer map (a, b) -> (-b, a - b) and every matrix this package ranks has
rational entries. Such a matrix is the Cartesian one times an invertible
change of columns, so it has the Cartesian rank (see
``geometry._pair_matrix``). ``QSqrt3``, the numbers a + b*sqrt(3) with
rational a, b, is only the format in which reports give a point's Cartesian
coordinates.

``exact_rank`` first proves full rank through the image of the matrix modulo
a fixed prime P (a ring homomorphism, so the rank mod P never exceeds the
exact rank), full meaning the smaller side or a known ceiling on the rank;
only a deficit mod P falls back to exact fraction-free integer elimination.
It ranks a dense ``ExactMatrix`` or a ``PartialElimination``, whose rows are
partly eliminated mod P already and which builds its sparse integer rows only
for that fallback.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class QSqrt3:
    """The number a + b*sqrt(3) with exact rational components: a report's
    Cartesian coordinate."""

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


@dataclass(frozen=True)
class ExactMatrix:
    """A dense matrix of rationals (ints or Fractions), stored row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")

    @classmethod
    def from_rows(cls, rows: list[list[Fraction]]) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(nrows, ncols, tuple(tuple(r) for r in rows))

    def modular_rank(self) -> int | None:
        return _modular_rank(self)

    def integer_rows(self) -> list[dict[int, int]]:
        """Each row as a sparse integer row: its nonzero entries by column,
        times the lcm of their denominators; scaling a row by a nonzero
        rational does not change the rank."""
        rows = []
        for entries in self.entries:
            nonzero = [(c, x) for c, x in enumerate(entries) if x]
            scale = math.lcm(*(x.denominator for _, x in nonzero))
            rows.append({c: x.numerator * (scale // x.denominator) for c, x in nonzero})
        return rows


# A fixed prime P, the largest below 2**30 with P = 1 (mod 3). Below 2**30
# every residue is one CPython digit, so products, reductions and inverses
# mod P take the interpreter's single-digit fast paths; P = 1 (mod 3) puts
# a primitive cube root of unity in F_P. bench/checker.py ranks reports mod
# other primes, so its check stays independent of this one.
_P = 1073741719


def _residue(q: Fraction, inverses: dict[int, int]) -> int | None:
    """The image of the rational ``q`` mod P, or None when P divides its denominator.

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
    """Rank of the image of ``m`` mod P, or None when some entry's
    denominator is divisible by P, so that entry has no image."""
    inverses: dict[int, int] = {}
    rows = []
    for entries in m.entries:
        row = {}
        for c, x in enumerate(entries):
            if not x:
                continue
            v = _residue(x, inverses)
            if v is None:
                return None
            if v:
                row[c] = v
        rows.append(row)
    return _eliminate(rows, {})


@dataclass(frozen=True)
class PartialElimination:
    """A rational matrix given mod P as eliminated rows plus rows to reduce.

    ``pivots`` are some of its rows eliminated mod P by ``_eliminate``, so
    their number is the rank of those rows mod P, and ``rest`` are the
    images of its other rows; either is None when an entry has no image.
    ``integer_rows`` gives its rows, each times a nonzero rational, as sparse
    integer rows, which ``exact_rank`` asks for only on a deficit mod P.
    Matrices that differ only in ``rest`` can share their pivots, which are
    copied before ``rest`` is reduced (and consumed).
    """

    rows: int
    cols: int
    pivots: dict[int, dict[int, int]] | None
    rest: list[dict[int, int]] | None
    integer_rows: Callable[[], list[dict[int, int]]]

    def modular_rank(self) -> int | None:
        if self.pivots is None or self.rest is None:
            return None
        return len(self.pivots) + _eliminate(self.rest, dict(self.pivots))


def exact_rank(m: ExactMatrix | PartialElimination, ceiling: int | None = None) -> int:
    """Rank over Q, with no tolerance.

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
    return _fraction_free_rank(m.integer_rows())


def _fraction_free_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows, by fraction-free elimination.

    Each row is reduced, always at its smallest column, against the pivot
    rows so far: at a pivot p and the row's entry f there, the row becomes
    (p/g) * row - (f/g) * pivot with g = gcd(p, f), an integer row in the
    same span whose entry there is zero, and its integer content is then
    divided out to keep the entries small. A row that does not reduce to
    zero becomes the pivot row of its smallest column. The rows are consumed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            p, f = pivot[col], row[col]
            g = math.gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                row = {c: p * x for c, x in row.items()}
            for c, y in pivot.items():
                x = row.get(c, 0) - f * y
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = math.gcd(*row.values())
            if g > 1:
                row = {c: x // g for c, x in row.items()}
    return len(pivots)
