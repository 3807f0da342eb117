"""Exact matrix rank over the rationals, and the report's number type Q(sqrt 3).

Every placement and frame is held in (1, w) pairs: the pair (a, b) is the
point a*1 + b*w with w = (-1/2, sqrt(3)/2), so rotating by 120 degrees is the
integer map (a, b) -> (-b, a - b) and every matrix this package ranks has
rational entries. Such a matrix is the Cartesian one times an invertible
change of columns, so it has the Cartesian rank (see
``geometry._pair_matrix``). ``QSqrt3``, the numbers a + b*sqrt(3) with
rational a, b, is only the value type in which reports give a point's
Cartesian coordinates; it does no arithmetic.

The one matrix type is ``PartialElimination``: sparse rows mod a fixed prime
P, some of them eliminated already, plus a way to build its sparse integer
rows. ``exact_rank`` first proves full rank through that image mod P (a ring
homomorphism, so the rank mod P never exceeds the exact rank), full meaning
the smaller side or a known ceiling on the rank; only a deficit mod P builds
the integer rows, for exact fraction-free elimination. ``_round_pivots``
eliminates a whole sequence of matrices that share most of their rows.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class QSqrt3:
    """The number a + b*sqrt(3) with exact rational components: a report's
    Cartesian coordinate. Two are equal, and hash alike, when their
    components are."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        # Only rationals that are not exact Fractions (int, bool, Fraction
        # subclasses) are re-wrapped.
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT3

    def __repr__(self) -> str:
        return f"QSqrt3({self.a}, {self.b})"

    def as_json_dict(self) -> dict:
        return {
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "b": f"{self.b.numerator}/{self.b.denominator}",
        }


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
    changed once stored and new ones go at the end of the dict, so the
    pivots a call added can be popped off again.
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


def _round_pivots(
    versions: Iterable[tuple[dict[int, int], int, int]], lo: int, hi: int
) -> Iterator[tuple[int, dict[int, dict[int, int]]]]:
    """Each round j of lo..hi in turn, with the pivots of its rows mod P.

    ``versions`` are (row, a, b): a sparse row mod P, left unchanged, of
    the rounds a..b. Each goes into the O(log R) nodes of a segment tree
    over the rounds that cover a..b. A depth-first walk eliminates a node's
    rows into one shared pivot dict on entry and pops the pivots they added
    on exit, which undoes the node, as ``_eliminate`` adds new pivots at the
    end of the dict. At a leaf the dict holds its round's rows eliminated.
    """
    if lo > hi:
        return
    size = 1 << (hi - lo).bit_length()
    nodes: list[list[dict[int, int]]] = [[] for _ in range(2 * size)]
    for row, a, b in versions:
        a, b = a - lo + size, b - lo + size + 1
        while a < b:
            if a & 1:
                nodes[a].append(row)
                a += 1
            if b & 1:
                b -= 1
                nodes[b].append(row)
            a >>= 1
            b >>= 1
    pivots: dict[int, dict[int, int]] = {}

    def walk(k: int, first: int, width: int) -> Iterator[tuple[int, dict[int, dict[int, int]]]]:
        found = _eliminate(map(dict, nodes[k]), pivots)
        if width == 1:
            yield first, pivots
        else:
            half = width // 2
            yield from walk(2 * k, first, half)
            if first + half <= hi:
                yield from walk(2 * k + 1, first + half, half)
        for _ in range(found):
            pivots.popitem()

    yield from walk(1, lo, size)


@dataclass(frozen=True)
class PartialElimination:
    """A rational matrix given mod P as eliminated rows plus rows to reduce.

    ``pivots`` are some of its rows eliminated mod P by ``_eliminate``, so
    their number is the rank of those rows mod P, and ``rest`` are the
    images of its other rows; either is None when an entry has no image.
    Ranking reduces ``rest`` into ``pivots`` in place, which keeps the span
    of the rows, so ranking the matrix again gives the same rank.
    ``integer_rows`` gives its rows, each times a nonzero rational, as
    sparse integer rows, which ``exact_rank`` asks for only on a deficit
    mod P.
    """

    rows: int
    cols: int
    pivots: dict[int, dict[int, int]] | None
    rest: list[dict[int, int]] | None
    integer_rows: Callable[[], list[dict[int, int]]]

    def modular_rank(self) -> int | None:
        if self.pivots is None or self.rest is None:
            return None
        return len(self.pivots) + _eliminate(self.rest, self.pivots)


def exact_rank(m: PartialElimination, ceiling: int | None = None) -> int:
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
