"""Matrix rank mod a fixed prime, and what it proves over the rationals.

Every placement and frame is held in integer (1, w) pairs: the pair (a, b)
is the point a*1 + b*w with w = (-1/2, sqrt(3)/2), over one common scale,
so rotating by 120 degrees is the integer map (a, b) -> (-b, a - b) and
every matrix this package ranks has integer entries. Such a matrix is the
Cartesian one times an invertible change of columns, so it has the
Cartesian rank (see ``geometry._pair_matrix``).

The one matrix type is ``PartialElimination``: sparse rows mod a fixed prime
P, some of them eliminated already. Reduction mod P is a ring homomorphism,
so the rank mod P never exceeds the exact rank, and ``exact_rank`` reads a
rank mod P that reaches the smaller side, or a ceiling the caller knows,
such as the rank of the (2,3)-sparsity matroid, as the exact rank. A rank
mod P below that proves nothing, and ``exact_rank`` says so with None: the
package has no elimination over the integers. The image may also be two
blocks mod P whose ranks bound the exact rank from below, one of them
counted twice: ``_orbit_blocks`` builds them for a rigidity matrix with a
3-fold rotation, one row in each per edge orbit, from the pairs of one edge
per orbit. ``_round_pivots`` eliminates a whole sequence of matrices that
share most of their rows.

Elimination mod P (``_eliminate``) keeps each pivot row as it stands, not
normalized, inverts a pivot's leading entry only when a row first reduces
against it, and copies a row only at its first reduction. The rows it is
given are never consumed: in these sparse matrices most rows meet no pivot,
and each of those is stored as the pivot of its column with no copy, no
inverse and no normalization.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, KeysView, Sequence
from dataclasses import dataclass

# A fixed prime P, the largest below 2**30 with P = 1 (mod 3). Below 2**30
# every residue is one CPython digit, so products, reductions and inverses
# mod P take the interpreter's single-digit fast paths; P = 1 (mod 3) puts
# a primitive cube root of unity in F_P. bench/checker.py ranks reports mod
# other primes, so its check stays independent of this one.
_P = 1073741719
# A primitive cube root of unity mod P: the image of w in the prime (P, w - _W)
# of Z[w] that ``_orbit_blocks`` reduces modulo.
_W = next(w for w in (pow(g, (_P - 1) // 3, _P) for g in range(2, _P)) if w != 1)


def _eliminate(
    rows: Iterable[dict[int, int]],
    pivots: dict[int, dict[int, int]],
    twice_from: int,
    inverses: dict[int, int] | None = None,
) -> int:
    """Reduce sparse rows mod P against ``pivots``; return how many were
    independent, counting twice those whose pivot column is ``twice_from``
    or later (plain rows pass their column count, which no pivot reaches).

    A row maps columns to nonzero residues. Each row is reduced, always at
    its smallest column, against the pivot rows so far; one that does not
    reduce to zero becomes the pivot row of that column as it stands, not
    normalized. Most rows never meet a pivot, so a pivot's leading entry is
    inverted only when a row first reduces against it, and a row is copied
    only at its first reduction: the rows given are never changed, and one
    that meets no pivot is stored itself, so its caller leaves it as it is
    while the pivots are in use. ``inverses`` memoizes the inverses mod P
    of leading entries; calls may share one, as ``_round_pivots``'s do.
    Pivot rows are never changed once stored and new ones go at the end of
    the dict, so the pivots a call added can be popped off again.
    """
    if inverses is None:
        inverses = {}
    found = 0
    for row in rows:
        given = row
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                found += 1 if col < twice_from else 2
                break
            if row is given:
                row = dict(row)
            lead = pivot[col]
            inv = inverses.get(lead)
            if inv is None:
                inv = inverses[lead] = pow(lead, -1, _P)
            f = row[col] * inv % _P
            for c, v in pivot.items():
                x = (row.get(c, 0) - f * v) % _P
                if x:
                    row[c] = x
                else:
                    del row[c]
    return found


# The indices of the edges that stand for their orbits, in increasing order,
# a function from such an edge's index and pair to its orbit's rows mod P in
# B0 and B1, and the column where B1 starts.
_OrbitBlocks = tuple[
    KeysView[int], Callable[[int, tuple[int, int]], list[dict[int, int]]], int
]


def _orbit_blocks(
    edges: Sequence[tuple[int, int]], gamma: Sequence[int], place: Sequence[int]
) -> _OrbitBlocks:
    """The rows mod P of the orbit blocks B0 and B1 of a symmetric
    rigidity matrix M, one edge at a time: r0 + 2 r1, their ranks, bound
    M's rank from below.

    M has a row per edge (u, v), the edge's integer pair at u's column pair
    and its negative at v's (``geometry._pair_matrix``). ``gamma`` is a
    rotation that fixes no vertex, and the pairs rotate with it: the pair of
    gamma e is parallel to w times the pair of e, as position differences
    of a symmetric placement are, or the directions of a symmetric frame.
    Scaling each row by a nonzero rational keeps the rank, so take the pair
    of gamma e to be +-w times that of e, the sign from the order of its
    ends. Write a pair (s, t) as the complex number d = s + t*w,
    w = exp(2 pi i/3), and a velocity at v as z_v. The row says
    Re(conj(d) (z_u - z_v)) = 0, or conj(d) (x_u - x_v) + d (y_u - y_v) = 0
    in the 2n coordinates x = z and y = conj(z), an invertible change of
    columns over C: this matrix R has the rank of M. The row of gamma e
    holds +-w d. A motion of phase lam in {1, w, w^2} has
    x(gamma v) = lam w x(v) and y(gamma v) = lam conj(w) y(v); C^2n is the
    sum of the three phase spaces, each with the coordinates x_r, y_r of one
    vertex r per orbit. On the phase space of lam the row of gamma e is
    +-lam times that of e, so R maps the three into independent spaces and
    rank R is the sum of the ranks of the blocks B(lam): one row per edge
    orbit, where u = gamma^a r puts conj(d) (lam w)^a and d (lam conj(w))^a
    at r's x and y, and v their negatives at its orbit's. B(w^2) is the
    conjugate of B(w) with its x and y columns swapped, so over Q(w),
    rank M = rank B(1) + 2 rank B(w).

    P = 1 (mod 3) splits in Z[w]: modulo the prime (P, w - _W), Z[w] is F_P
    with w at ``_W`` and conj(d) = s + t*w^2 at s + t*_W^2. That is a ring
    homomorphism, so B(1) and B(w) lose rank there, if anything: r0 + 2 r1
    is at most rank M. B0 = B(1) and B1 = B(w) have the orbits' column
    pairs in the order of their vertices' ``place``, B1's from 2n/3 on.
    B(w^2) is left out on purpose: the bound needs only B(w), and ranking it
    as well would add a third of the work for the rare placement where
    r0 + r1 + r2 reaches full rank mod P and r0 + 2 r1 does not.

    The orbits, powers and columns of ``gamma``, and the edge that stands
    for each edge orbit, are found once, here. Returned are the indices of
    those edges, a third of them, in increasing order and with a fast
    ``in``; a function that gives, for such an edge's index and pair, its
    orbit's two rows, in B0 and B1; and the column where B1 starts, twice
    the number of vertex orbits, which a caller counts pivots from twice. A
    caller takes the pairs of those edges alone, and the rows of the blocks
    are two per edge orbit.
    """
    n = len(gamma)
    w = (1, _W, _W * _W % _P)
    orbit, power, count = [-1] * n, [0] * n, 0
    for r in sorted(range(n), key=place.__getitem__):
        if orbit[r] < 0:
            for a, x in enumerate((r, gamma[r], gamma[gamma[r]])):
                orbit[x], power[x] = count, a
            count += 1
    # per vertex gamma^a r and block, the x and y columns of r's orbit and
    # the powers (lam w)^a and (lam conj(w))^a that conj(d) and d take there
    spots = [
        (
            (2 * o, w[a], 2 * o + 1, w[2 * a % 3]),
            (2 * (count + o), w[2 * a % 3], 2 * (count + o) + 1, 1),
        )
        for o, a in zip(orbit, power)
    ]
    # one edge per edge orbit: the one through its first vertex orbit's r,
    # with its ends' spots per block and whether the ends share an orbit
    chosen: dict[int, tuple[list, bool]] = {}
    for i, (u, v) in enumerate(edges):
        ou, ov, a, b = orbit[u], orbit[v], power[u], power[v]
        if a == 0 if ou < ov else b == 0 if ov < ou else a + b == 1:
            chosen[i] = (list(zip(spots[u], spots[v])), ou != ov)

    def rows(i: int, q: tuple[int, int]) -> list[dict[int, int]]:
        spot_pairs, apart = chosen[i]
        s, t = q[0] % _P, q[1] % _P
        d, dc = (s + t * w[1]) % _P, (s + t * w[2]) % _P
        out = []
        for (xu, mu, yu, nu), (xv, mv, yv, nv) in spot_pairs:
            if apart:
                row = {xu: dc * mu % _P, yu: d * nu % _P, xv: -dc * mv % _P, yv: -d * nv % _P}
            else:
                row = {xu: dc * (mu - mv) % _P, yu: d * (nu - nv) % _P}
            out.append({c: x for c, x in row.items() if x} if 0 in row.values() else row)
        return out

    return chosen.keys(), rows, 2 * count


def _round_pivots(
    versions: Iterable[tuple[dict[int, int], int, int]],
    lo: int,
    hi: int,
    twice_from: int,
) -> Iterator[tuple[int, dict[int, dict[int, int]], int]]:
    """Each round j of lo..hi in turn, with the pivots of its rows mod P and
    their rank, counting the pivots from the column ``twice_from`` on twice.

    ``versions`` are (row, a, b): a sparse row mod P, left unchanged, of
    the rounds a..b. Each goes into the O(log R) nodes of a segment tree
    over the rounds that cover a..b, the same dict in each. A depth-first
    walk eliminates a node's rows into one shared pivot dict on entry and
    pops the pivots they added on exit, which undoes the node, as
    ``_eliminate`` adds new pivots at the end of the dict. It hands the rows
    over as they are: ``_eliminate`` copies a row only where it reduces and
    stores an unreduced one itself, never to be changed, so no version
    changes and none is copied for nothing; the pivots' inverses are shared
    by the whole walk. At a leaf the dict holds its round's rows eliminated;
    the rank goes down the walk with it, so no leaf counts its pivots.
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
    inverses: dict[int, int] = {}

    def walk(
        k: int, first: int, width: int, rank: int
    ) -> Iterator[tuple[int, dict[int, dict[int, int]], int]]:
        before = len(pivots)
        rank += _eliminate(nodes[k], pivots, twice_from, inverses)
        if width == 1:
            yield first, pivots, rank
        else:
            half = width // 2
            yield from walk(2 * k, first, half, rank)
            if first + half <= hi:
                yield from walk(2 * k + 1, first + half, half, rank)
        for _ in range(len(pivots) - before):
            pivots.popitem()

    yield from walk(1, lo, size, 0)


@dataclass
class PartialElimination:
    """A rational matrix given mod P as eliminated rows plus rows to reduce.

    ``pivots`` are some of its rows eliminated mod P by ``_eliminate``,
    ``pivot_rank`` their number, and ``rest`` the images of its other rows.
    Ranking eliminates ``rest`` into ``pivots``, adds the new pivots to
    ``pivot_rank`` and empties ``rest``, whose rows all lie in the pivots'
    span now. That keeps the span of the rows, so ranking the matrix again
    gives the same rank, and ``exact_rank`` may be asked again with another
    ceiling at no cost.

    With ``twice_from`` below ``cols``, ``pivots`` and ``rest`` are not the
    matrix's rows but two blocks, the second in the columns from
    ``twice_from`` on, chosen so that the first block's rank plus twice the
    second's is at most the matrix's rank; ``pivot_rank`` and
    ``modular_rank`` count that sum. Plain rows set it to ``cols``.
    """

    rows: int
    cols: int
    pivots: dict[int, dict[int, int]]
    rest: list[dict[int, int]]
    twice_from: int
    pivot_rank: int = 0

    def modular_rank(self) -> int:
        """A lower bound on the exact rank."""
        self.pivot_rank += _eliminate(self.rest, self.pivots, self.twice_from)
        self.rest = []
        return self.pivot_rank


def exact_rank(m: PartialElimination, ceiling: int | None = None) -> int | None:
    """Rank over Q, with no tolerance, where the rank mod P proves it; else
    None.

    ``modular_rank`` never exceeds the exact rank: reduction mod P is a ring
    homomorphism, so every minor maps to the image of that minor. When it
    reaches min(rows, cols, ceiling), that is the rank; ``ceiling`` is an
    upper bound on the rank the caller knows from elsewhere, such as 2n - 3
    for the rigidity matrix of n joints that are not all coincident, or the
    rank of the (2,3)-sparsity matroid of its graph (Laman's theorem). A
    lower rank mod P proves nothing: the exact rank may be anywhere from it
    to that bound, so the answer is None.
    """
    full = min(m.rows, m.cols)
    if ceiling is not None:
        full = min(full, ceiling)
    return full if m.modular_rank() == full else None
