"""Seeded random builders, rational and integer matrix builders, and the exact
rank reference, shared by the test suite."""
from __future__ import annotations

import math
import random
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from c3rig import (
    DELTA_EXTENSION,
    EDGE_SPLIT,
    VERTEX_ADDITION,
    C3Action,
    Graph,
    Move,
    SymGraph,
    apply_move,
    canonical_base,
    edge,
    parse_graph,
)
from c3rig.field import PartialElimination, _P, exact_rank
from c3rig.geometry import Pair, Placement, _pair_matrix, _primitive, v_sub
from c3rig.graphs import edge_orbit

PRISM_DOC = {
    "vertices": 6,
    "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3], [0, 3], [1, 4], [2, 5]],
    "c3": [1, 2, 0, 4, 5, 3],
}


def k3() -> SymGraph:
    return canonical_base()


def prism() -> SymGraph:
    return parse_graph(PRISM_DOC)


def k33() -> SymGraph:
    return parse_graph(
        {
            "vertices": 6,
            "edges": [[i, j + 3] for i in range(3) for j in range(3)],
            "c3": [1, 2, 0, 4, 5, 3],
        }
    )


def k13_hub() -> SymGraph:
    return parse_graph(
        {"vertices": 4, "edges": [[3, 0], [3, 1], [3, 2]], "c3": [1, 2, 0, 3]}
    )


def octahedron() -> SymGraph:
    # antipodal pairs (0,3), (1,4), (2,5); all other pairs are edges
    edges = [[u, v] for u, v in combinations(range(6), 2) if abs(u - v) != 3]
    return parse_graph({"vertices": 6, "edges": edges, "c3": [1, 2, 0, 4, 5, 3]})


def random_plain_graph(rng: random.Random, n: int) -> Graph:
    """Random simple graph of mixed density (from near-tree to overbraced)."""
    pairs = list(combinations(range(n), 2))
    m = rng.randint(max(1, n - 2), min(len(pairs), 2 * n))
    chosen = rng.sample(pairs, m)
    return Graph(n, frozenset(edge(u, v) for u, v in chosen))


def grow(sg: SymGraph, kind: str, *anchors: int) -> SymGraph:
    """Apply one move; its new orbit takes the next three labels."""
    n = sg.graph.n
    return apply_move(sg, Move(kind, anchors, (n, n + 1, n + 2)))


def random_move(rng: random.Random, sg: SymGraph) -> SymGraph:
    """Apply one uniformly chosen valid symmetric move."""
    n = sg.graph.n
    kind = rng.randrange(3)
    if kind == 0:
        v1, v2 = rng.sample(range(n), 2)
        return grow(sg, VERTEX_ADDITION, v1, v2)
    if kind == 1:
        v1, v2 = sg.graph.sorted_edges[rng.randrange(sg.graph.m)]
        v3 = rng.choice([x for x in range(n) if x != v1 and x != v2])
        return grow(sg, EDGE_SPLIT, v1, v2, v3)
    return grow(sg, DELTA_EXTENSION, rng.randrange(n))


def random_tight_symgraph(seed_or_rng, n: int) -> SymGraph:
    """Grow a tight symmetric graph from the triangle by random moves."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, random.Random)
        else random.Random(seed_or_rng)
    )
    assert n % 3 == 0 and n >= 3
    sg = k3()
    while sg.graph.n < n:
        sg = random_move(rng, sg)
    return sg


def perturb_edge_swap(rng: random.Random, sg: SymGraph) -> SymGraph:
    """Trade one random edge orbit for one random non-edge orbit.

    Keeps the vertex count, the edge count and the symmetry action, so the
    result is a valid symmetric graph that usually breaks the counts.
    """
    act = sg.action
    g = sg.graph
    out_edge = g.sorted_edges[rng.randrange(g.m)]
    out_orbit = {out_edge, act.map_edge(out_edge), act.map_edge(act.map_edge(out_edge))}
    remaining = g.edges - frozenset(out_orbit)
    return SymGraph(Graph(g.n, remaining | _non_edge_orbit(rng, sg)), act)


def add_non_edge_orbit(rng: random.Random, sg: SymGraph) -> SymGraph:
    """Add one random non-edge orbit: three edges over 2n - 3 on a tight graph."""
    return SymGraph(Graph(sg.graph.n, sg.graph.edges | _non_edge_orbit(rng, sg)), sg.action)


def _non_edge_orbit(rng: random.Random, sg: SymGraph) -> frozenset:
    act = sg.action
    g = sg.graph
    for _ in range(1000):
        u, v = rng.sample(range(g.n), 2)
        e = edge(u, v)
        orbit = {e, act.map_edge(e), act.map_edge(act.map_edge(e))}
        if len(orbit) == 3 and not (orbit & g.edges):
            return frozenset(orbit)
    raise AssertionError("could not find a non-edge orbit")


def clique_with_tail(rng: random.Random, c: int, n: int, hung: bool) -> Graph:
    """K_c on the labels 0 .. c - 1, then each later vertex joined to one
    random earlier vertex (a tree tail) or to two (hung, adding two edges
    per vertex as a tight graph does). On the lowest labels, the clique's
    edges come early in sorted order."""
    edges = {edge(u, v) for u, v in combinations(range(c), 2)}
    for x in range(c, n):
        edges.update(edge(a, x) for a in rng.sample(range(x), 2 if hung else 1))
    return Graph(n, frozenset(edges))


@cache
def acceptance_corpus() -> tuple[SymGraph, ...]:
    """200 tight graphs (50 each at n = 6, 9, 12, 15), then one perturbed copy of each."""
    rng = random.Random(20260101)
    graphs = []
    for n in (6, 9, 12, 15):
        for _ in range(50):
            graphs.append(random_tight_symgraph(rng, n))
    perturbed = [perturb_edge_swap(rng, sg) for sg in graphs]
    return tuple(graphs + perturbed)


def edge_orbit_graphs(n: int, k: int) -> Iterator[SymGraph]:
    """Every graph of k edge orbits under the rotation that turns each
    triple 3i, 3i + 1, 3i + 2 and fixes the last vertex when n is one more
    than a multiple of 3: the ``combinations`` of the orbits, which come in
    the order of their first sorted pair."""
    free = n - n % 3
    gamma = tuple(v - v % 3 + (v + 1) % 3 if v < free else v for v in range(n))
    action = C3Action(gamma)
    orbits = dict.fromkeys(frozenset(edge_orbit(e, gamma)) for e in combinations(range(n), 2))
    for chosen in combinations(orbits, k):
        yield SymGraph(Graph(n, frozenset().union(*chosen)), action)


def quotient_gain_graph(sg: SymGraph) -> tuple[int, list[tuple[int, int, int]]]:
    """The quotient gain graph of a rotation that fixes no vertex: the
    number of vertex orbits, numbered by their smallest vertex, and one edge
    (o, o', g) per edge orbit. It runs from the orbit o of one end
    u = gamma^a r to the orbit o' of the other, v = gamma^b r', where r, r'
    are the orbits' smallest vertices, with the gain g = b - a in Z/3. The
    edge's rotated copies give the same gain, and a loop, o = o', a nonzero
    one."""
    act = sg.require_action()
    assert not act.fixed_vertices()
    orbit: dict[int, int] = {}
    power: dict[int, int] = {}
    for v in range(sg.graph.n):
        if v not in orbit:
            o = len(orbit) // 3
            for a, x in enumerate((v, act.gamma[v], act.gamma2[v])):
                orbit[x], power[x] = o, a
    quotient: dict[frozenset, tuple[int, int, int]] = {}
    for u, v in sg.graph.sorted_edges:
        key = frozenset(edge_orbit((u, v), act.gamma))
        quotient.setdefault(key, (orbit[u], orbit[v], (power[v] - power[u]) % 3))
    return len(orbit) // 3, list(quotient.values())


def cone_laman_counts(vertices: int, edges: list[tuple[int, int, int]]) -> tuple[bool, bool]:
    """Whether a gain graph over Z/3 meets each of the cone-Laman counts of
    Malestein and Theran: |F| <= 2|V(F)| - 1 for every nonempty edge set F,
    and |F| <= 2|V(F)| - 3 for every nonempty balanced one, each of whose
    cycles has gain sum 0.

    By brute force over vertex sets S. The largest F with V(F) in S is the
    set of edges within S. An edge set is balanced exactly when a potential
    phi on its vertices has g = phi(o') - phi(o) on each of its edges, so
    the largest balanced F with V(F) in S are, one per phi: S -> Z/3, the
    edges within S that phi makes 0. An F on fewer vertices than S is held
    to its own count at its own vertex set."""
    plain = balanced = True
    for size in range(1, vertices + 1):
        for subset in combinations(range(vertices), size):
            inside = [e for e in edges if e[0] in subset and e[1] in subset]
            plain = plain and len(inside) <= 2 * size - 1
            # adding a constant to phi changes no edge, so phi(first) = 0
            for phi in product(range(3), repeat=size - 1):
                at = dict(zip(subset, (0, *phi)))
                count = sum((at[o2] - at[o1] - g) % 3 == 0 for o1, o2, g in inside)
                # an empty F is not held to the balanced count
                balanced = balanced and count <= max(0, 2 * size - 3)
    return plain, balanced


def fast_tight_symgraph(seed: int, n: int) -> SymGraph:
    """Like random_tight_symgraph but built on raw lists; for large n."""
    rng = random.Random(seed)
    assert n % 3 == 0 and n >= 3
    gamma = [1, 2, 0]
    edges = {(0, 1), (1, 2), (0, 2)}
    edge_list = [(0, 1), (1, 2), (0, 2)]
    verts = 3
    while verts < n:
        v, w, z = verts, verts + 1, verts + 2
        kind = rng.randrange(3)
        if kind == 0:
            v1, v2 = rng.sample(range(verts), 2)
            new = [
                edge(v, v1),
                edge(v, v2),
                edge(w, gamma[v1]),
                edge(w, gamma[v2]),
                edge(z, gamma[gamma[v1]]),
                edge(z, gamma[gamma[v2]]),
            ]
        elif kind == 1:
            while True:
                e = edge_list[rng.randrange(len(edge_list))]
                if e in edges:
                    break
            v1, v2 = e
            v3 = rng.choice([x for x in range(verts) if x != v1 and x != v2])
            for old in (
                e,
                edge(gamma[v1], gamma[v2]),
                edge(gamma[gamma[v1]], gamma[gamma[v2]]),
            ):
                edges.remove(old)
            new = []
            for x in (v1, v2, v3):
                new.append(edge(v, x))
                new.append(edge(w, gamma[x]))
                new.append(edge(z, gamma[gamma[x]]))
        else:
            v0 = rng.randrange(verts)
            new = [
                (v, w),
                (w, z),
                (v, z),
                edge(v, v0),
                edge(w, gamma[v0]),
                edge(z, gamma[gamma[v0]]),
            ]
        edges.update(new)
        edge_list.extend(new)
        gamma.extend([w, z, v])
        verts += 3
    return SymGraph(Graph(n, frozenset(edges)), C3Action(tuple(gamma)))


def integer_rows(rows) -> list[dict[int, int]]:
    """Rational rows as sparse integer rows, each times the lcm of its
    denominators."""
    scaled = []
    for row in rows:
        sparse = {c: Fraction(x) for c, x in enumerate(row) if x}
        scale = math.lcm(*(x.denominator for x in sparse.values()))
        scaled.append({c: x.numerator * (scale // x.denominator) for c, x in sparse.items()})
    return scaled


def rational_matrix(rows) -> PartialElimination:
    """Rational rows as the package's matrix type: the images mod P of their
    ``integer_rows``."""
    cols = len(rows[0]) if rows else 0
    rest = [{c: x % _P for c, x in row.items() if x % _P} for row in integer_rows(rows)]
    return PartialElimination(len(rows), cols, {}, rest, cols)


def pair_rows(g: Graph, pair) -> list[dict[int, int]]:
    """``_pair_matrix``'s rows over the integers, each times a positive
    rational: per sorted edge (u, v), its pair, ``pair`` of its index, with
    the gcd of its entries divided out, at u's column pair and negated at
    v's, the columns in ``Graph.degree_order``."""
    place = g.degree_order
    rows = []
    for i, (u, v) in enumerate(g.sorted_edges):
        x, y = _primitive(pair(i))
        a, b = 2 * place[u], 2 * place[v]
        rows.append({c: z for c, z in ((a, x), (b, -x), (a + 1, y), (b + 1, -y)) if z})
    return rows


def rigidity_rows(g: Graph, placement: Placement) -> list[dict[int, int]]:
    """``rigidity_matrix``'s rows over the integers, each times a positive
    rational: ``pair_rows`` of the edges' position differences."""
    pos = placement.positions
    return pair_rows(g, lambda i: v_sub(*(pos[x] for x in g.sorted_edges[i])))


def fraction_free_rank(rows) -> int:
    """Rank over Q of sparse integer rows, by fraction-free elimination: the
    exact reference for the package's ranks mod P, which has no elimination
    over the integers.

    Each row is reduced, always at its smallest column, against the pivot
    rows so far: at a pivot p and the row's entry f there, the row becomes
    (p/g) * row - (f/g) * pivot with g = gcd(p, f), an integer row in the
    same span whose entry there is zero, and its integer content is then
    divided out to keep the entries small. A row that does not reduce to
    zero becomes the pivot row of its smallest column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
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


def proven_rank(m: PartialElimination, expected: int, ceiling: int | None = None) -> int | None:
    """``exact_rank(m, ceiling)``, checked against ``expected``, the exact
    rank from a reference: it is that rank or None, and None exactly when
    the rank mod P falls short of min(rows, cols, ceiling), which never
    exceeds the exact rank."""
    full = min(m.rows, m.cols, m.rows if ceiling is None else ceiling)
    got = exact_rank(m, ceiling)
    modular = m.modular_rank()
    assert modular <= expected <= full
    assert got == (expected if modular == full else None)
    return got


def generalized_matrix(g: Graph, directions: Sequence[Pair]) -> PartialElimination:
    """The generalized rigidity matrix of a frame's ``directions``, one per
    sorted edge: a row per edge from its direction pair, made by the
    package's ``_pair_matrix``. A frame-rank oracle: the separation proves
    this rank itself."""
    return _pair_matrix(g, directions.__getitem__)


def span_key(m: PartialElimination) -> tuple:
    """The row span mod P of ``m``'s rows, or of its two orbit blocks, as
    its reduced echelon form: the same for any rows of that span, however
    they were built or eliminated."""
    m.modular_rank()
    reduced: dict[int, dict[int, int]] = {}
    for lead in sorted(m.pivots, reverse=True):
        # pivot rows are in echelon form: the rows reduced so far lead at
        # later columns, and each is zero at every other one's lead
        row = dict(m.pivots[lead])
        for c in [c for c in row if c in reduced]:
            f = row[c]
            for k, x in reduced[c].items():
                y = (row.get(k, 0) - f * x) % _P
                if y:
                    row[k] = y
                else:
                    del row[k]
        inv = pow(row[lead], -1, _P)
        reduced[lead] = {k: x * inv % _P for k, x in row.items()}
    return m.twice_from, tuple(sorted(tuple(sorted(row.items())) for row in reduced.values()))
