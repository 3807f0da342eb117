"""Symmetric isostaticity decision, symmetric moves, and construction sequences.

A graph with a 3-fold symmetry and n >= 3 vertices is generically isostatic
under that symmetry exactly when it is (2,3)-tight and the rotation fixes no
vertex. Such graphs are generated from the triangle base by three symmetric
moves, each adding one full vertex orbit:

* vertex addition: a new orbit of valence-2 vertices hung on an anchor pair,
* edge split: an edge orbit is removed, a new orbit subdivides it against a
  third anchor vertex,
* delta extension: a new triangle orbit attached by one spoke per vertex.

``extract_sequence`` inverts these moves down to the triangle and returns a
replayable certificate; ``replay_sequence`` rebuilds the graph, validating
every intermediate step. Both keep one live pebble game (``PebbleGame``)
instead of starting a new game per step.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    C3RigError,
    DegenerateMove,
    FixedAnchor,
    IntermediateNotTight,
    InternalInvariantBroken,
    InvalidAnchor,
    MissingEdge,
    NotIsostatic,
    TooFewVertices,
)
from .graphs import (
    C3Action,
    Edge,
    Graph,
    SymGraph,
    edge,
    edge_orbit,
    relabel_symgraph,
)
from .pebble import PebbleGame, SparsityReport, pebble_sparsity

VERTEX_ADDITION = "VertexAddition"
EDGE_SPLIT = "EdgeSplit"
DELTA_EXTENSION = "DeltaExtension"

Spokes = tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class MoveShape:
    """One row of the move table.

    A move adds the orbit (v, gamma v, gamma^2 v) of a new vertex v. Its new
    edges are the rotation orbits of a few representative edges (v, x):
    ``spokes(anchors, v)`` lists each x with the tree offsets o the three-tree
    partition may give that edge (tree l + o + j receives its j-th image; the
    first offset that fits is used). An edge split also deletes the edge
    orbit of its first two anchors.
    """

    arity: int
    spokes: Callable[[tuple[int, ...], int], Spokes]
    splits_edge: bool = False


MOVE_TABLE = {
    VERTEX_ADDITION: MoveShape(2, lambda a, v: ((a[0], (0,)), (a[1], (1,)))),
    EDGE_SPLIT: MoveShape(
        3, lambda a, v: ((a[0], (0,)), (a[1], (0,)), (a[2], (1, 2))), splits_edge=True
    ),
    DELTA_EXTENSION: MoveShape(1, lambda a, v: ((a[0], (0,)), (v + 1, (0,)))),
}


@dataclass(frozen=True)
class Move:
    """One symmetric move; the new orbit always takes the next three indices."""

    kind: str
    anchors: tuple[int, ...]
    new_vertices: tuple[int, int, int]

    def __post_init__(self):
        if self.kind not in MOVE_TABLE:
            raise InvalidAnchor(f"unknown move kind {self.kind!r}")
        arity = MOVE_TABLE[self.kind].arity
        if len(self.anchors) != arity:
            raise InvalidAnchor(
                f"{self.kind} takes {arity} anchors, got {len(self.anchors)}"
            )

    def as_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "anchors": list(self.anchors),
            "new": list(self.new_vertices),
        }


@dataclass(frozen=True)
class C3Verdict:
    """Outcome of the symmetric isostaticity test, with failure reasons."""

    isostatic: bool
    reasons: tuple[str, ...]
    witness: tuple[int, ...] | int | None


def check_c3_isostatic(sg: SymGraph) -> C3Verdict:
    """Tight counts plus no fixed vertex; reasons name what failed."""
    return _decide(sg)[0]


def _decide(sg: SymGraph) -> tuple[C3Verdict, PebbleGame]:
    """The verdict and the live state of the one game that decided it."""
    act = sg.require_action()
    if sg.graph.n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {sg.graph.n}")
    report = pebble_sparsity(sg.graph)
    return _c3_verdict(act, report), report.game


def _c3_verdict(act: C3Action, report: SparsityReport) -> C3Verdict:
    """The verdict from the graph's sparsity report and its rotation."""
    reasons: list[str] = []
    witness: tuple[int, ...] | int | None = None
    if report.edge_count != report.target:
        reasons.append("count")
    if not report.is_sparse:
        reasons.append("subgraph_sparsity")
        witness = report.witness
    fixed = act.fixed_vertices()
    if fixed:
        reasons.append("fixed_vertex")
        if witness is None:
            witness = fixed[0]
    return C3Verdict(isostatic=not reasons, reasons=tuple(reasons), witness=witness)


def move_spokes(
    move: Move, gamma: Sequence[int], has_edge: Callable[[Edge], bool]
) -> tuple[Spokes, Edge | None]:
    """Check a move against the graph it extends; return its spokes and split edge.

    ``gamma`` is the graph's rotation in one-line form and ``has_edge`` tests
    membership in its edge set. Raises what ``apply_move`` raises for a move
    that does not fit.
    """
    n = len(gamma)
    if move.new_vertices != (n, n + 1, n + 2):
        raise InvalidAnchor(
            f"move expects new vertices {move.new_vertices}, graph has {n} vertices"
        )
    anchors = move.anchors
    if not all(0 <= x < n for x in anchors):
        raise InvalidAnchor(f"anchors {anchors} out of range")
    split = None
    if MOVE_TABLE[move.kind].splits_edge:
        split = edge(anchors[0], anchors[1])
        if not has_edge(split):
            raise MissingEdge(f"({anchors[0]}, {anchors[1]}) is not an edge")
    if len(set(anchors)) != len(anchors):
        raise InvalidAnchor("anchor vertices must be distinct")
    if split is not None and edge_orbit(split, gamma)[1] == split:
        raise DegenerateMove("the split edge is fixed by the rotation")
    if move.kind == DELTA_EXTENSION and gamma[anchors[0]] == anchors[0]:
        raise FixedAnchor(f"vertex {anchors[0]} is fixed by the rotation")
    return MOVE_TABLE[move.kind].spokes(anchors, n), split


def apply_move(sg: SymGraph, move: Move) -> SymGraph:
    """Add the move's vertex orbit and edge orbits; remove the split edge orbit."""
    act = sg.require_action()
    g = sg.graph
    spokes, split = move_spokes(move, act.gamma, g.edges.__contains__)
    n = g.n
    gamma = act.gamma + (n + 1, n + 2, n)
    edges = g.edges
    if split is not None:
        edges = edges - frozenset(edge_orbit(split, gamma))
    added = frozenset(e for x, _ in spokes for e in edge_orbit((n, x), gamma))
    return SymGraph(Graph(n + 3, edges | added), C3Action(gamma))


def _new_orbit(sg: SymGraph) -> tuple[int, int, int]:
    n = sg.graph.n
    return (n, n + 1, n + 2)


def apply_vertex_addition(sg: SymGraph, v1: int, v2: int) -> SymGraph:
    """Hang a new orbit of valence-2 vertices on the anchor pair (v1, v2)."""
    return apply_move(sg, Move(VERTEX_ADDITION, (v1, v2), _new_orbit(sg)))


def apply_edge_split(sg: SymGraph, v1: int, v2: int, v3: int) -> SymGraph:
    """Remove the edge orbit of {v1, v2}; join a new orbit to v1, v2, v3."""
    return apply_move(sg, Move(EDGE_SPLIT, (v1, v2, v3), _new_orbit(sg)))


def apply_delta_extension(sg: SymGraph, v0: int) -> SymGraph:
    """Attach a new triangle orbit by one spoke to each vertex of v0's orbit."""
    return apply_move(sg, Move(DELTA_EXTENSION, (v0,), _new_orbit(sg)))


def canonical_base() -> SymGraph:
    """The triangle on 0, 1, 2 with the rotation 0 -> 1 -> 2 -> 0."""
    graph = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    return SymGraph(graph, C3Action((1, 2, 0)))


@dataclass(frozen=True)
class ConstructionSequence:
    """A replayable build recipe from the triangle base.

    ``relabeling`` maps each replay-side vertex to the vertex of the graph
    the sequence was extracted from, so the round trip can be checked by a
    direct relabel instead of an isomorphism search.
    """

    base: SymGraph
    moves: tuple[Move, ...]
    relabeling: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.base != canonical_base():
            raise InvalidAnchor("sequence base must be the canonical triangle")

    def as_json_dict(self) -> dict:
        from .graphs import serialize_graph

        doc = {
            "base": serialize_graph(self.base),
            "moves": [m.as_json_dict() for m in self.moves],
        }
        if self.relabeling is not None:
            doc["relabeling"] = list(self.relabeling)
        return doc


def replay_sequence(seq: ConstructionSequence) -> SymGraph:
    """Rebuild the graph with one live pebble game, validating every move.

    Each move is checked by ``move_spokes``; the game must accept each of
    its new edges and the edge count must be 2n - 3 after it, or
    ``IntermediateNotTight`` is raised. The rotation never fixes a new
    vertex, so every intermediate graph is symmetrically isostatic.
    """
    base = seq.base.graph
    gamma = list(seq.base.action.gamma)
    edges = set(base.edges)
    game = PebbleGame(base.n)
    for u, v in base.sorted_edges:
        game.insert_edge(u, v)
    for move in seq.moves:
        spokes, split = move_spokes(move, gamma, edges.__contains__)
        n = len(gamma)
        gamma += (n + 1, n + 2, n)
        for _ in range(3):
            game.add_vertex()
        if split is not None:
            for e in edge_orbit(split, gamma):
                edges.remove(e)
                game.delete_edge(*e)
        added = [e for x, _ in spokes for e in edge_orbit((n, x), gamma)]
        edges.update(added)
        if not all(game.insert_edge(*e) for e in added) or len(edges) != 2 * n + 3:
            raise IntermediateNotTight(
                f"replay produced a bad intermediate after {move.kind}"
            )
    return SymGraph(Graph(len(gamma), frozenset(edges)), C3Action(tuple(gamma)))


def _compact(
    sg: SymGraph, removed: tuple[int, int, int], added_edges: Iterable[Edge]
) -> tuple[SymGraph, list[int], tuple[int, ...]]:
    """Drop an orbit, renumber the survivors, splice in replacement edges.

    Returns the reduced graph, the old->new map (only meaningful on
    survivors) and the map from rebuilt labels back to these: the survivors
    in ascending order, then the removed orbit.
    """
    g = sg.graph
    act = sg.action
    gone = set(removed)
    survivors = [x for x in range(g.n) if x not in gone]
    down = [-1] * g.n
    for i, old in enumerate(survivors):
        down[old] = i
    kept = {
        (down[u], down[v])
        for u, v in g.edges
        if u not in gone and v not in gone
    }
    for u, v in added_edges:
        kept.add(edge(down[u], down[v]))
    gamma = [0] * len(survivors)
    for old in survivors:
        gamma[down[old]] = down[act.gamma[old]]
    reduced = SymGraph(Graph(len(survivors), frozenset(kept)), C3Action(tuple(gamma)))
    return reduced, down, tuple(survivors) + removed


def _reduce_step(
    sg: SymGraph, game: PebbleGame, label: Sequence[int]
) -> tuple[SymGraph, Move, tuple[int, ...]]:
    """One inverse move, chosen deterministically.

    Returns the reduced graph, the forward move that rebuilds the input from
    it, and the vertex map from the rebuilt labels back to the input labels
    (survivors first in order, then the removed orbit in rotation order).
    The input must have more than three vertices.

    ``game`` holds the input's edges, vertex x as ``label[x]``, and is
    brought to the reduced graph's. The vertex-addition and delta reductions
    only delete edges, so they stay tight by counting; every edge the edge
    split reductions add must be accepted, or ``InternalInvariantBroken`` is
    raised.
    """
    g = sg.graph
    act = sg.action
    n = g.n
    gamma, gamma2 = act.gamma, act.gamma2
    deg = g.degrees()
    adj = g.adjacency()

    def delete(vertices):
        for u, w in {edge(x, y) for x in vertices for y in adj[x]}:
            game.delete_edge(label[u], label[w])

    def insert(edges):
        for u, w in edges:
            if not game.insert_edge(label[u], label[w]):
                raise InternalInvariantBroken(f"re-knit edge ({u}, {w}) breaks the counts")

    low2 = [x for x in range(n) if deg[x] == 2]
    if low2:
        v = low2[0]
        orbit = (v, gamma[v], gamma2[v])
        if any(g.has_edge(a, b) for a, b in combinations(orbit, 2)):
            raise InternalInvariantBroken("valence-2 orbit is not independent")
        v1, v2 = sorted(adj[v])
        delete(orbit)
        reduced, down, iso = _compact(sg, orbit, ())
        move = Move(VERTEX_ADDITION, (down[v1], down[v2]), (n - 3, n - 2, n - 1))
        return reduced, move, iso

    low3 = [x for x in range(n) if deg[x] == 3]
    if not low3:
        raise InternalInvariantBroken("tight graph without a valence-2 or -3 vertex")
    v = low3[0]
    orbit = (v, gamma[v], gamma2[v])
    neighbors = sorted(adj[v])

    if gamma[v] in adj[v]:
        # The orbit spans a triangle: undo a delta extension on the one
        # neighbor outside the orbit.
        rest = [x for x in neighbors if x not in orbit]
        if len(rest) != 1:
            raise InternalInvariantBroken("triangle orbit with malformed spokes")
        v0 = rest[0]
        delete(orbit)
        reduced, down, iso = _compact(sg, orbit, ())
        move = Move(DELTA_EXTENSION, (down[v0],), (n - 3, n - 2, n - 1))
        return reduced, move, iso

    # From here on v's neighbors lie outside its orbit: an edge (v, gamma^2 v)
    # would rotate to (gamma v, v).
    rep = neighbors[0]
    rep_orbit = {rep, gamma[rep], gamma2[rep]}
    triangle = edge_orbit((rep, gamma[rep]), gamma)
    if set(neighbors) == rep_orbit and not any(e in g.edges for e in triangle):
        # The whole neighborhood is one orbit: undo an edge split whose
        # removed orbit is the triangle on that orbit. A tight graph can
        # never already hold one of the triangle edges here, but if it did
        # the tried-pair reduction below still applies, so fall through.
        delete(orbit)
        insert(triangle)
        reduced, down, iso = _compact(sg, orbit, triangle)
        a, b = sorted((down[rep], down[gamma[rep]]))
        move = Move(EDGE_SPLIT, (a, b, down[gamma2[rep]]), (n - 3, n - 2, n - 1))
        return reduced, move, iso

    # Tried-pair reduction: the first anchor pair {a, b} whose edge the game
    # accepts once v's edges are gone (G - v + ab is tight), then the rest
    # of the orbit is removed and the rest of that pair's edge orbit added.
    # A rejected pair leaves the game holding G - v, ready for the next one.
    delete((v,))
    chosen = None
    for a, b in combinations(neighbors, 2):
        if not g.has_edge(a, b) and game.insert_edge(label[a], label[b]):
            chosen = (a, b)
            break
    if chosen is None:
        raise InternalInvariantBroken("no anchor pair re-knits the deletion")
    a, b = chosen
    c = next(x for x in neighbors if x not in chosen)
    pair_orbit = edge_orbit((a, b), gamma)
    if len(set(pair_orbit)) != 3 or any(e in g.edges for e in pair_orbit):
        raise InternalInvariantBroken("chosen pair orbit collides with the graph")
    delete(orbit[1:])
    insert(pair_orbit[1:])
    reduced, down, iso = _compact(sg, orbit, pair_orbit)
    move = Move(EDGE_SPLIT, (down[a], down[b], down[c]), (n - 3, n - 2, n - 1))
    return reduced, move, iso


def extract_sequence(sg: SymGraph) -> ConstructionSequence:
    """Reduce to the triangle, reverse the moves, verify the round trip.

    The input's verdict is the one pebble game on it; ``NotIsostatic``
    carries that verdict. That game stays live through the reduction, in
    input labels, and decides every edge a reduction step adds. The round
    trip replays the sequence with a game of its own, checking each
    intermediate graph, and compares the relabeled result with the input.
    """
    verdict, game = _decide(sg)
    if not verdict.isostatic:
        raise NotIsostatic(f"failed conditions: {', '.join(verdict.reasons)}", verdict)
    steps = []
    cur = sg
    label = list(range(sg.graph.n))
    while cur.graph.n > 3:
        cur, move, iso = _reduce_step(cur, game, label)
        label = [label[x] for x in iso[: cur.graph.n]]
        steps.append((move, iso))

    # Normalize the reduced triangle onto the canonical base; the only other
    # possible action is the opposite rotation, absorbed by swapping 1 and 2.
    psi = [0, 1, 2] if cur.action.gamma == (1, 2, 0) else [0, 2, 1]

    moves = []
    for move, iso in reversed(steps):
        k = len(psi)
        if move.new_vertices != (k, k + 1, k + 2):
            raise InternalInvariantBroken("reduction sizes are inconsistent")
        inv = [0] * k
        for x, y in enumerate(psi):
            inv[y] = x
        moves.append(Move(move.kind, tuple(inv[a] for a in move.anchors), (k, k + 1, k + 2)))
        psi = [iso[y] for y in psi] + [iso[k], iso[k + 1], iso[k + 2]]

    seq = ConstructionSequence(canonical_base(), tuple(moves), tuple(psi))
    try:
        rebuilt = relabel_symgraph(replay_sequence(seq), seq.relabeling)
    except C3RigError as exc:
        raise InternalInvariantBroken(f"round trip fails: {exc}") from exc
    if rebuilt != sg:
        raise InternalInvariantBroken("round trip does not reproduce the input")
    return seq
