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
replayable certificate. One walk of it, at most once per sequence, checks every
move and rebuilds the graph's rotation and edge set and its tree partition
(``trees.build_tree_partition``). The extraction compares that rotation and
edge set with the input through the sequence's relabeling, building neither a
replayed nor a relabeled graph; ``replay_sequence`` builds the validated
replayed graph for its callers. The reduction plays on a copy of the pebble
game that decided the input (``Graph.sparsity``) instead of starting a new game
per step; the walk runs no game, as every row of the move table keeps a graph
tight. The reduction also keeps one live graph, as adjacency sets and an alive
mask in the input's labels: each step removes the orbit of the smallest live
label of lowest valence (kept in min-heaps by valence), touches only that
orbit's edges, and returns its anchors in input labels. They are mapped to
replay labels once, in a backward pass from the last triangle.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
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
)
from .graphs import (
    C3Action,
    Edge,
    Graph,
    SymGraph,
    edge,
    edge_orbit,
    serialize_graph,
)
from .pebble import PebbleGame

VERTEX_ADDITION = "VertexAddition"
EDGE_SPLIT = "EdgeSplit"
DELTA_EXTENSION = "DeltaExtension"

Spokes = tuple[tuple[int, tuple[int, ...]], ...]
EdgeOrbit = tuple[Edge, Edge, Edge]


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

    def as_json_dict(self) -> dict:
        """Its fields; the witness is passed through, not copied."""
        return {"isostatic": self.isostatic, "reasons": self.reasons, "witness": self.witness}


def check_c3_isostatic(sg: SymGraph) -> C3Verdict:
    """Tight counts plus no fixed vertex; reasons name what failed."""
    fixed = sg.require_action().fixed_vertices()
    report = sg.graph.sparsity
    reasons: list[str] = []
    witness: tuple[int, ...] | int | None = None
    if report.edge_count != report.target:
        reasons.append("count")
    if not report.is_sparse:
        reasons.append("subgraph_sparsity")
        witness = report.witness
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
    if split is not None and edge(gamma[anchors[0]], gamma[anchors[1]]) == split:
        raise DegenerateMove("the split edge is fixed by the rotation")
    if move.kind == DELTA_EXTENSION and gamma[anchors[0]] == anchors[0]:
        raise FixedAnchor(f"vertex {anchors[0]} is fixed by the rotation")
    return MOVE_TABLE[move.kind].spokes(anchors, n), split


def _extend(
    move: Move, gamma: list[int], edges: set[Edge]
) -> tuple[Spokes, EdgeOrbit | None, list[EdgeOrbit]]:
    """Apply ``move``, checked by ``move_spokes``, in place to the rotation
    ``gamma`` and the edge set ``edges``: add its vertex orbit and spoke
    orbits, and remove its split edge orbit. The one move application;
    returns the spokes that ``move_spokes`` gave, the removed split edge
    orbit (None for a move that splits no edge) and each spoke's edge
    orbit, in the order of the spokes."""
    spokes, split = move_spokes(move, gamma, edges.__contains__)
    n = len(gamma)
    gamma += (n + 1, n + 2, n)
    cut = None
    if split is not None:
        cut = edge_orbit(split, gamma)
        edges.difference_update(cut)
    orbits = [edge_orbit((n, x), gamma) for x, _ in spokes]
    for orbit in orbits:
        edges.update(orbit)
    return spokes, cut, orbits


def apply_move(sg: SymGraph, move: Move) -> SymGraph:
    """Add the move's vertex orbit and edge orbits; remove the split edge orbit."""
    gamma, edges = list(sg.require_action().gamma), set(sg.graph.edges)
    _extend(move, gamma, edges)
    return SymGraph(Graph(len(gamma), frozenset(edges)), C3Action(tuple(gamma)))


def canonical_base() -> SymGraph:
    """The triangle on 0, 1, 2 with the rotation 0 -> 1 -> 2 -> 0."""
    graph = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    return SymGraph(graph, C3Action((1, 2, 0)))


@dataclass(frozen=True)
class ConstructionSequence:
    """A replayable build recipe from the triangle base.

    ``relabeling`` maps each replay-side vertex to the vertex of the graph
    the sequence was extracted from, so the round trip can be checked
    through it directly instead of by an isomorphism search.
    """

    base: SymGraph
    moves: tuple[Move, ...]
    relabeling: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.base != canonical_base():
            raise InvalidAnchor("sequence base must be the canonical triangle")

    def as_json_dict(self) -> dict:
        doc = {
            "base": serialize_graph(self.base),
            "moves": [m.as_json_dict() for m in self.moves],
        }
        if self.relabeling is not None:
            doc["relabeling"] = list(self.relabeling)
        return doc

    @cached_property
    def _walked(
        self,
    ) -> tuple[tuple[int, ...], frozenset[Edge], tuple[frozenset[Edge], ...]]:
        """The replayed rotation in one-line form, edge set and trees, from
        one walk, kept on the sequence (a walk that raises keeps nothing).
        The rotation and edges are raw data, checked by no constructor:
        ``extract_sequence`` compares them with its validated input and
        ``replay_sequence`` builds a validated graph of them. Each move is
        applied by ``_extend`` and its count checked before any tree
        changes, so a short move raises ``IntermediateNotTight`` for both
        certificates. Then, for the first tree index l that fits (``_fit``),
        tree l + o + j receives the j-th rotation image of each spoke with
        tree offset o, and an edge split takes the j-th image of its split
        edge out of tree l + j.
        """
        gamma = list(self.base.action.gamma)
        edges = set(self.base.graph.edges)
        trees: list[set[Edge]] = [{(0, 1)}, {(1, 2)}, {(0, 2)}]
        # Splitting edge (v1, v2) out of a tree leaves v1 and v2 in it, as
        # their new spokes join the same tree, so vertex sets only ever grow.
        vsets: list[set[int]] = [{0, 1}, {1, 2}, {0, 2}]
        for move in self.moves:
            spokes, cut, orbits = _extend(move, gamma, edges)
            if len(edges) != 2 * len(gamma) - 3:
                raise IntermediateNotTight(
                    f"replay produced a bad intermediate after {move.kind}"
                )
            l, offsets = _fit(move, spokes, cut, trees, vsets)
            if cut is not None:
                if cut[1] not in trees[(l + 1) % 3] or cut[2] not in trees[(l + 2) % 3]:
                    raise InternalInvariantBroken("edge orbit not spread over the trees")
                for j in range(3):
                    trees[(l + j) % 3].remove(cut[j])
            for orbit, o in zip(orbits, offsets):
                for j, e in enumerate(orbit):
                    t = (l + o + j) % 3
                    trees[t].add(e)
                    vsets[t].update(e)
        return tuple(gamma), frozenset(edges), tuple(map(frozenset, trees))


def replay_sequence(seq: ConstructionSequence) -> SymGraph:
    """Rebuild the graph from the triangle, validating every move.

    It is built of the rotation and edges of the sequence's one walk, which
    also builds its trees (``ConstructionSequence._walked``), and the
    ``Graph``, ``C3Action`` and ``SymGraph`` constructors validate it on
    every call. Each move is checked by ``move_spokes``, and the edge count
    must be 2n - 3 after it, or ``IntermediateNotTight`` is raised. Given
    those checks, every row of ``MOVE_TABLE`` keeps a tight graph tight, so
    no pebble game is run:

    * a vertex addition is three 0-extensions, each new vertex joined to
      two distinct old vertices;
    * an edge split is three 1-extensions, one on each of the three
      distinct edges of a non-fixed edge orbit, each new vertex joined to
      that edge's ends and a third vertex;
    * a delta extension adds a triangle with one spoke to each of three
      distinct anchors. Let a vertex set X hold k >= 1 new vertices and a
      set Y of old ones. X spans t = 0, 1 or 3 triangle edges (k = 1, 2,
      3) and at most min(k, |Y|) spokes, each to its own anchor. With
      |Y| >= 2 that is at most 2k edges beyond Y's 2|Y| - 3; with
      |Y| <= 1 it is at most t + |Y|, within 2|X| - 3 whenever |X| >= 2.

    The rotation never fixes a new vertex, so every intermediate graph is
    symmetrically isostatic.
    """
    gamma, edges, _ = seq._walked
    return SymGraph(Graph(len(gamma), edges), C3Action(gamma))


def _fit(
    move: Move,
    spokes: Spokes,
    cut: EdgeOrbit | None,
    trees: list[set[Edge]],
    vsets: list[set[int]],
) -> tuple[int, list[int]]:
    """The first tree index l that fits the move, with each spoke's offset.

    l fits when it holds the split edge ``cut[0]`` (if the move splits one)
    and every spoke to an old vertex x has an allowed offset o with x in
    tree l + o.
    """
    v = move.new_vertices[0]
    for l in range(3):
        if cut is not None and cut[0] not in trees[l]:
            continue
        offsets = []
        for x, allowed in spokes:
            for o in allowed:
                if x >= v or x in vsets[(l + o) % 3]:
                    offsets.append(o)
                    break
            else:
                break
        else:
            return l, offsets
    raise InternalInvariantBroken(f"no tree index fits the {move.kind} anchors")


def _reduce_step(
    act: C3Action,
    adj: list[set[int]],
    alive: list[bool],
    game: PebbleGame,
    low: dict[int, list[int]],
) -> tuple[str, tuple[int, ...], tuple[int, int, int]]:
    """One inverse move on the live reduced graph, chosen deterministically.

    ``adj`` and ``alive`` hold the reduced graph in the input's labels and
    ``game`` holds its edges; ``low`` maps valences 2 and 3 to min-heaps of
    labels that hold every live vertex of that valence, plus stale entries
    that are dropped when they reach the top. All four are brought to the
    graph one orbit smaller. Returns the move's kind, its anchors and the
    removed orbit in rotation order, all in input labels. The removed vertex
    is the smallest live label of valence 2, else of valence 3. The
    vertex-addition and delta reductions only delete edges, so they stay
    tight by counting; every edge the edge split reductions add must be
    accepted, or ``InternalInvariantBroken`` is raised.
    """
    gamma, gamma2 = act.gamma, act.gamma2

    def touch(x):
        # x's valence just changed: index it under the new one
        if len(adj[x]) in low:
            heappush(low[len(adj[x])], x)

    def link(u, w):
        adj[u].add(w)
        adj[w].add(u)
        touch(u)
        touch(w)

    def drop(vertices):
        for x in vertices:
            for y in adj[x]:
                adj[y].discard(x)
                game.delete_edge(x, y)
                touch(y)
            adj[x].clear()
            alive[x] = False

    def knit(edges):
        for u, w in edges:
            if not game.insert_edge(u, w):
                raise InternalInvariantBroken(f"re-knit edge ({u}, {w}) breaks the counts")
            link(u, w)

    def lowest(valence):
        heap = low[valence]
        while heap and not (alive[heap[0]] and len(adj[heap[0]]) == valence):
            heappop(heap)
        return heap[0] if heap else None

    v = lowest(2)
    if v is not None:
        orbit = (v, gamma[v], gamma2[v])
        if any(b in adj[a] for a, b in combinations(orbit, 2)):
            raise InternalInvariantBroken("valence-2 orbit is not independent")
        anchors = tuple(sorted(adj[v]))
        drop(orbit)
        return VERTEX_ADDITION, anchors, orbit

    v = lowest(3)
    if v is None:
        raise InternalInvariantBroken("tight graph without a valence-2 or -3 vertex")
    orbit = (v, gamma[v], gamma2[v])
    neighbors = sorted(adj[v])

    if gamma[v] in adj[v]:
        # The orbit spans a triangle: undo a delta extension on the one
        # neighbor outside the orbit.
        rest = [x for x in neighbors if x not in orbit]
        if len(rest) != 1:
            raise InternalInvariantBroken("triangle orbit with malformed spokes")
        drop(orbit)
        return DELTA_EXTENSION, (rest[0],), orbit

    # From here on v's neighbors lie outside its orbit: an edge (v, gamma^2 v)
    # would rotate to (gamma v, v).
    rep = neighbors[0]
    triangle = edge_orbit((rep, gamma[rep]), gamma)
    if set(neighbors) == {rep, gamma[rep], gamma2[rep]} and not any(
        w in adj[u] for u, w in triangle
    ):
        # The whole neighborhood is one orbit: undo an edge split whose
        # removed orbit is the triangle on that orbit. A tight graph can
        # never already hold one of the triangle edges here, but if it did
        # the tried-pair reduction below still applies, so fall through.
        drop(orbit)
        knit(triangle)
        return EDGE_SPLIT, triangle[0] + (gamma2[rep],), orbit

    # Tried-pair reduction: the first anchor pair {a, b} whose edge the game
    # accepts once v's edges are gone (G - v + ab is tight), then the rest
    # of the orbit is removed and the rest of that pair's edge orbit added.
    # A rejected pair leaves the game holding G - v, ready for the next one.
    # No edge of the pair orbit touches v's orbit, so dropping v first does
    # not change which of them the graph holds.
    drop((v,))
    for a, b in combinations(neighbors, 2):
        if b not in adj[a] and game.insert_edge(a, b):
            break
    else:
        raise InternalInvariantBroken("no anchor pair re-knits the deletion")
    pair_orbit = edge_orbit((a, b), gamma)
    if len(set(pair_orbit)) != 3 or any(w in adj[u] for u, w in pair_orbit):
        raise InternalInvariantBroken("chosen pair orbit collides with the graph")
    link(a, b)
    drop(orbit[1:])
    knit(pair_orbit[1:])
    c = next(x for x in neighbors if x != a and x != b)
    return EDGE_SPLIT, (a, b, c), orbit


def extract_sequence(sg: SymGraph) -> ConstructionSequence:
    """Reduce to the triangle, reverse the moves, verify the round trip.

    The input's verdict is the one pebble game on it (``Graph.sparsity``);
    ``NotIsostatic`` carries that verdict. The round trip walks the
    sequence, checking each move, and compares the walk's rotation and
    edges with the input through the relabeling (``_relabels_onto``), so a
    returned sequence rebuilds the input whatever the game said.
    """
    verdict = check_c3_isostatic(sg)
    if not verdict.isostatic:
        raise NotIsostatic(f"failed conditions: {', '.join(verdict.reasons)}", verdict)
    seq = _reduce(sg)
    try:
        gamma, edges, _ = seq._walked
    except C3RigError as exc:
        raise InternalInvariantBroken(f"round trip fails: {exc}") from exc
    if not _relabels_onto(gamma, edges, seq.relabeling, sg):
        raise InternalInvariantBroken("round trip does not reproduce the input")
    return seq


def _reduce(sg: SymGraph) -> ConstructionSequence:
    """The sequence that reducing the isostatic ``sg`` reads off, unchecked.

    A copy of the graph's deciding game and the reduced graph stay live
    through the reduction, in input labels, and the game decides every edge
    a reduction step adds; the graph's own game keeps every edge, so each
    extraction from it starts alike.
    """
    act, n = sg.action, sg.graph.n
    game = sg.graph.sparsity.game.copy()
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, w in sg.graph.edges:
        adj[u].add(w)
        adj[w].add(u)
    alive = [True] * n
    # Sorted lists, so already heaps.
    low = {k: [x for x in range(n) if len(adj[x]) == k] for k in (2, 3)}
    # No vertex is fixed, so every orbit has three vertices.
    steps = [_reduce_step(act, adj, alive, game, low) for _ in range(n // 3 - 1)]

    # Replay labels, backward from the last triangle ordered as the canonical
    # base; each removed orbit then takes the next three labels. ``inv`` maps
    # input labels to replay labels, -1 for a vertex not yet placed.
    s0 = alive.index(True)
    psi = [s0, act.gamma[s0], act.gamma2[s0]]
    inv = [-1] * n
    for k, x in enumerate(psi):
        inv[x] = k
    moves = []
    for kind, anchors, orbit in reversed(steps):
        k = len(psi)
        moves.append(Move(kind, tuple(inv[x] for x in anchors), (k, k + 1, k + 2)))
        for x in orbit:
            inv[x] = len(psi)
            psi.append(x)

    return ConstructionSequence(canonical_base(), tuple(moves), tuple(psi))


def _relabels_onto(
    gamma: Sequence[int], edges: frozenset[Edge], perm: Sequence[int], sg: SymGraph
) -> bool:
    """Whether renaming vertex x to perm[x] carries a walk's rotation
    ``gamma`` and edge set ``edges`` onto ``sg``.

    The walk writes each rotation entry in 0..n-1 and each edge sorted
    (``_extend``), and ``sg`` is validated, so five comparisons settle it
    with no graph built: the vertex counts agree, ``perm`` is a permutation
    of 0..n-1, it conjugates ``gamma`` into the input's rotation, the edge
    counts agree, and every renamed edge is an input edge, which with the
    counts makes the renamed edge set the input's. They imply all that the
    ``Graph``, ``C3Action`` and ``SymGraph`` constructors check of the
    walk: ``gamma`` is conjugate to the input's order-3 rotation, and
    ``edges`` is a loop-free edge set that ``gamma`` maps onto itself.
    """
    n, input_edges = sg.graph.n, sg.graph.edges
    if len(gamma) != n or len(perm) != n or set(perm) != set(range(n)):
        return False
    input_gamma = sg.action.gamma
    if list(map(perm.__getitem__, gamma)) != list(map(input_gamma.__getitem__, perm)):
        return False
    if len(edges) != sg.graph.m:
        return False
    for u, v in edges:
        x, y = perm[u], perm[v]
        if ((x, y) if x < y else (y, x)) not in input_edges:
            return False
    return True
