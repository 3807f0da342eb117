"""Plane count conditions, decided by the (2,3)-pebble game.

A graph on n >= 2 vertices is sparse when every subgraph H with at least two
vertices has |E(H)| <= 2|V(H)| - 3, and tight when additionally |E| = 2n - 3
(Laman's conditions). The pebble game decides this in O(n m): every vertex
starts with two pebbles, and an edge is accepted once four pebbles sit on its
endpoints, after which the edge is oriented and paid for with one pebble of
its tail. Pebbles are pulled toward an endpoint by reversing directed paths:
each search is breadth-first, takes the nearest free pebble and reverses a
shortest path to it.

Edge (u, v) is paid for by v, its second endpoint, and oriented v -> u.
With two pebbles on each end either could pay; when the edges at u come
next, leaving u both pebbles spares them a search. The deciding game plays
the edges in degree order (``Graph.degree_order``), each from its
lower-placed end: an edge between low-degree vertices meets few paths, so
the searches on ``tests.corpus.fast_tight_symgraph(11, 960)`` visit 11199
vertices in all, against 63835 in sorted order.

On rejection, the set R of vertices reachable from the offending edge's
endpoints u, v in the pebble digraph induces a subgraph with |E| >= 2|V| - 2
once the edge is counted, which is the violation witness reported here. R is
closed and its only free pebbles are the 3 on u and v, so it spans exactly
2|R| - 3 accepted edges. A set T that holds u and v and spans 2|T| - 3
accepted edges holds those 3 pebbles too, so no edge leaves it and T contains
R: R is the unique minimal such set. It depends on the graph and the edge
order only, not on the orientation, so neither the search order nor the
choice of the endpoint that pays can change a witness.

The witness reported is R at the first rejection in sorted order: for the
sorted edges E, the first E[k] with E[:k + 1] dependent, and R its region
against E[:k]. That R depends on those edges only, not on the order they
were played in, so no game plays them in sorted order. With n' vertices on
an edge, at most 2n' - 3 edges are independent, so E[k] lies among the
first 2n' - 2 sorted edges: only those are played, once, in degree order.
If the game rejects one, the same game is walked down by deleting edges
until it holds exactly E[:k], and E[k] is offered again for R
(``_walk_down``).

``PebbleGame`` is that game as a live state that also takes edge deletions.
``pebble_sparsity`` always plays a fresh one; ``Graph.sparsity`` keeps its
report on the graph, and the extractor reduces a copy of that game.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

from .errors import InternalInvariantBroken, TooFewVertices, TooLarge
from .graphs import Edge, Graph


class PebbleGame:
    """A live (2,3)-pebble game on a fixed vertex set.

    Each vertex holds two tokens, split between its free pebbles and its
    out-edges in the pebble digraph. ``insert_edge`` accepts an edge exactly
    when the accepted edges plus it stay sparse; it pulls pebbles in by
    reversing paths, which leaves a valid state whether or not the edge is
    accepted. An accepted edge (u, v) takes its pebble from v, the later
    end in the order the edges come in, and leaves u's for the edges at u
    that follow.
    ``delete_edge`` returns the edge's pebble to its tail, so the game
    never has to start over after a deletion (Jacobs & Hendrickson 1997;
    Lee & Streinu 2008). The free pebbles always total 2n - |E|.
    """

    def __init__(self, n: int):
        self.pebbles = [2] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self._visited = [0] * n
        self._parent = [-1] * n
        self._stamp = 0

    def copy(self) -> PebbleGame:
        """A game in the same state that plays on without touching this one."""
        game = PebbleGame(len(self.pebbles))
        game.pebbles[:] = self.pebbles
        game.out = [heads[:] for heads in self.out]
        return game

    def insert_edge(self, u: int, v: int) -> bool:
        """Accept the edge if four pebbles reach u and v; v pays, v -> u."""
        pebbles = self.pebbles
        gather = self._gather
        while pebbles[u] + pebbles[v] < 4:
            if pebbles[u] < 2 and gather(u, u, v):
                continue
            if pebbles[v] < 2 and gather(v, u, v):
                continue
            # Neither endpoint can pull in another pebble: the reachable
            # region is closed and carries at most 3 pebbles, all on u, v.
            return False
        pebbles[v] -= 1
        self.out[v].append(u)
        return True

    def delete_edge(self, u: int, v: int) -> None:
        """Remove an accepted edge and return its pebble to its tail."""
        out = self.out
        if v in out[u]:
            out[u].remove(v)
            self.pebbles[u] += 1
        else:
            out[v].remove(u)
            self.pebbles[v] += 1

    def region(self, u: int, v: int) -> list[int]:
        """The vertices reachable from u and v in the pebble digraph.

        Right after ``insert_edge(u, v)`` is rejected, they induce a
        subgraph with |E| >= 2|V| - 2 once the edge is counted.
        """
        out, visited = self.out, self._visited
        self._stamp += 1
        stamp = self._stamp
        visited[u] = visited[v] = stamp
        stack = [u, v]
        region = [u, v]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if visited[y] != stamp:
                    visited[y] = stamp
                    region.append(y)
                    stack.append(y)
        return region

    def _gather(self, root: int, u: int, v: int) -> bool:
        # Breadth-first from root along the digraph for the nearest free
        # pebble outside {u, v}; on success reverse that shortest path and
        # move the pebble to root. The queue only grows, so iterating it is
        # the search.
        out, pebbles = self.out, self.pebbles
        visited, parent = self._visited, self._parent
        self._stamp += 1
        stamp = self._stamp
        visited[root] = stamp
        parent[root] = -1
        queue = [root]
        for x in queue:
            for y in out[x]:
                if visited[y] == stamp:
                    continue
                visited[y] = stamp
                parent[y] = x
                if pebbles[y] > 0 and y != u and y != v:
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    node = y
                    while node != root:
                        prev = parent[node]
                        out[prev].remove(node)
                        out[node].append(prev)
                        node = prev
                    return True
                queue.append(y)
        return False


@dataclass(frozen=True)
class SparsityReport:
    """The outcome of deciding a graph from scratch.

    ``game`` is the live state of the game that decided it, in the game's
    labels (see ``pebble_sparsity``): for a sparse graph every edge, played
    in degree order; for any other graph the sorted edges before the first
    one a sorted game rejects, played in degree order and walked down to,
    with that edge offered last and rejected.
    """

    is_sparse: bool
    is_tight: bool
    witness: tuple[int, ...] | None
    edge_count: int
    target: int
    game: PebbleGame = field(compare=False, repr=False)

    def as_json_dict(self) -> dict:
        """Its fields but the game; the witness is passed through, not copied."""
        return {
            "is_sparse": self.is_sparse,
            "is_tight": self.is_tight,
            "edge_count": self.edge_count,
            "target": self.target,
            "witness": self.witness,
        }


def pebble_sparsity(g: Graph) -> SparsityReport:
    """Decide the counts on the vertices that lie on an edge (in label
    order, so with the input's labels on a tight graph): a vertex on no
    edge joins no count and no witness.

    With n' such vertices, one game plays the first 2n' - 2 sorted edges
    in degree order (``_play_in_degree_order``). If it accepts them all,
    the graph is sparse and that game is the report's. Otherwise
    ``_walk_down`` takes the same game down to the sorted prefix before
    the first sorted rejection, whose region is the witness.
    """
    n = g.n
    if n < 2:
        raise TooFewVertices(f"need at least 2 vertices, got {n}")
    target = 2 * n - 3
    played = g
    used = set(chain.from_iterable(g.sorted_edges))
    labels = range(n)
    if len(used) < n:
        labels = sorted(used)
        place = {v: i for i, v in enumerate(labels)}
        played = Graph._checked(len(labels), tuple((place[u], place[v]) for u, v in g.sorted_edges))
    edges = played.sorted_edges[: 2 * played.n - 2]
    game = PebbleGame(played.n)
    rejected = _play_in_degree_order(game, played.degree_order, edges)
    if not rejected:
        return SparsityReport(True, g.m == target, None, g.m, target, game)
    u, v = _walk_down(game, edges, rejected)
    witness = tuple(labels[x] for x in sorted(game.region(u, v)))
    return SparsityReport(False, False, witness, g.m, target, game)


def _play_in_degree_order(game: PebbleGame, place: tuple[int, ...], edges: tuple[Edge, ...]) -> list[int]:
    """Play the edges on ``game`` in degree order and return the keys of the
    ones it rejects (``_circuit_top``), none when it accepts them all.

    Vertices go by their ``place`` in ``Graph.degree_order``; an edge goes in
    with its lower-placed end first, in order of (lower place, higher
    place), so the higher end pays.
    """
    n = len(place)
    vertex = [0] * n
    for x, i in enumerate(place):
        vertex[i] = x
    keys = []
    for u, v in edges:
        a, b = place[u], place[v]
        keys.append(a * n + b if a < b else b * n + a)
    keys.sort()
    insert = game.insert_edge
    rejected = []
    for key in keys:
        a, b = divmod(key, n)
        u, v = vertex[a], vertex[b]
        if not insert(u, v):
            rejected.append(u * n + v if u < v else v * n + u)
    return rejected


def _circuit_top(game: PebbleGame, u: int, v: int) -> int:
    """Right after ``insert_edge(u, v)`` is rejected, with u < v: the top key
    on the edge's circuit. An edge (x, y) with x < y has key x n + y, so
    keys go in sorted order.

    The circuit is the edge plus the accepted edges inside its region R, the
    ones whose deletion would let it in. R is closed, so those are the
    out-edges of R's vertices.
    """
    n, out = len(game.out), game.out
    return max(u * n + v, max(x * n + y if x < y else y * n + x for x in game.region(u, v) for y in out[x]))


def _walk_down(game: PebbleGame, edges: tuple[Edge, ...], rejected: list[int]) -> Edge:
    """Delete edges from the finished degree-ordered game on ``edges`` until
    it holds exactly ``edges[:k]``, where ``edges[k]`` is the first edge a
    sorted game rejects; offer ``edges[k]`` once more and return it.

    At level j the game holds an independent part A of ``edges[:j]``, and
    every other edge p of ``edges[:j]`` is pending. The circuit of p in
    A + p is either known, by its top key t(p), or unknown. The edges up to
    t(p) hold that circuit, so ``edges[k]`` comes no later than t(p). While
    no circuit is known, the unknown edges are offered again in sorted
    order until one is rejected; an accepted one joins A. Then the walk
    goes down to the level just above the lowest t(p), or one level when
    that is no lower: it deletes the accepted edges from there up and drops
    the pending ones. A known p with t(p) at or above the new level lost a
    circuit edge, so its circuit is unknown now. No other circuit changes:
    deleting an edge off a circuit, or accepting one, leaves it, and no
    edge inside a tight region is ever accepted. The walk stops at the
    first level with nothing pending, j = k.

    Some offers have a forced outcome, and the walk checks them. At the
    start A is a basis, so the first offer must be rejected. A one-level
    step past an accepted edge e, with every circuit known, comes when all
    of them hold e: the first edge offered again must be accepted, since
    A - e + p is a basis, and the next must be rejected. Offering
    ``edges[k]`` against ``edges[:k]`` must be rejected. The witness needs
    no game in sorted order: the region of ``edges[k]`` against
    ``edges[:k]`` depends on those edges alone.
    """
    n = len(game.out)
    insert, delete = game.insert_edge, game.delete_edge
    # pending edge's key -> the top key on its circuit, None if unknown
    tops: dict[int, int | None] = dict.fromkeys(rejected)
    unknown = sorted(rejected, reverse=True)
    # True until an offer must be accepted, False while each must be
    # rejected, None while either is sound.
    must_accept: bool | None = False
    j = len(edges)
    while True:
        while unknown and len(unknown) == len(tops):
            key = unknown.pop()
            u, v = divmod(key, n)
            if insert(u, v):
                if must_accept is False:
                    raise InternalInvariantBroken(f"edge {(u, v)} accepted though the game spans it")
                del tops[key]
            elif must_accept:
                raise InternalInvariantBroken(f"no pending edge takes the place of edge {edges[j]}")
            else:
                tops[key] = _circuit_top(game, u, v)
            if must_accept:
                must_accept = False
        if not tops:
            break
        top = bisect_left(edges, divmod(min(t for t in tops.values() if t is not None), n))
        level = min(top + 1, j - 1)
        x, y = edges[level]
        bottom = x * n + y
        # one level down past the top of every circuit, all of them known
        must_accept = top == level and bottom not in tops and not unknown or None
        for x, y in edges[level:j]:
            key = x * n + y
            if key in tops:
                del tops[key]
            else:
                delete(x, y)
        lost = [key for key, t in tops.items() if t is not None and t >= bottom]
        for key in lost:
            tops[key] = None
        unknown = sorted([key for key in unknown if key in tops] + lost, reverse=True)
        j = level
    if insert(*edges[j]) or sum(map(len, game.out)) != j:
        raise InternalInvariantBroken(f"the game does not hold the sorted prefix that edge {edges[j]} closes")
    return edges[j]


def laman_check(g: Graph) -> bool:
    """True iff the graph is (2,3)-tight."""
    return g.sparsity.is_tight


def brute_force_laman(g: Graph) -> bool:
    """Check the count conditions literally, over every vertex subset.

    Independent of the pebble game; usable as an oracle up to n = 14.
    """
    n = g.n
    if n > 14:
        raise TooLarge(f"enumeration bound is 14 vertices, got {n}")
    if g.m != 2 * n - 3:
        return False
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for subset in range(1, 1 << n):
        k = subset.bit_count()
        if k < 2:
            continue
        inner = 0
        rest = subset
        while rest:
            low = rest & -rest
            inner += (adj[low.bit_length() - 1] & subset).bit_count()
            rest ^= low
        if inner // 2 > 2 * k - 3:
            return False
    return True
