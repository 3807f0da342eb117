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
the edges in degree order (``graphs._degree_order``), each from its
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

The witness reported is R at the first rejection in sorted order, so a
failing graph is played in sorted order too: one with more than 2n - 3
edges from the start, any other on just the edges that lie on a circuit,
which the degree-ordered game found (``pebble_sparsity``).

``PebbleGame`` is that game as a live state that also takes edge deletions;
``pebble_sparsity`` feeds fresh ones, and the extractor keeps the input's
game live for all its reduction steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import TooFewVertices, TooLarge
from .graphs import Edge, Graph, _degree_order, edge


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
                if y != u and y != v and pebbles[y] > 0:
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
    in degree order; for any other graph the circuit edges in sorted order,
    up to the first rejected one.
    """

    is_sparse: bool
    is_tight: bool
    witness: tuple[int, ...] | None
    edge_count: int
    target: int
    game: PebbleGame = field(compare=False, repr=False)


def pebble_sparsity(g: Graph) -> SparsityReport:
    """Decide the counts on the vertices that lie on an edge (in label
    order, so with the input's labels on a tight graph): a vertex on no
    edge joins no count and no witness.

    A graph with at most 2n - 3 edges is played first in degree order
    (``_circuit_edges``), whose searches stay short; if that game accepts
    every edge, it is the report's game. A failing graph is played again in
    sorted order for its witness, on its circuit edges alone when the first
    game found them. That gives the full sorted game's witness: the first
    sorted rejection f and the accepted edges inside its region R form a
    circuit, so f is rejected among the circuit edges too, and R is still
    the minimal tight set around f's ends, since a set tight among the
    circuit edges before f is tight among all the edges before f.
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
    edges = played.sorted_edges
    game = PebbleGame(played.n)
    if g.m <= target:
        circuits = _circuit_edges(game, played)
        if not circuits:
            return SparsityReport(True, g.m == target, None, g.m, target, game)
        game = PebbleGame(played.n)
        edges = [e for e in edges if e in circuits]
    insert = game.insert_edge
    # Circuit edges, or more than 2n - 3 edges, are never all accepted.
    for u, v in edges:
        if not insert(u, v):
            break
    witness = tuple(labels[x] for x in sorted(game.region(u, v)))
    return SparsityReport(False, False, witness, g.m, target, game)


def _circuit_edges(game: PebbleGame, g: Graph) -> set[Edge]:
    """Play g's edges on ``game`` in degree order and return every edge
    that lies on a circuit of the (2,3)-sparsity matroid; none when the
    game accepts them all.

    Vertices go by ``_degree_order``; an edge goes in with its lower-placed
    end first, in order of (lower place, higher place), so the higher end
    pays. A rejected edge f's circuit is f plus the accepted edges inside
    its region: those are the edges in every tight set around f's ends, the
    ones whose removal would let f in. The accepted edges end as a basis B,
    and an accepted edge on some circuit can be traded in B for a rejected
    edge f, so it lies on f's circuit in B + f, the one found when f was
    rejected. So the union is exact.
    """
    n = g.n
    place = _degree_order(g)
    vertex = [0] * n
    for x, i in enumerate(place):
        vertex[i] = x
    keys = []
    for u, v in g.sorted_edges:
        a, b = place[u], place[v]
        keys.append(a * n + b if a < b else b * n + a)
    keys.sort()
    insert, region, out = game.insert_edge, game.region, game.out
    circuits: set[Edge] = set()
    for key in keys:
        a, b = divmod(key, n)
        u, v = vertex[a], vertex[b]
        if not insert(u, v):
            circuits.add(edge(u, v))
            circuits.update(edge(x, y) for x in region(u, v) for y in out[x])
    return circuits


def laman_check(g: Graph) -> bool:
    """True iff the graph is (2,3)-tight."""
    return pebble_sparsity(g).is_tight


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
