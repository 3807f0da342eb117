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
With two pebbles on each end either could pay; in sorted order (u < v) the
next edges are u's, so leaving u both pebbles spares them a search (6641
searches instead of 10214 on ``tests.corpus.fast_tight_symgraph(11, 3000)``).

On rejection, the set R of vertices reachable from the offending edge's
endpoints u, v in the pebble digraph induces a subgraph with |E| >= 2|V| - 2
once the edge is counted, which is the violation witness reported here. R is
closed and its only free pebbles are the 3 on u and v, so it spans exactly
2|R| - 3 accepted edges. A set T that holds u and v and spans 2|T| - 3
accepted edges holds those 3 pebbles too, so no edge leaves it and T contains
R: R is the unique minimal such set. It depends on the graph and the edge
order only, not on the orientation, so neither the search order nor the
choice of the endpoint that pays can change a witness.

``PebbleGame`` is that game as a live state that also takes edge deletions;
``pebble_sparsity`` feeds a fresh one the sorted edges, and the extractor
keeps the input's game live for all its reduction steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import TooFewVertices, TooLarge
from .graphs import Graph


class PebbleGame:
    """A live (2,3)-pebble game on a fixed vertex set.

    Each vertex holds two tokens, split between its free pebbles and its
    out-edges in the pebble digraph. ``insert_edge`` accepts an edge exactly
    when the accepted edges plus it stay sparse; it pulls pebbles in by
    reversing paths, which leaves a valid state whether or not the edge is
    accepted. An accepted edge (u, v) takes its pebble from v, the later
    end in sorted order, and leaves u's for the edges at u that follow.
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
    """The outcome of one from-scratch game.

    ``game`` is that game's live state: every accepted edge, up to the
    first rejected one, in the game's labels (see ``pebble_sparsity``).
    """

    is_sparse: bool
    is_tight: bool
    witness: tuple[int, ...] | None
    edge_count: int
    target: int
    game: PebbleGame = field(compare=False, repr=False)


def pebble_sparsity(g: Graph) -> SparsityReport:
    """Run the (2,3)-pebble game over the edges in sorted order, on the
    vertices that lie on an edge (in label order, so with the input's labels
    on a tight graph): a vertex on no edge joins no count and no witness."""
    n = g.n
    if n < 2:
        raise TooFewVertices(f"need at least 2 vertices, got {n}")
    target = 2 * n - 3
    edges = g.sorted_edges
    used = set(chain.from_iterable(edges))
    labels = range(n)
    if len(used) < n:
        labels = sorted(used)
        place = {v: i for i, v in enumerate(labels)}
        edges = [(place[u], place[v]) for u, v in edges]
    game = PebbleGame(len(used))
    insert = game.insert_edge
    for u, v in edges:
        if not insert(u, v):
            witness = tuple(labels[x] for x in sorted(game.region(u, v)))
            return SparsityReport(False, False, witness, g.m, target, game)
    return SparsityReport(True, g.m == target, None, g.m, target, game)


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
