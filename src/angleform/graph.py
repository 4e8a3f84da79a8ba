"""Undirected graphs on vertices 1..n, incidence operators, and
triangulated Laman constructions.

Edges are stored canonically: each edge is (i, j) with i < j, and the edge
tuple is sorted lexicographically. The incidence matrix orients every edge
from its smaller to its larger endpoint (+1 at i, -1 at j), so the stacked
edge-difference vector of a configuration p is H_bar @ p_stacked with
block entries p_i - p_j.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidStep, NotAnEdge, VertexOutOfRange


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph. Construct via from_edges for cleanup."""

    n: int
    edges: tuple  # tuple of (i, j), i < j, sorted lexicographically

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        prev = None
        for e in self.edges:
            i, j = e
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge {e} violates 1 <= i < j <= {self.n}")
            if e == prev:  # in sorted order, duplicates are neighbours
                raise ValueError(f"duplicate edge {e}")
            if prev is not None and e < prev:
                raise ValueError("edges not in canonical sorted order")
            prev = e

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a Graph, swapping endpoints into i < j and sorting."""
        canon = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            canon.add((i, j) if i < j else (j, i))
        return cls(n, tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    # caches derived from `edges` (cached_property bypasses frozen)
    @cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def _adjacency(self) -> dict:
        """Vertex -> sorted tuple of its neighbors."""
        adj = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {v: tuple(sorted(nb)) for v, nb in adj.items()}

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self._edge_set

    def edge_index(self) -> dict:
        """Map each canonical edge to its row position."""
        return {e: r for r, e in enumerate(self.edges)}


def _check_vertex(g: Graph, i: int) -> None:
    if not (1 <= i <= g.n):
        raise VertexOutOfRange(f"vertex {i} outside 1..{g.n}")


def neighbors(g: Graph, i: int) -> tuple:
    """Sorted neighbor labels of vertex i."""
    _check_vertex(g, i)
    return g._adjacency[i]


def incidence_matrix(g: Graph) -> np.ndarray:
    """(m, n) oriented incidence matrix H: +1 at i, -1 at j per edge."""
    H = np.zeros((g.m, g.n))
    for r, (i, j) in enumerate(g.edges):
        H[r, i - 1] = 1.0
        H[r, j - 1] = -1.0
    return H


def expanded_incidence(g: Graph) -> np.ndarray:
    """(2m, 2n) block operator H kron I_2 acting on stacked coordinates."""
    return np.kron(incidence_matrix(g), np.eye(2))


@dataclass(frozen=True)
class LamanConstruction:
    """A vertex-insertion build of a triangulated Laman graph.

    The base is the single edge (1, 2). Each step (v, i, j) inserts vertex v
    with edges to both endpoints of an existing edge (i, j). Step order is
    insertion order; the inserted labels are exactly {3, ..., n} but need
    not appear in increasing order.
    """

    steps: tuple  # tuple of (new_vertex, i, j)

    def __post_init__(self):
        n = self.n
        expect = set(range(3, n + 1))
        got = {s[0] for s in self.steps}
        if got != expect:
            raise ValueError(
                f"inserted labels {sorted(got)} must be exactly 3..{n}"
            )
        for v, i, j in self.steps:
            if i == j or v in (i, j):
                raise ValueError(f"malformed step {(v, i, j)}")

    @property
    def n(self) -> int:
        return 2 + len(self.steps)


def build_laman(construction: LamanConstruction) -> Graph:
    """Replay a construction into its graph.

    Raises InvalidStep if any attachment pair is not an edge already built,
    which also rejects references to not-yet-inserted vertices.
    """
    edges = {(1, 2)}
    present = {1, 2}
    for v, i, j in construction.steps:
        a, b = (i, j) if i < j else (j, i)
        if (a, b) not in edges:
            raise InvalidStep(
                f"step inserts {v} on ({i}, {j}), not an edge built so far"
            )
        if v in present:
            raise InvalidStep(f"vertex {v} inserted twice")
        edges.add((min(v, i), max(v, i)))
        edges.add((min(v, j), max(v, j)))
        present.add(v)
    return Graph(construction.n, tuple(sorted(edges)))


def recognize_triangulated_laman(g: Graph) -> Optional[LamanConstruction]:
    """Find a vertex-insertion build of g, or None.

    Repeatedly peels the highest-labeled degree-2 vertex whose two
    neighbors are adjacent; succeeds only if the peel ends at the single
    edge (1, 2).
    """
    if g.n == 2:
        return LamanConstruction(()) if g.edges == ((1, 2),) else None
    if g.n < 2 or g.m != 2 * g.n - 3:
        return None
    adj = {v: set(nb) for v, nb in g._adjacency.items()}  # not yet peeled
    peeled = []
    while len(adj) > 2:
        pick = None
        for v in sorted(adj, reverse=True):
            if len(adj[v]) == 2:
                a, b = sorted(adj[v])
                if b in adj[a]:
                    pick = (v, a, b)
                    break
        if pick is None:
            return None
        v, a, b = pick
        adj[a].discard(v)
        adj[b].discard(v)
        del adj[v]
        peeled.append((v, a, b))
    if set(adj) != {1, 2} or adj[1] != {2}:
        return None
    return LamanConstruction(tuple(reversed(peeled)))


@dataclass(frozen=True)
class LeaderPair:
    """Two distinct leader vertices; must span an edge of the graph."""

    first: int
    second: int

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("leader vertices must differ")

    def spans_edge(self, g: Graph) -> bool:
        """Both leaders lie in 1..n and are joined by an edge of g."""
        return g.has_edge(self.first, self.second)


def leader_laplacian(g: Graph, leaders: LeaderPair) -> np.ndarray:
    """(2n, 2n) leader coupling L kron I_2 for the single leader edge.

    L = h^T h where h is the 1 x n incidence row of the leader edge.
    """
    a, b = leaders.first, leaders.second
    _check_vertex(g, a)
    _check_vertex(g, b)
    if not g.has_edge(a, b):
        raise NotAnEdge(f"leader pair ({a}, {b}) is not an edge")
    L = np.zeros((g.n, g.n))
    L[a - 1, a - 1] = L[b - 1, b - 1] = 1.0
    L[a - 1, b - 1] = L[b - 1, a - 1] = -1.0
    return np.kron(L, np.eye(2))
