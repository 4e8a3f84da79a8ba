"""Undirected graphs on vertices 1..n, incidence operators, and
triangulated Laman constructions.

Graph(n, edges) is the one constructor, and it canonicalizes any edge
list. A Graph stores its edges once: Graph.edge_array, a read-only
(m, 2) int64 array of 0-based rows (a, b), a < b, in increasing order
of the key a * n + b (lexicographic order). The 1-based edge tuples,
the count, edge lookups and the adjacency index (Graph.arcs: both
directions) are derived from it. The incidence matrix orients every
edge from its smaller to its larger endpoint (+1 at i, -1 at j), so the
stacked edge-difference vector of a configuration p is H_bar @
p_stacked with block entries p_i - p_j. replay() is the one replay of a
construction's steps.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import InvalidStep, NotAnEdge, VertexOutOfRange


class Arcs(NamedTuple):
    """Both directions a -> b of every edge, 0-based, sorted by key
    a * n + b: vertex a's arcs are rows first[a] to first[a + 1] - 1,
    toward its neighbors in increasing order, and those toward b > a
    start at row up[a]."""

    keys: np.ndarray  # (2m,) a * n + b
    head: np.ndarray  # (2m,) b
    first: np.ndarray  # (n + 1,)
    up: np.ndarray  # (n,)


def _in_sorted(hay: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Where q's entries occur in the sorted 1-d array hay. A search,
    not np.isin, whose first call raises peak memory by about 2 MB
    (numpy 2.4)."""
    if not hay.size:
        return np.zeros(q.shape, dtype=bool)
    return hay[np.minimum(np.searchsorted(hay, q), hay.size - 1)] == q


def _label_rows(rows, width: int) -> np.ndarray:
    """rows as a (len(rows), width) int64 array, or an object array where
    a label is past int64 (it is out of range for the caller's refusal);
    ValueError naming the first row that is not `width` labels or label
    that is not an integer."""
    if not isinstance(rows, (list, tuple, np.ndarray)):
        rows = list(rows)  # a set or an iterator
    try:
        a = np.asarray(rows)
    except ValueError:  # rows of unequal lengths
        a = np.empty(0)
    if a.dtype.kind in "bi" and a.shape == (len(rows), width):
        return a.astype(np.int64, copy=False)  # every label an int64 (or a bool)
    # a float or a string, an int past int64 (read as float, uint64 or
    # object), or a row of another length: check the rows one by one
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    for row in rows:
        if not isinstance(row, (list, tuple, np.ndarray)) or len(row) != width:
            raise ValueError(f"row {row!r} is not {width} labels")
        for v in row:
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"label {v!r} is not an integer")
    try:
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), width)


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Immutable undirected graph on vertices 1..n. Graph(n, edges) takes
    any 1-based edge list: it orders each edge's endpoints i < j, sorts
    the edges and drops repeats. It refuses an n that is not an integer
    (a bool included), then a row that is not a pair or a label that is
    not an integer, then a self-loop (the first in input order), then
    n < 1, then an edge outside 1..n (the first in sorted order)."""

    n: int
    edge_array: np.ndarray  # (m, 2) int64, 0-based, read-only: the one store

    def __init__(self, n: int, edges=()):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n={n!r} is not an integer")
        lo, hi = np.sort(_label_rows(edges, 2), axis=1).T
        if (lo == hi).any():
            raise ValueError(f"self-loop at vertex {lo[np.argmax(lo == hi)]}")
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        out = (lo < 1) | (hi > n)
        if out.any():
            edge = min(zip(lo[out].tolist(), hi[out].tolist()))
            raise ValueError(f"edge {edge} violates 1 <= i < j <= {n}")
        keys = (lo - 1) * n + (hi - 1)
        keys.sort()
        # drop each key equal to the one before; numpy 2.4's np.unique hashes:
        # 1.3 s and 92 MB against 0.02 s and 13 MB on 1.5 M random keys
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        e = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, n, out=(e[:, 0], e[:, 1]))
        e.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", e)

    @property
    def edges(self) -> tuple:
        """The edges as 1-based pairs, made from edge_array on each read."""
        return tuple(map(tuple, (self.edge_array + 1).tolist()))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.edge_array, other.edge_array))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # derived from edge_array (cached_property bypasses frozen)
    @cached_property
    def arcs(self) -> Arcs:
        """The graph's one adjacency index, built once and read-only."""
        e, n = self.edge_array, self.n
        keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
        v = np.arange(n + 1)
        index = Arcs(keys, keys % n, np.searchsorted(keys, v * n),
                     np.searchsorted(keys, v[:-1] * (n + 1)))
        for a in index:
            a.setflags(write=False)
        return index

    def has_edge(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.n and 1 <= j <= self.n):  # where keys alias
            return False
        key = np.array([(i - 1) * self.n + j - 1])
        return bool(_in_sorted(self.arcs.keys, key)[0])


def _check_vertex(g: Graph, i: int) -> None:
    if not (1 <= i <= g.n):
        raise VertexOutOfRange(f"vertex {i} outside 1..{g.n}")


def neighbors(g: Graph, i: int) -> tuple:
    """Sorted neighbor labels of vertex i."""
    _check_vertex(g, i)
    return tuple((g.arcs.head[g.arcs.first[i - 1] : g.arcs.first[i]] + 1).tolist())


def incidence_matrix(g: Graph) -> np.ndarray:
    """(m, n) oriented incidence matrix H: +1 at i, -1 at j per edge."""
    H = np.zeros((g.m, g.n))
    H[np.arange(g.m)[:, None], g.edge_array] = (1.0, -1.0)
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

    @cached_property
    def graph(self) -> Graph:
        """build_laman(self), built once (cached_property bypasses frozen)."""
        return build_laman(self)


def replay(construction: LamanConstruction) -> Iterator[tuple]:
    """Yield each step (v, i, j) with the adjacency built before it, a
    dict vertex -> neighbor set that the replay grows after the yield.

    Raises InvalidStep at the first attachment pair that is not an edge
    already built, which also rejects not-yet-inserted vertices.
    """
    adj = {1: {2}, 2: {1}}
    for v, i, j in construction.steps:
        if j not in adj.get(i, ()):
            raise InvalidStep(
                f"step inserts {v} on ({i}, {j}), not an edge built so far"
            )
        yield (v, i, j), adj
        adj[v] = {i, j}
        adj[i].add(v)
        adj[j].add(v)


def build_laman(construction: LamanConstruction) -> Graph:
    """The graph of a construction: the base edge and two edges per step."""
    edges = [(1, 2)]
    for (v, i, j), _ in replay(construction):
        edges += [(v, i), (v, j)]
    return Graph(construction.n, edges)


def recognize_triangulated_laman(g: Graph) -> Optional[LamanConstruction]:
    """Find a vertex-insertion build of g, or None.

    Repeatedly peels the highest-labeled degree-2 vertex whose two
    neighbors are adjacent; succeeds only if the peel ends at the single
    edge (1, 2). Degrees only fall and edges only go, so a degree-2
    vertex whose neighbors are not adjacent never becomes peelable: a
    max-heap of degree-2 vertices, checked as they are popped, finds
    each peel in O(log n).
    """
    if g.n < 2 or g.m != 2 * g.n - 3:  # n = 2 and (1, 2): nothing to peel
        return None
    # not yet peeled: each vertex's neighbors, in one pass over the arcs
    heads, first = (g.arcs.head + 1).tolist(), g.arcs.first.tolist()
    adj = {v: set(heads[first[v - 1] : first[v]]) for v in range(1, g.n + 1)}
    heap = [-v for v, nb in adj.items() if len(nb) == 2]
    heapq.heapify(heap)
    peeled = []
    while len(adj) > 2:
        if not heap:
            return None
        v = -heapq.heappop(heap)
        if len(adj[v]) != 2:  # its degree fell since the push
            continue
        a, b = sorted(adj[v])
        if b not in adj[a]:
            continue
        for u in (a, b):
            adj[u].discard(v)
            if len(adj[u]) == 2:
                heapq.heappush(heap, -u)
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
