"""Shared generators for the test suite."""

import numpy as np

from angleform.errors import CoincidentPoints, NotAnEdge, VertexOutOfRange
from angleform.formation import residual
from angleform.graph import Graph, LamanConstruction, expanded_incidence
from angleform.rigidity import (
    EDGE_EPS,
    AngleIndexSet,
    Configuration,
    _triangles,
    bearing,
    check_matrix_size,
    is_strongly_nondegenerate,
)

# the random-framework generators live in the library, which runs them
# without pytest; the tests import them from here
from angleform.selftest import (  # noqa: F401
    fd_jacobian,
    generic_points,
    random_connected_graph,
    random_construction,
)


def nondegenerate_points(rng, g) -> Configuration:
    """Random points resampled until no graph triangle is collinear."""
    while True:
        p = generic_points(rng, g.n)
        if is_strongly_nondegenerate(g, p).ok:
            return p


def equivalence_frameworks(seed=21, total=120):
    """Acceptance criterion 3's random frameworks: (g, p) on n = 4..9
    vertices, connected graphs with 0 to 2n - 5 edges beyond a spanning
    tree, generic points."""
    rng = np.random.default_rng(seed)
    for _ in range(total):
        n = int(rng.integers(4, 10))
        g = random_connected_graph(rng, n, int(rng.integers(0, 2 * n - 4)))
        yield g, generic_points(rng, n)


def disjoint_union(g, h) -> Graph:
    """g on labels 1..g.n beside h on labels g.n + 1..g.n + h.n."""
    shifted = [(i + g.n, j + g.n) for i, j in h.edges]
    return Graph(g.n + h.n, list(g.edges) + shifted)


def fan_construction(n) -> LamanConstruction:
    """The fan family: vertex v inserted on the edge (1, v - 1)."""
    return LamanConstruction(tuple((v, 1, v - 1) for v in range(3, n + 1)))


# ---------------------------------------------------------------------
# oracles: the rigidity matrices as the paper's literal dense products,
# the formation control summed triple by triple, and Laman recognition
# by a full re-sort per peel
# ---------------------------------------------------------------------


def bearing_matrix_product(g, p) -> np.ndarray:
    """blockdiag(P(g_ij) / |e_ij|) @ (H kron I_2), edge by edge."""
    B = np.zeros((2 * g.m, 2 * g.m))
    for r, (i, j) in enumerate(g.edges):
        e = p.point(i) - p.point(j)
        # |e| written out as the package takes every length
        dist = float(np.sqrt(e[0] * e[0] + e[1] * e[1]))
        if dist < EDGE_EPS:
            raise CoincidentPoints(i, j, dist)
        gij = e / dist
        B[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] = (
            np.eye(2) - np.outer(gij, gij)
        ) / dist
    return B @ expanded_incidence(g)


def angle_matrix_product(g, p, T) -> np.ndarray:
    """R_g @ R_B: the row of R_g for triple (i, j, k) holds g_ik^T in the
    block of edge (i, j) and g_ij^T in the block of edge (i, k), negated
    where the triple runs against the edge's stored orientation."""
    T.validate_for(g)
    idx = {e: r for r, e in enumerate(g.edges)}
    Rg = np.zeros((len(T), 2 * g.m))
    for r, (i, j, k) in enumerate(T.triples):
        gij = bearing(p, i, j)
        gik = bearing(p, i, k)
        for other, vec in ((j, gik), (k, gij)):
            if i < other:
                e, sign = idx[(i, other)], 1.0
            else:
                e, sign = idx[(other, i)], -1.0
            Rg[r, 2 * e : 2 * e + 2] = sign * vec
    return Rg @ bearing_matrix_product(g, p)


def sort_peel_recognition(g):
    """The vertex-insertion build of g by re-sorting the unpeeled vertices
    on every peel and taking the highest-labeled degree-2 vertex whose
    neighbors are adjacent; None when the peel does not end at (1, 2)."""
    if g.n == 2:
        return LamanConstruction(()) if g.edges == ((1, 2),) else None
    if g.n < 2 or g.m != 2 * g.n - 3:
        return None
    adj = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
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


def loop_canonical_edges(n, edges):
    """The edges of Graph(n, edges) by a per-edge Python loop, raising
    the ValueError it raises: the array checks' reference."""
    canon = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        canon.add((i, j) if i < j else (j, i))
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    edges = tuple(sorted(canon))
    for e in edges:
        if not (1 <= e[0] < e[1] <= n):
            raise ValueError(f"edge {e} violates 1 <= i < j <= {n}")
    return edges


def relabeled(g, perm) -> Graph:
    """g with vertex v renamed perm[v - 1]."""
    return Graph(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


def control_per_agent(spec, p):
    """Stacked -grad V_F, one triple at a time: each triple adds its
    residual times its gradient blocks to the sums of its three agents."""
    grad = np.zeros((p.n, 2))
    for d, (i, j, k) in zip(residual(spec, p), spec.angle_set.triples):
        eij = p.point(i) - p.point(j)
        eik = p.point(i) - p.point(k)
        lij = float(np.hypot(eij[0], eij[1]))
        lik = float(np.hypot(eik[0], eik[1]))
        gij = eij / lij
        gik = eik / lik
        cosv = float(gij @ gik)
        qj = (gik - cosv * gij) / lij
        qk = (gij - cosv * gik) / lik
        grad[i - 1] += d * (qj + qk)
        grad[j - 1] -= d * qj
        grad[k - 1] -= d * qk
    return -grad.reshape(-1)


def triangle_count(g) -> int:
    """Number of graph triangles, every block of them counted."""
    return sum(len(block) for block in _triangles(g))


def two_pass_triangle_formation_set(g) -> AngleIndexSet:
    """triangle_formation_set in two passes: count every triangle,
    refuse an oversized set, then list the triangles again."""
    check_matrix_size(
        "angle source 'triangle_formation' angle rigidity matrix",
        2 * triangle_count(g),
        2 * g.n,
    )
    rows = (row for block in _triangles(g) for row in block.tolist())
    triples = sorted(t for a, b, c in rows for t in ((a, b, c), (b, a, c)))
    return AngleIndexSet(tuple(triples))


def scalar_validate_for(T, g) -> None:
    """AngleIndexSet.validate_for triple by triple: the first offending
    triple raises, out of range before a missing (i, j) before (i, k)."""
    for i, j, k in T.triples:
        if max(i, j, k) > g.n:
            raise VertexOutOfRange(f"triple {(i, j, k)} outside 1..{g.n}")
        for other in (j, k):
            if not g.has_edge(i, other):
                raise NotAnEdge(f"triple {(i, j, k)} needs edge ({i}, {other})")


def pebble_game_rank(g) -> int:
    """The number of independent edges of g in generic plane rigidity,
    by the (2, 3) pebble game (D. Jacobs and B. Hendrickson, J. Comput.
    Phys. 137, 1997). Every vertex starts with two pebbles. An edge is
    independent when four pebbles can be gathered on its two ends; one
    of them then covers it, directing it out of the end that paid."""
    pebbles = [2] * (g.n + 1)
    out = [set() for _ in range(g.n + 1)]  # out[v]: the edges v's pebbles cover

    def fetch(v, other) -> bool:
        """Bring one free pebble to v along directed edges, reversing
        each edge on the path; the search never enters other."""
        parent, stack = {v: None, other: None}, [v]
        while stack:
            u = stack.pop()
            for w in out[u]:
                if w in parent:
                    continue
                parent[w] = u
                if pebbles[w]:
                    pebbles[w] -= 1
                    pebbles[v] += 1
                    while w != v:  # the pebble that moved covers (w, u) now
                        u = parent[w]
                        out[u].remove(w)
                        out[w].add(u)
                        w = u
                    return True
                stack.append(w)
        return False

    independent = 0
    for a, b in g.edges:
        while pebbles[a] < 2 and fetch(a, b):
            pass
        while pebbles[b] < 2 and fetch(b, a):
            pass
        if pebbles[a] + pebbles[b] == 4:
            pebbles[a] -= 1
            out[a].add(b)
            independent += 1
    return independent


# a prime below 2^31: the product of two residues fits in int64
PRIME = 2_147_483_647


def angle_rank_mod_p(n, triples, rng) -> int:
    """The generic rank of the angle rigidity matrix of triples on n
    vertices, in exact arithmetic: its rank mod PRIME at random integer
    points. That is at most the rank over Q, and equal to it with high
    probability (Schwartz-Zippel; the randomized generic-rank test of S.
    Gortler, A. Healy and D. Thurston, Amer. J. Math. 132, 2010). Where
    no triple is collinear, the row of triple (i, j, k) is a nonzero
    multiple of the gradient of cot = (u . v) / (u x v), u = p_j - p_i
    and v = p_k - p_i, so of (u x v) grad(u . v) - (u . v) grad(u x v),
    a cubic polynomial in the coordinates."""
    q = PRIME
    pts = rng.integers(0, q, size=(n, 2))
    i, j, k = (np.array(triples, dtype=np.int64).reshape(-1, 3) - 1).T
    (ux, uy), (vx, vy) = ((pts[j] - pts[i]) % q).T, ((pts[k] - pts[i]) % q).T
    dot = (ux * vx % q + uy * vy % q) % q
    cross = (ux * vy % q - uy * vx % q) % q
    # the row's blocks at j (d/du) and at k (d/dv); the apex takes minus both
    du = np.stack([cross * vx % q - dot * vy % q, cross * vy % q + dot * vx % q], 1)
    dv = np.stack([cross * ux % q + dot * uy % q, cross * uy % q - dot * ux % q], 1)
    R = np.zeros((len(i), n, 2), dtype=np.int64)
    rows = np.arange(len(i))
    R[rows, j] = du
    R[rows, k] = dv
    R[rows, i] = -(du + dv)
    R = R.reshape(len(i), 2 * n) % q
    rank = 0
    for c in range(2 * n):  # Gaussian elimination mod q
        nonzero = np.flatnonzero(R[rank:, c])
        if not nonzero.size:
            continue
        r = rank + nonzero[0]
        R[[rank, r]] = R[[r, rank]]
        R[rank] = R[rank] * pow(int(R[rank, c]), q - 2, q) % q
        R[rank + 1 :] = (R[rank + 1 :] - R[rank + 1 :, c, None] * R[rank] % q) % q
        rank += 1
        if rank == len(R):
            break
    return rank
