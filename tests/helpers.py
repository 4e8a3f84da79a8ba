"""Shared generators for the test suite."""

import math

import numpy as np

from angleform._kernels import (
    STATUS_COINCIDENT,
    STATUS_CONVERGED,
    STATUS_NONFINITE,
    STATUS_RAN,
)
from angleform.formation import residual
from angleform.graph import Graph, LamanConstruction, expanded_incidence
from angleform.rigidity import (
    Configuration,
    bearing,
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
    return Graph.from_edges(g.n + h.n, list(g.edges) + shifted)


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
        gij = bearing(p, i, j)
        dist = float(np.hypot(*(p.point(i) - p.point(j))))
        B[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] = (
            np.eye(2) - np.outer(gij, gij)
        ) / dist
    return B @ expanded_incidence(g)


def angle_matrix_product(g, p, T) -> np.ndarray:
    """R_g @ R_B: the row of R_g for triple (i, j, k) holds g_ik^T in the
    block of edge (i, j) and g_ij^T in the block of edge (i, k), negated
    where the triple runs against the edge's stored orientation."""
    T.validate_for(g)
    idx = g.edge_index()
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
    adj = {v: set(nb) for v, nb in g._adjacency.items()}
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


def relabeled(g, perm) -> Graph:
    """g with vertex v renamed perm[v - 1]."""
    return Graph.from_edges(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


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


# ---------------------------------------------------------------------
# oracle: the C kernels as a triple-by-triple loop of scalar float
# operations, in _kernels.c's expression order; each triple computes
# both of its sides' lengths and bearings itself
# ---------------------------------------------------------------------


def kernel_control(pos, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps):
    """(u (n, 2), cost, ok) of the control evaluation; when a triple
    side is under edge_eps, u and cost hold the triples before it."""
    p = [float(x) for x in np.asarray(pos, dtype=float).reshape(-1)]
    u = [0.0] * len(p)
    cost = 0.0
    ok = True
    for t, (a, b, c) in enumerate(np.asarray(tri).tolist()):
        eabx = p[2 * a] - p[2 * b]
        eaby = p[2 * a + 1] - p[2 * b + 1]
        eacx = p[2 * a] - p[2 * c]
        eacy = p[2 * a + 1] - p[2 * c + 1]
        lab = math.sqrt(eabx * eabx + eaby * eaby)
        lac = math.sqrt(eacx * eacx + eacy * eacy)
        if lab < edge_eps or lac < edge_eps:
            ok = False
            break
        gabx, gaby = eabx / lab, eaby / lab
        gacx, gacy = eacx / lac, eacy / lac
        cosv = gabx * gacx + gaby * gacy
        d = cosv - float(cstar[t])
        cost += 0.5 * d * d
        q1x = (gacx - cosv * gabx) / lab
        q1y = (gacy - cosv * gaby) / lab
        q2x = (gabx - cosv * gacx) / lac
        q2y = (gaby - cosv * gacy) / lac
        u[2 * a] -= d * (q1x + q2x)
        u[2 * a + 1] -= d * (q1y + q2y)
        u[2 * b] += d * q1x
        u[2 * b + 1] += d * q1y
        u[2 * c] += d * q2x
        u[2 * c + 1] += d * q2y
    if ok and lead_a >= 0:
        ex = dsx - (p[2 * lead_a] - p[2 * lead_b])
        ey = dsy - (p[2 * lead_a + 1] - p[2 * lead_b + 1])
        u[2 * lead_a] += ex
        u[2 * lead_a + 1] += ey
        u[2 * lead_b] -= ex
        u[2 * lead_b + 1] -= ey
        cost += 0.5 * (ex * ex + ey * ey)
    return np.array(u).reshape(-1, 2), cost, ok


def kernel_integrate(pos0, tri, cstar, edges, h, n_steps, record_every,
                     lead_a, lead_b, dsx, dsy, blowup_limit, edge_eps,
                     cost_tol, grad_tol):
    """(times, traj, n_rec, status, t_stop) of the RK4 flow."""
    law = (tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps)
    pos = [float(x) for x in np.asarray(pos0, dtype=float).reshape(-1)]
    times, traj = [0.0], [list(pos)]
    status, t_stop = STATUS_RAN, n_steps * h
    for step in range(n_steps):
        t = step * h
        collapsed = False
        for i, j in np.asarray(edges).tolist():
            dx = pos[2 * i] - pos[2 * j]
            dy = pos[2 * i + 1] - pos[2 * j + 1]
            collapsed |= math.sqrt(dx * dx + dy * dy) < edge_eps
        if collapsed:
            status, t_stop = STATUS_COINCIDENT, t
            break
        k1, cost, ok = kernel_control(pos, *law)
        k1 = k1.reshape(-1).tolist()
        if not ok:
            status, t_stop = STATUS_COINCIDENT, t
            break
        gsq = 0.0
        for v in k1:
            gsq += v * v
        if cost < cost_tol and math.sqrt(gsq) < grad_tol:
            status, t_stop = STATUS_CONVERGED, t
            break
        ks, oks = [k1], []
        for frac in (0.5 * h, 0.5 * h, h):
            stage = [x + frac * k for x, k in zip(pos, ks[-1])]
            k, _, ok = kernel_control(stage, *law)
            ks.append(k.reshape(-1).tolist())
            oks.append(ok)
        if not all(oks):
            status, t_stop = STATUS_COINCIDENT, t
            break
        pos = [
            x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for x, a, b, c, d in zip(pos, *ks)
        ]
        if not all(abs(x) <= blowup_limit for x in pos):
            status, t_stop = STATUS_NONFINITE, (step + 1) * h
            break
        if (step + 1) % record_every == 0:
            times.append((step + 1) * h)
            traj.append(list(pos))
    if status in (STATUS_RAN, STATUS_CONVERGED):
        t_end = t_stop if status == STATUS_CONVERGED else n_steps * h
        if times[-1] < t_end:
            times.append(t_end)
            traj.append(list(pos))
    n = len(pos) // 2
    return np.array(times), np.array(traj).reshape(-1, n, 2), len(times), status, t_stop
