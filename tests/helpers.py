"""Shared generators for the test suite."""

import numpy as np

from angleform.formation import residual
from angleform.graph import LamanConstruction, expanded_incidence
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


def fan_construction(n) -> LamanConstruction:
    """The fan family: vertex v inserted on the edge (1, v - 1)."""
    return LamanConstruction(tuple((v, 1, v - 1) for v in range(3, n + 1)))


# ---------------------------------------------------------------------
# oracles: the rigidity matrices as the paper's literal dense products,
# and the formation control summed triple by triple
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


def control_per_agent(spec, p):
    """(velocity, apex, wing) of -grad V_F, one triple at a time: each
    triple adds its residual times its gradient blocks to the role sums
    of its three agents."""
    apex = np.zeros((p.n, 2))
    wing = np.zeros((p.n, 2))
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
        apex[i - 1] += d * (qj + qk)
        wing[j - 1] += -d * qj
        wing[k - 1] += -d * qk
    return -(apex + wing).reshape(-1), apex, wing
