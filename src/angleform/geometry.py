"""Planar rotations, reflections, projections, perpendiculars, edge
lengths, angle terms, centroid and spread.

All functions operate on plain numpy arrays: directions are shape (2,),
operators are shape (2, 2). Vectors passed as unit directions are accepted
with a small amount of normalization slack and silently renormalized;
beyond that they are rejected.
"""

import numpy as np

from .errors import NonUnitVector

# beyond this deviation the vector is rejected instead of renormalized
UNIT_REJECT = 1e-9
# doubles per block of monitors' temporaries (128 KiB)
MONITOR_BLOCK = 16_384


def length(e) -> np.ndarray:
    """|e| of vectors e (..., 2) as sqrt(x*x + y*y), the one edge length
    of the package: the C kernel's lengths, bit for bit (hypot rounds
    otherwise)."""
    return np.sqrt(e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1])


def monitors(pts) -> tuple:
    """(centroid (..., 2), scale (...)) of points (..., n, 2): scale is
    the stacked norm about the centroid, the one centroid and spread of
    the package. The differences are taken in blocks of whole samples, at
    most MONITOR_BLOCK doubles or one sample, which keeps each sample's sums."""
    centroid = pts.mean(axis=-2)
    flat, cent = pts.reshape(-1, *pts.shape[-2:]), centroid.reshape(-1, 1, 2)
    scale, rows = np.empty(len(flat)), max(1, MONITOR_BLOCK // (2 * pts.shape[-2]))
    for s in range(0, len(flat), rows):
        b = slice(s, s + rows)
        # unnamed, so one block's differences are alive at a time
        scale[b] = np.sqrt(np.sum((flat[b] - cent[b]) ** 2, axis=(-2, -1)))
    return centroid, scale.reshape(centroid.shape[:-1])[()]  # a float for one (n, 2)


def _as_unit(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(2)
    nrm = float(length(v))
    if abs(nrm - 1.0) > UNIT_REJECT:
        raise NonUnitVector(f"expected a unit vector, got norm {nrm:.12g}")
    return v / nrm


def rotation(theta: float) -> np.ndarray:
    """Counterclockwise rotation operator for angle theta (radians)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def reflection(theta: float) -> np.ndarray:
    """Reflection operator rotation(theta) @ diag(1, -1).

    Reflects across the line at angle theta/2; determinant is -1.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]])


def householder(x) -> np.ndarray:
    """I - 2 x x^T for a unit vector x.

    Involutive, and equal to reflection(2 * angle(x) + pi): it fixes
    perp(x) and negates x.
    """
    v = _as_unit(x)
    return np.eye(2) - 2.0 * np.outer(v, v)


def projection(x) -> np.ndarray:
    """Orthogonal projector I - x x^T onto the complement of unit x."""
    v = _as_unit(x)
    return np.eye(2) - np.outer(v, v)


def perp(x) -> np.ndarray:
    """Rotate x by +90 degrees: (x, y) -> (-y, x). Any length allowed."""
    v = np.asarray(x, dtype=float).reshape(2)
    return np.array([-v[1], v[0]])


def angle_terms(pts, tri):
    """(cos, q_j, q_k, |e_ij|, |e_ik|) of the angle triples at pts.

    pts is (..., n, 2) and tri (w, 3) 0-based (apex i, wings j, k). With
    g_ij = (p_i - p_j) / |e_ij|: cos = g_ij . g_ik, q_j = (g_ik - cos g_ij)
    / |e_ij| and q_k = (g_ij - cos g_ik) / |e_ik|, so the gradient of cos
    is q_j + q_k at i, -q_j at j and -q_k at k. Coincident points give
    non-finite terms without a warning; callers check the lengths.
    """
    p = np.asarray(pts, dtype=float)
    # e_ij becomes g_ij in place: a batch of many snapshots then holds
    # no more (..., w, 2) arrays at once than the terms need
    gij = p[..., tri[:, 0], :] - p[..., tri[:, 1], :]
    gik = p[..., tri[:, 0], :] - p[..., tri[:, 2], :]
    lij, lik = length(gij), length(gik)
    with np.errstate(divide="ignore", invalid="ignore"):
        gij /= lij[..., None]
        gik /= lik[..., None]
        cos = gij[..., 0] * gik[..., 0] + gij[..., 1] * gik[..., 1]
        qj = (gik - cos[..., None] * gij) / lij[..., None]
        qk = (gij - cos[..., None] * gik) / lik[..., None]
    return cos, qj, qk, lij, lik
