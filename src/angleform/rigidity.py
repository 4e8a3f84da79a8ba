"""Rigidity functions, rigidity matrices, and rigidity verdicts for
planar frameworks.

A framework is a Graph together with a Configuration of points in the
plane. Three flavors of rigidity are covered:

* distance: squared edge lengths, matrix rank test against 2n - 3,
* bearing: unit edge directions, matrix rank test against 2n - 3,
* angle: cosines of angles between pairs of incident edges taken from an
  AngleIndexSet, nullspace test against the four trivial motions
  (two translations, scaling, rotation).

Bearings follow the convention g_ij = (p_i - p_j) / |p_i - p_j|, the unit
vector pointing from j toward i.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateAllCoincident,
    NotAnEdge,
    NotAnEquilibrium,
    ValidationError,
    VertexOutOfRange,
)
from .geometry import angle_terms, perp, rotation
from .graph import Graph, neighbors

# adjacent points closer than this are treated as coincident
EDGE_EPS = 1e-9
# |sin| at or below this marks a collinear direction pair
COLLINEAR_EPS = 1e-9
# default rank cutoff: sigma_max * max(dim) * machine epsilon * this factor
RANK_TOL_FACTOR = 100.0
# most entries a rigidity matrix may hold: 800 MB of float64, 12x the
# largest benchmarked matrix (the n = 1000 bearing matrix, 3994 x 2000)
MAX_MATRIX_ENTRIES = 100_000_000


class Configuration:
    """Immutable set of n labeled points in the plane (labels 1..n).

    Points are held as a read-only (n, 2) float array. The stacked vector
    interleaves coordinates as (x1, y1, x2, y2, ...).
    """

    __slots__ = ("pts",)

    def __init__(self, pts):
        arr = np.array(pts, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected (n, 2) points, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("need at least two points")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "pts", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    @property
    def n(self) -> int:
        return self.pts.shape[0]

    @property
    def vec(self) -> np.ndarray:
        """Stacked coordinate vector of length 2n (read-only view)."""
        return self.pts.reshape(-1)

    def point(self, i: int) -> np.ndarray:
        """Point of vertex i (1-based)."""
        if not (1 <= i <= self.n):
            raise ValueError(f"vertex {i} outside 1..{self.n}")
        return self.pts[i - 1]

    @classmethod
    def from_vec(cls, v) -> "Configuration":
        arr = np.asarray(v, dtype=float)
        return cls(arr.reshape(-1, 2))

    @classmethod
    def regular_polygon(cls, n: int, radius: float = 1.0) -> "Configuration":
        """Vertex i at radius * (cos(2 pi i / n), sin(2 pi i / n)), i = 1..n."""
        ang = 2.0 * np.pi * np.arange(1, n + 1) / n
        return cls(radius * np.column_stack([np.cos(ang), np.sin(ang)]))

    def __repr__(self):
        return f"Configuration(n={self.n})"


@dataclass(frozen=True)
class AngleIndexSet:
    """An ordered family of angle triples (apex, j, k) with j < k.

    Each triple (i, j, k) names the angle at apex i between the edges
    (i, j) and (i, k). Triples are kept sorted lexicographically without
    duplicates. `provenance` records which constructor produced the set.
    """

    triples: tuple  # tuple of (i, j, k)
    provenance: str = "explicit"

    def __post_init__(self):
        prev = None
        for t in self.triples:
            i, j, k = t
            if min(t) < 1:
                raise VertexOutOfRange(f"triple {t} has a vertex label below 1")
            if len({i, j, k}) != 3:
                raise ValueError(f"triple {t} repeats a vertex")
            if not j < k:
                raise ValueError(f"triple {t} must order its wings j < k")
            if prev is not None and t <= prev:
                raise ValueError("triples not sorted lexicographically")
            prev = t

    @classmethod
    def from_triples(cls, triples, provenance: str = "explicit"):
        """Canonicalize arbitrary (i, j, k) input: order wings, sort, dedupe."""
        canon = set()
        for i, j, k in triples:
            i, j, k = int(i), int(j), int(k)
            canon.add((i, min(j, k), max(j, k)))
        return cls(tuple(sorted(canon)), provenance)

    def __len__(self):
        return len(self.triples)

    def as_array(self) -> np.ndarray:
        """(w, 3) int64 array of 0-based vertex indices."""
        return np.asarray(self.triples, dtype=np.int64).reshape(-1, 3) - 1

    def validate_for(self, g: Graph) -> None:
        """Require both edges of every triple to exist in g."""
        for i, j, k in self.triples:
            if max(i, j, k) > g.n:
                raise VertexOutOfRange(f"triple {(i, j, k)} outside 1..{g.n}")
            for other in (j, k):
                if not g.has_edge(i, other):
                    raise NotAnEdge(
                        f"triple {(i, j, k)} needs edge ({i}, {other})"
                    )


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of a rank-based rigidity test."""

    kind: str
    rows: int
    cols: int
    singular_values: tuple
    rank: int
    nullspace_dim: int
    verdict: bool
    tol: float

    def as_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
            "nullspace_dim": self.nullspace_dim,
            "verdict": self.verdict,
            "tol": self.tol,
        }
        tail = self.singular_values[-4:]
        d["singular_value_tail"] = list(tail)
        return d


class RankInfo(NamedTuple):
    rank: int
    nullspace_dim: int
    singular_values: np.ndarray
    tol: float


class NondegeneracyReport(NamedTuple):
    ok: bool
    witness: Optional[tuple]  # a collinear graph triangle, or None


class SimilarityTransform(NamedTuple):
    scale: float
    rotation: np.ndarray  # (2, 2) orthogonal
    translation: np.ndarray  # (2,)


class MembershipReport(NamedTuple):
    member: bool
    transform: SimilarityTransform
    residual: float  # relative fit residual


def bearing(p: Configuration, i: int, j: int) -> np.ndarray:
    """Unit vector from p_j toward p_i."""
    e = p.point(i) - p.point(j)
    dist = float(np.hypot(e[0], e[1]))
    if dist < EDGE_EPS:
        raise CoincidentPoints(i, j, dist)
    return e / dist


def _edge_ends(g: Graph) -> np.ndarray:
    """(2, m) 0-based endpoints of the canonical edges."""
    return np.asarray(g.edges, dtype=np.int64).reshape(-1, 2).T - 1


def _bearing_terms(p: Configuration, a, b):
    """Bearings g = e / |e| and blocks (I - g g^T) / |e| of e = p_a - p_b
    for 0-based a, b; CoincidentPoints names the first pair too close."""
    e = p.pts[a] - p.pts[b]
    dist = np.hypot(e[:, 0], e[:, 1])
    if np.any(dist < EDGE_EPS):
        r = int(np.argmax(dist < EDGE_EPS))
        raise CoincidentPoints(int(a[r]) + 1, int(b[r]) + 1, float(dist[r]))
    gab = e / dist[:, None]
    blk = (np.eye(2) - gab[:, :, None] * gab[:, None, :]) / dist[:, None, None]
    return gab, blk


def _angle_terms(pts, tri):
    """(cos, q_j, q_k) of geometry.angle_terms at pts (..., n, 2).

    CoincidentPoints names the first triple's (i, j), else its (i, k),
    that is too short, trying the snapshots of a batch in turn.
    """
    cos, qj, qk, lij, lik = angle_terms(pts, tri)
    dist = np.moveaxis(np.stack([lij, lik], axis=-1), -2, 0)  # (w, ..., 2)
    if np.any(dist < EDGE_EPS):
        at = np.unravel_index(np.argmax(dist < EDGE_EPS), dist.shape)
        i, other = tri[at[0], 0], tri[at[0], 1 + at[-1]]
        raise CoincidentPoints(int(i) + 1, int(other) + 1, float(dist[at]))
    return cos, qj, qk


def _angle_matrix(tri, qj, qk, n) -> np.ndarray:
    """(w, 2n) rows holding q_j + q_k at i, -q_j at j and -q_k at k."""
    rows = np.arange(len(tri))
    R = np.zeros((len(tri), n, 2))
    R[rows, tri[:, 0]] = qj + qk
    R[rows, tri[:, 1]] = -qj
    R[rows, tri[:, 2]] = -qk
    return R.reshape(len(tri), 2 * n)


def check_matrix_size(what: str, rows: int, cols: int) -> None:
    """ValidationError when a rows x cols matrix would exceed
    MAX_MATRIX_ENTRIES; called before anything of that size exists."""
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise ValidationError(
            f"{what} would be {rows} x {cols} = {rows * cols} entries, "
            f"over the limit of {MAX_MATRIX_ENTRIES}"
        )


def distance_rigidity_function(g: Graph, p: Configuration) -> np.ndarray:
    """Squared edge lengths in canonical edge order, shape (m,)."""
    out = np.empty(g.m)
    for r, (i, j) in enumerate(g.edges):
        e = p.point(i) - p.point(j)
        out[r] = e @ e
    return out


def bearing_rigidity_function(g: Graph, p: Configuration) -> np.ndarray:
    """Stacked bearings g_ij per canonical edge, shape (2m,)."""
    return _bearing_terms(p, *_edge_ends(g))[0].reshape(-1)


def angle_rigidity_function(
    g: Graph, p: Configuration, T: AngleIndexSet
) -> np.ndarray:
    """Cosine g_ij . g_ik for each triple (i, j, k) of T, shape (w,).

    Entries are clipped into [-1, 1] to absorb last-ulp rounding at
    collinear triples.
    """
    T.validate_for(g)
    return np.clip(_angle_terms(p.pts, T.as_array())[0], -1.0, 1.0)


def distance_rigidity_matrix(g: Graph, p: Configuration) -> np.ndarray:
    """(m, 2n) Jacobian of the squared-length function."""
    check_matrix_size("distance rigidity matrix", g.m, 2 * p.n)
    i, j = _edge_ends(g)
    e = 2.0 * (p.pts[i] - p.pts[j])
    R = np.zeros((g.m, p.n, 2))
    R[np.arange(g.m), i], R[np.arange(g.m), j] = e, -e
    return R.reshape(g.m, 2 * p.n)


def bearing_rigidity_matrix(g: Graph, p: Configuration) -> np.ndarray:
    """(2m, 2n) Jacobian of the bearing function.

    Equals blockdiag(P(g_ij) / |e_ij|) @ (H kron I_2) bit for bit: each
    entry of that product has one nonzero term, so edge (i, j) puts its
    block at the columns of i and the negated block at those of j.
    """
    check_matrix_size("bearing rigidity matrix", 2 * g.m, 2 * g.n)
    i, j = _edge_ends(g)
    _, blk = _bearing_terms(p, i, j)
    R = np.zeros((g.m, 2, g.n, 2))
    R[np.arange(g.m), :, i] = blk
    R[np.arange(g.m), :, j] = -blk + 0.0  # the product's zeros are +0.0
    return R.reshape(2 * g.m, 2 * g.n)


def angle_rigidity_matrix(
    g: Graph, p: Configuration, T: AngleIndexSet
) -> np.ndarray:
    """(w, 2n) Jacobian of the angle cosine function.

    Equals R_g @ R_B, whose row for triple (i, j, k) is q_j + q_k at i,
    -q_j at j, -q_k at k and zero elsewhere, where
    q_j = g_ik^T P(g_ij) / |e_ij| and q_k = g_ij^T P(g_ik) / |e_ik|
    (geometry.angle_terms). Like the product, it refuses a coincident
    edge of g that no triple uses.
    """
    check_matrix_size("angle rigidity matrix", len(T), 2 * g.n)
    T.validate_for(g)
    tri = T.as_array()
    _, qj, qk = _angle_terms(p.pts, tri)
    _bearing_terms(p, *_edge_ends(g))
    return _angle_matrix(tri, qj, qk, g.n)


def trivial_motion_basis(p: Configuration) -> np.ndarray:
    """(4, 2n) rows spanning translations, scaling, and rotation at p.

    Rows are 1 kron (1, 0), 1 kron (0, 1), the stacked p itself, and the
    stacked 90-degree rotation of every point.
    """
    spread = p.pts - p.pts[0]
    if float(np.max(np.abs(spread))) < EDGE_EPS:
        raise DegenerateAllCoincident(
            "all points coincide; no scaling/rotation directions exist"
        )
    n = p.n
    rot = (p.pts @ rotation(np.pi / 2).T).reshape(-1)
    return np.vstack(
        [
            np.tile([1.0, 0.0], n),
            np.tile([0.0, 1.0], n),
            p.vec,
            rot,
        ]
    )


def numerical_rank(M: np.ndarray, tol: Optional[float] = None) -> RankInfo:
    """SVD rank with the shared default cutoff.

    The cutoff is sigma_max * max(rows, cols) * eps * RANK_TOL_FACTOR
    unless an explicit tol is given. A zero matrix has rank 0.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    sv = np.linalg.svd(M, compute_uv=False)
    if tol is None:
        smax = float(sv[0]) if sv.size else 0.0
        tol = smax * max(M.shape) * np.finfo(float).eps * RANK_TOL_FACTOR
    rank = int(np.sum(sv > tol))
    return RankInfo(rank, M.shape[1] - rank, sv, float(tol))


def _rank_report(kind, M, verdict_fn) -> RigidityReport:
    info = numerical_rank(M)
    return RigidityReport(
        kind=kind,
        rows=M.shape[0],
        cols=M.shape[1],
        singular_values=tuple(float(s) for s in info.singular_values),
        rank=info.rank,
        nullspace_dim=info.nullspace_dim,
        verdict=verdict_fn(info),
        tol=info.tol,
    )


def is_infinitesimally_distance_rigid(
    g: Graph, p: Configuration
) -> RigidityReport:
    """Rank of the distance rigidity matrix equals 2n - 3."""
    M = distance_rigidity_matrix(g, p)
    want = 2 * p.n - 3
    return _rank_report("distance", M, lambda info: info.rank == want)


def is_infinitesimally_bearing_rigid(
    g: Graph, p: Configuration
) -> RigidityReport:
    """Rank of the bearing rigidity matrix equals 2n - 3."""
    M = bearing_rigidity_matrix(g, p)
    want = 2 * p.n - 3
    return _rank_report("bearing", M, lambda info: info.rank == want)


def is_infinitesimally_angle_rigid(
    g: Graph, p: Configuration, T: AngleIndexSet
) -> RigidityReport:
    """Nullspace of the angle rigidity matrix is exactly the 4 trivial
    motions."""
    M = angle_rigidity_matrix(g, p, T)
    return _rank_report("angle", M, lambda info: info.nullspace_dim == 4)


def _triangles(g: Graph) -> list:
    """All vertex triangles a < b < c whose three edges exist."""
    adj = {v: set(neighbors(g, v)) for v in range(1, g.n + 1)}
    return sorted(
        (a, b, c) for a, b in g.edges for c in adj[a] & adj[b] if c > b
    )


def is_strongly_nondegenerate(
    g: Graph, p: Configuration
) -> NondegeneracyReport:
    """No graph triangle is embedded collinearly.

    Returns the first offending triangle as a witness when one exists.
    """
    for a, b, c in _triangles(g):
        gab = bearing(p, b, a)
        gac = bearing(p, c, a)
        if abs(gab @ perp(gac)) <= COLLINEAR_EPS:
            return NondegeneracyReport(False, (a, b, c))
    return NondegeneracyReport(True, None)


def shape_class_membership(
    p: Configuration, q: Configuration, tol: float = 1e-6
) -> MembershipReport:
    """Test whether q = c (I kron R) p + 1 kron xi for some similarity.

    Both orthogonal branches (rotation and reflection) are fitted by
    least squares; the better one is reported. Membership requires the
    relative residual |q - fit| / |p - centroid(p)| below tol and a
    nonzero scale.
    """
    if p.n != q.n:
        raise ValueError(f"point counts differ: {p.n} vs {q.n}")
    cp = p.pts.mean(axis=0)
    cq = q.pts.mean(axis=0)
    a = p.pts - cp
    b = q.pts - cq
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        raise DegenerateAllCoincident("reference points all coincide")
    M = b.T @ a
    U, _, Vt = np.linalg.svd(M)
    det_sign = float(np.sign(np.linalg.det(U @ Vt))) or 1.0
    best = None
    for branch in (1.0, -1.0):
        R = U @ np.diag([1.0, branch * det_sign]) @ Vt
        c = float(np.sum(b * (a @ R.T)) / (norm_a**2))
        res = float(np.linalg.norm(b - c * (a @ R.T))) / norm_a
        if best is None or res < best[0]:
            best = (res, c, R)
    res, c, R = best
    xi = cq - c * (R @ cp)
    member = bool(res < tol and c != 0.0)
    return MembershipReport(member, SimilarityTransform(c, R, xi), res)


def angle_congruence_check(
    p: Configuration, q: Configuration, tol: float = 1e-9
) -> bool:
    """Entrywise agreement of all complete-graph angle cosines."""
    if p.n != q.n:
        raise ValueError(f"point counts differ: {p.n} vs {q.n}")
    i, j, k = np.indices((p.n,) * 3).reshape(3, -1)
    tri = np.column_stack([i, j, k])[(j < k) & (i != j) & (i != k)]
    cos = _angle_terms(np.stack([p.pts, q.pts]), tri)[0]
    return float(np.max(np.abs(cos[0] - cos[1]), initial=0.0)) < tol


def jacobian_spectrum(
    p_eq: Configuration,
    T: AngleIndexSet,
    maneuver: Optional[np.ndarray] = None,
    target_cosines: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eigenvalues (ascending) of the flow linearization at an equilibrium.

    The linearization is -R_T^T R_T, minus the leader coupling matrix when
    `maneuver` is given. When `target_cosines` is supplied, p_eq must meet
    them to 1e-9 (else NotAnEquilibrium); without it, p_eq is taken as its
    own reference and the linearization is exact at p_eq by construction.
    """
    tri = T.as_array()
    if tri.size and tri.max() >= p_eq.n:
        raise VertexOutOfRange(f"angle set reaches outside 1..{p_eq.n}")
    cos, qj, qk = _angle_terms(p_eq.pts, tri)
    if target_cosines is not None:
        resid = float(np.max(np.abs(cos - np.asarray(target_cosines))))
        if resid >= 1e-9:
            raise NotAnEquilibrium(
                f"angle residual {resid:.3e} exceeds 1e-9"
            )
    R = _angle_matrix(tri, qj, qk, p_eq.n)
    J = -(R.T @ R)
    if maneuver is not None:
        J = J - np.asarray(maneuver, dtype=float)
    return np.linalg.eigvalsh(J)
