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
from .geometry import angle_terms, length, rotation
from .graph import Graph, zero_based

# adjacent points closer than this are treated as coincident
EDGE_EPS = 1e-9
# |sin| at or below this marks a collinear direction pair
COLLINEAR_EPS = 1e-9
# default rank cutoff: sigma_max * max(dim) * machine epsilon * this factor
RANK_TOL_FACTOR = 100.0
# most entries a rigidity matrix may hold: 800 MB of float64, 25x the
# largest matrix the benchmark builds (at n = 1000, the 1997 x 2000
# distance and half-size bearing matrices)
MAX_MATRIX_ENTRIES = 100_000_000
# most work one rigidity verdict's SVD may take, min(rows, cols)^2 *
# max(rows, cols): twice the 1997^2 * 2000 = 8.0e9 of the largest SVD
# the benchmark runs (n = 1000); a Laman framework at n = 2000 would take
# 6.4e10, about a minute
MAX_SVD_WORK = 16_000_000_000
# candidate triangles listed, counted or tested per vectorized batch
TRIANGLE_CHUNK = 65_536


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
        return zero_based(self.triples, 3)

    def validate_for(self, g: Graph) -> None:
        """Require both edges of every triple to exist in g.

        The first offending triple raises: VertexOutOfRange when a label
        exceeds g.n, else NotAnEdge for (i, j), else for (i, k). A set
        that passed for the graph object g passes again without a check,
        so a verb that hands one set on checks it once.
        """
        if self.__dict__.get("_checked_for") is not g:
            self._check(g)
            object.__setattr__(self, "_checked_for", g)  # no field: eq, hash keep

    def _check(self, g: Graph) -> None:
        """validate_for's check, vectorized over the triples."""
        try:
            tri = self.as_array()
        except OverflowError:  # a label past int64 is out of range anyway
            tri = np.array([[min(v, g.n + 1) for v in t] for t in self.triples]) - 1
        out = tri.max(axis=1) >= g.n
        # each wing's edge (apex, wing) by its key among g's arcs
        has = _in_sorted(g._arc_keys, tri[:, :1] * g.n + tri[:, 1:])
        bad = np.flatnonzero(out | ~has.all(axis=1))
        if bad.size:
            t = bad[0]
            i, j, k = self.triples[t]
            if out[t]:
                raise VertexOutOfRange(f"triple {(i, j, k)} outside 1..{g.n}")
            other = j if not has[t, 0] else k
            raise NotAnEdge(f"triple {(i, j, k)} needs edge ({i}, {other})")


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
    """Unit vector from p_j toward p_i: _bearing_terms of one pair."""
    for v in (i, j):
        p.point(v)  # ValueError for a vertex outside 1..n
    return _bearing_terms(p, i - 1, j - 1)[0]


def collinear(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """|g x h| <= COLLINEAR_EPS for unit directions (..., 2), from two
    products and a difference: a BLAS dot product may round otherwise."""
    return np.abs(g[..., 0] * h[..., 1] - g[..., 1] * h[..., 0]) <= COLLINEAR_EPS


def _refuse_coincident(dist, a, b) -> None:
    """CoincidentPoints for the first length of dist, in C order, under
    EDGE_EPS, naming its pair of 0-based vertices (a, b), which broadcast
    to dist's shape."""
    short = dist < EDGE_EPS
    if short.any():
        r = int(np.argmax(short))
        a, b, d = (np.broadcast_to(x, dist.shape).flat[r] for x in (a, b, dist))
        raise CoincidentPoints(int(a) + 1, int(b) + 1, float(d))


def _bearing_terms(p: Configuration, a, b, refuse: bool = True):
    """Bearings g = e / |e| and lengths |e| of e = p_a - p_b for 0-based
    vertices a, b (ints or arrays that broadcast together); CoincidentPoints
    names the first pair too close unless refuse is False (its g is then
    not finite)."""
    e = p.pts[a] - p.pts[b]
    dist = length(e)
    if refuse:
        _refuse_coincident(dist, a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return e / dist[..., None], dist


def _angle_terms(pts, tri):
    """(cos, q_j, q_k) of geometry.angle_terms at pts (..., n, 2).

    CoincidentPoints names the first triple's (i, j), else its (i, k),
    that is too short, trying the snapshots of a batch in turn.
    """
    cos, qj, qk, lij, lik = angle_terms(pts, tri)
    dist = np.moveaxis(np.stack([lij, lik], axis=-1), -2, 0)  # (w, ..., 2)
    ends = tri.reshape(tri.shape[:1] + (1,) * (dist.ndim - 2) + (3,))  # (w, ..., 3)
    _refuse_coincident(dist, ends[..., :1], ends[..., 1:])
    return cos, qj, qk


def _block_rows(n: int, at, blocks) -> np.ndarray:
    """A (k, 2n) or (2k, 2n) matrix, zero but for item r of each blocks[c],
    a (2,) row or a (2, 2) pair of rows, at the columns of 0-based vertex
    at[c][r]; the blocks are written in order."""
    k, rows = len(at[0]), blocks[0].ndim - 1  # 1 or 2 rows per item
    R = np.zeros((k, rows, n, 2))
    for cols, blk in zip(at, blocks):
        R[np.arange(k), :, cols] = blk.reshape(k, rows, 2)
    return R.reshape(k * rows, 2 * n)


def check_matrix_size(what: str, rows: int, cols: int, svd: bool = False) -> None:
    """ValidationError when a rows x cols matrix would exceed
    MAX_MATRIX_ENTRIES or, for a matrix to be factored (svd), when its
    SVD's min(rows, cols)^2 * max(rows, cols) would exceed MAX_SVD_WORK;
    called before anything of that size exists."""
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise ValidationError(
            f"{what} would be {rows} x {cols} = {rows * cols} entries, "
            f"over the limit of {MAX_MATRIX_ENTRIES}"
        )
    work = min(rows, cols) ** 2 * max(rows, cols)
    if svd and work > MAX_SVD_WORK:
        raise ValidationError(
            f"{what} would be {rows} x {cols}, whose SVD takes "
            f"{min(rows, cols)}^2 x {max(rows, cols)} = {work} operations, "
            f"over the limit of {MAX_SVD_WORK}"
        )


def distance_rigidity_function(g: Graph, p: Configuration) -> np.ndarray:
    """Squared edge lengths in canonical edge order, shape (m,)."""
    i, j = g.edge_array.T
    e = p.pts[i] - p.pts[j]
    return e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]


def bearing_rigidity_function(g: Graph, p: Configuration) -> np.ndarray:
    """Stacked bearings g_ij per canonical edge, shape (2m,)."""
    return _bearing_terms(p, *g.edge_array.T)[0].reshape(-1)


def angle_rigidity_function(
    g: Graph, p: Configuration, T: AngleIndexSet
) -> np.ndarray:
    """Cosine g_ij . g_ik for each triple (i, j, k) of T, shape (w,).

    Entries are clipped into [-1, 1] to absorb last-ulp rounding at
    collinear triples.
    """
    T.validate_for(g)
    return angle_cosines(p, T.as_array())


def angle_cosines(p: Configuration, tri: np.ndarray) -> np.ndarray:
    """angle_rigidity_function for 0-based triples tri (w, 3) whose edges
    the caller has already checked; CoincidentPoints as it raises."""
    return np.clip(_angle_terms(p.pts, tri)[0], -1.0, 1.0)


def distance_rigidity_matrix(g: Graph, p: Configuration) -> np.ndarray:
    """(m, 2n) Jacobian of the squared-length function."""
    check_matrix_size("distance rigidity matrix", g.m, 2 * p.n)
    i, j = g.edge_array.T
    e = 2.0 * (p.pts[i] - p.pts[j])
    return _block_rows(p.n, (i, j), (e, -e))


def bearing_rigidity_matrix(g: Graph, p: Configuration) -> np.ndarray:
    """(2m, 2n) Jacobian of the bearing function.

    Equals blockdiag(P(g_ij) / |e_ij|) @ (H kron I_2) bit for bit: each
    entry of that product has one nonzero term, so edge (i, j) puts its
    block at the columns of i and the negated block at those of j.
    """
    check_matrix_size("bearing rigidity matrix", 2 * g.m, 2 * g.n)
    i, j = g.edge_array.T
    gab, dist = _bearing_terms(p, i, j)
    blk = (np.eye(2) - gab[:, :, None] * gab[:, None, :]) / dist[:, None, None]
    return _block_rows(g.n, (i, j), (blk, -blk + 0.0))  # the product's zeros are +0.0


def _bearing_half_matrix(g: Graph, p: Configuration) -> np.ndarray:
    """(m, 2n) matrix whose row for edge (i, j) is g_perp / |e_ij| at i
    and -g_perp / |e_ij| at j, g_perp the bearing turned by 90 degrees.

    In the plane P(g) = I - g g^T = g_perp g_perp^T, so this matrix has
    the Gram matrix of the bearing rigidity matrix, and with it the same
    nonzero singular values, in half the rows.
    """
    check_matrix_size("half-size bearing matrix", g.m, 2 * g.n)
    i, j = g.edge_array.T
    gab, dist = _bearing_terms(p, i, j)
    row = np.column_stack([-gab[:, 1], gab[:, 0]]) / dist[:, None]
    return _block_rows(g.n, (i, j), (row, -row))


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
    _bearing_terms(p, *g.edge_array.T)
    return _block_rows(g.n, tri.T, (qj + qk, -qj, -qk))


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


def numerical_rank(
    M: np.ndarray, tol: Optional[float] = None, _shape: Optional[tuple] = None
) -> RankInfo:
    """SVD rank with the shared default cutoff.

    The cutoff is sigma_max * max(rows, cols) * eps * RANK_TOL_FACTOR
    unless an explicit tol is given. A zero matrix has rank 0. `_shape`
    is the (rows, cols) of a matrix that M stands in for with the same
    nonzero singular values: the cutoff and the nullspace use that
    shape, and the values are padded with exact zeros to its min(rows,
    cols).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows, cols = M.shape if _shape is None else _shape
    sv = np.linalg.svd(M, compute_uv=False)
    sv = np.concatenate([sv, np.zeros(min(rows, cols) - sv.size)])
    if tol is None:
        smax = float(sv[0]) if sv.size else 0.0
        tol = smax * max(rows, cols) * np.finfo(float).eps * RANK_TOL_FACTOR
    rank = int(np.sum(sv > tol))
    return RankInfo(rank, cols - rank, sv, float(tol))


def _rank_report(kind, M, verdict_fn, shape=None) -> RigidityReport:
    shape = M.shape if shape is None else shape
    info = numerical_rank(M, _shape=shape)
    return RigidityReport(
        kind=kind,
        rows=shape[0],
        cols=shape[1],
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
    check_matrix_size("distance rigidity matrix", g.m, 2 * p.n, svd=True)
    M = distance_rigidity_matrix(g, p)
    want = 2 * p.n - 3
    return _rank_report("distance", M, lambda info: info.rank == want)


def is_infinitesimally_bearing_rigid(
    g: Graph, p: Configuration
) -> RigidityReport:
    """Rank of the bearing rigidity matrix equals 2n - 3.

    The SVD runs on the half-size matrix, which has the same nonzero
    singular values; the report is that of the (2m, 2n) Jacobian.
    """
    check_matrix_size("half-size bearing matrix", g.m, 2 * g.n, svd=True)
    M = _bearing_half_matrix(g, p)
    want = 2 * p.n - 3
    return _rank_report(
        "bearing", M, lambda info: info.rank == want, (2 * g.m, 2 * g.n)
    )


def is_infinitesimally_angle_rigid(
    g: Graph, p: Configuration, T: AngleIndexSet
) -> RigidityReport:
    """Nullspace of the angle rigidity matrix is exactly the 4 trivial
    motions."""
    check_matrix_size("angle rigidity matrix", len(T), 2 * g.n, svd=True)
    M = angle_rigidity_matrix(g, p, T)
    return _rank_report("angle", M, lambda info: info.nullspace_dim == 4)


def _in_sorted(hay: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Where q's entries occur in the sorted 1-d array hay. A search,
    not np.isin, whose first call raises peak memory by about 2 MB
    (numpy 2.4)."""
    if not hay.size:
        return np.zeros(q.shape, dtype=bool)
    return hay[np.minimum(np.searchsorted(hay, q), hay.size - 1)] == q


def _triangle_candidates(g: Graph):
    """Candidate triangles a < b < c of 0-based vertices in sorted order
    (by canonical edge (a, b), then by c), over chunks of edges with at
    most TRIANGLE_CHUNK candidates (or one edge): per chunk (ab, c, hit),
    with ab (k, 2) an edge (a, b) per candidate, c the far end of an edge
    (b, c), and hit where (a, c) is an edge too."""
    e = g.edge_array
    keys = e[:, 0] * g.n + e[:, 1]  # sorted, as the edges are
    # the edges (v, .) are the rows first[v] to first[v + 1] - 1, so the
    # edges (b, c) of an edge (a, b) are its rows lo to hi - 1
    first = np.searchsorted(e[:, 0], np.arange(g.n + 1))
    lo, hi = first[e[:, 1]], first[e[:, 1] + 1]
    ends = np.cumsum(hi - lo)
    start = 0
    while start < len(e):
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + TRIANGLE_CHUNK, side="right"))
        stop = max(start + 1, stop)
        cnt = hi[start:stop] - lo[start:stop]
        ab = np.repeat(e[start:stop], cnt, axis=0)
        # a candidate's edge (b, c): its edge's first one, plus its offset
        skip = np.repeat(lo[start:stop] - (ends[start:stop] - cnt - done), cnt)
        c = e[np.arange(ends[stop - 1] - done) + skip, 1]
        q = ab[:, 0] * g.n + c
        # the keys (a, .) of this chunk's own apexes: a short search
        hit = _in_sorted(keys[first[e[start, 0]] : first[e[stop - 1, 0] + 1]], q)
        yield ab, c, hit
        start = stop


def _triangles(g: Graph):
    """The vertex triangles a < b < c whose three edges exist, in sorted
    order (by canonical edge (a, b), then by c), as (k, 3) int64 blocks
    of at most TRIANGLE_CHUNK rows."""
    for ab, c, hit in _triangle_candidates(g):
        yield np.column_stack([ab[hit], c[hit]]) + 1


def is_strongly_nondegenerate(
    g: Graph, p: Configuration
) -> NondegeneracyReport:
    """No graph triangle is embedded collinearly.

    Returns the first offending triangle as a witness when one exists.
    Triangles a < b < c are tested in sorted order, at most
    TRIANGLE_CHUNK at a time, by collinear(g_ba, g_ca). The first
    triangle with p_b or p_c within EDGE_EPS of p_a raises
    CoincidentPoints for (b, a), else (c, a), unless an earlier one is
    collinear.
    """
    for chunk in _triangles(g):
        tips, apex = chunk[:, 1:] - 1, chunk[:, :1] - 1
        gx, dist = _bearing_terms(p, tips, apex, refuse=False)
        flat = np.flatnonzero(collinear(gx[:, 0], gx[:, 1]))
        upto = flat[0] + 1 if flat.size else len(chunk)
        _refuse_coincident(dist[:upto], tips[:upto], apex[:upto])
        if flat.size:
            return NondegeneracyReport(False, tuple(chunk[flat[0]].tolist()))
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
    R = _block_rows(p_eq.n, tri.T, (qj + qk, -qj, -qk))
    J = -(R.T @ R)
    if maneuver is not None:
        J = J - np.asarray(maneuver, dtype=float)
    return np.linalg.eigvalsh(J)
