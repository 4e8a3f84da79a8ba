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

A Configuration is one read-only (n, 2) float array, Configuration.pts.
An AngleIndexSet is one read-only (w, 3) int64 array of 0-based triples,
AngleIndexSet.triple_array, which the angle rigidity function and
matrix, validate_for and jacobian_spectrum read without a copy.
"""

import ctypes
import mmap
from dataclasses import dataclass
from functools import cache
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
from .geometry import angle_terms, length, monitors, reflection, rotation
from .graph import Graph, _in_sorted, _label_rows

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
# candidate triangles tested per vectorized batch
TRIANGLE_CHUNK = 65_536
# a rigidity matrix of this many bytes (one huge page) or more gets a
# private anonymous mapping of its own: glibc's dynamic mmap threshold
# would carve a matrix smaller than the last one freed from the heap and
# keep it resident after its verdict
MAPPED_BYTES = 2 << 20
# OpenBLAS threads every SVD runs on, whatever the process's count: the
# singular values' last bits depend on it (two threads against one
# differ by up to 6.2e-16 at n = 400)
SVD_THREADS = 2


@dataclass(frozen=True, init=False, eq=False)
class Configuration:
    """Immutable set of n labeled points in the plane (labels 1..n).

    Points are held as a read-only (n, 2) float array. The stacked vector
    interleaves coordinates as (x1, y1, x2, y2, ...).
    """

    pts: np.ndarray  # (n, 2) float, read-only: the one store

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


@dataclass(frozen=True, init=False, eq=False)
class AngleIndexSet:
    """An ordered family of angle triples (apex, j, k) with j < k.

    Each triple (i, j, k) names the angle at apex i between the edges
    (i, j) and (i, k). AngleIndexSet(triples) takes any triples: it
    orders each triple's wings j < k, sorts the triples lexicographically
    and drops repeats. It refuses a label that is not an integer, then,
    at the first bad triple in that order, a label below 1 or past int64
    (VertexOutOfRange) before a repeated vertex (ValueError).
    """

    triple_array: np.ndarray  # (w, 3) int64, 0-based, read-only: the one store

    def __init__(self, triples=()):
        t = _label_rows(triples, 3)
        t = np.column_stack([t[:, 0], np.sort(t[:, 1:], axis=1)])  # wings j < k
        t = t[np.lexsort(t.T[::-1])]  # sorted by i, then j, then k
        keep = np.ones(len(t), dtype=bool)
        keep[1:] = (t[1:] != t[:-1]).any(axis=1)  # drop each repeat of the one before
        t = t[keep]
        out = ((t < 1) | (t > np.iinfo(np.int64).max)).any(axis=1)
        bad = out | (t[:, [0, 0, 1]] == t[:, [1, 2, 2]]).any(axis=1)
        if bad.any():
            r = int(np.argmax(bad))
            triple = tuple(t[r].tolist())
            if out[r]:
                side = "below 1" if min(triple) < 1 else "past int64"
                raise VertexOutOfRange(f"triple {triple} has a vertex label {side}")
            raise ValueError(f"triple {triple} repeats a vertex")
        t = t - 1  # int64: a label past it was refused
        t.setflags(write=False)
        object.__setattr__(self, "triple_array", t)

    @property
    def triples(self) -> tuple:
        """The triples as 1-based tuples, made from triple_array on each read."""
        return tuple(map(tuple, (self.triple_array + 1).tolist()))

    def __len__(self):
        return len(self.triple_array)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AngleIndexSet)
                and np.array_equal(self.triple_array, other.triple_array))

    def __repr__(self):
        return f"AngleIndexSet(w={len(self)})"

    def validate_for(self, g: Graph) -> None:
        """Require both edges of every triple to exist in g.

        The first offending triple raises: VertexOutOfRange when a label
        exceeds g.n, else NotAnEdge for (i, j), else for (i, k). A set
        that passed for the graph object g passes again without a check,
        so a verb that hands one set on checks it once.
        """
        if self.__dict__.get("_checked_for") is not g:
            self._check(g)
            object.__setattr__(self, "_checked_for", g)  # no field: eq, repr skip it

    def _check(self, g: Graph) -> None:
        """validate_for's check, vectorized over the triples."""
        tri = self.triple_array
        out = tri.max(axis=1) >= g.n
        # each wing's edge (apex, wing) by its key among g's arcs
        has = _in_sorted(g.arcs.keys, tri[:, :1] * g.n + tri[:, 1:])
        bad = np.flatnonzero(out | ~has.all(axis=1))
        if bad.size:
            t = bad[0]
            i, j, k = (tri[t] + 1).tolist()
            if out[t]:
                raise VertexOutOfRange(f"triple {(i, j, k)} outside 1..{g.n}")
            other = j if not has[t, 0] else k
            raise NotAnEdge(f"triple {(i, j, k)} needs edge ({i}, {other})")


class RigidityReport(NamedTuple):
    """Outcome of an SVD rank test; verdict is None from numerical_rank."""

    rank: int
    nullspace_dim: int
    singular_values: np.ndarray
    tol: float
    verdict: Optional[bool] = None


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
    """A (k, 2n) or (2k, 2n) Fortran-ordered matrix, zero but for item r
    of each blocks[c], a (2,) row or a (2, 2) pair of rows, at the columns
    of 0-based vertex at[c][r]; the blocks are written in order."""
    k, rows = len(at[0]), blocks[0].ndim - 1  # 1 or 2 rows per item
    size = 16 * n * k * rows
    if size < MAPPED_BYTES:
        R = np.zeros((n, 2, k, rows))
    else:  # a zeroed private mapping of its own, unmapped with the matrix
        mm = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        mm.madvise(mmap.MADV_HUGEPAGE)  # shmem (MAP_SHARED) gets no huge pages
        R = np.frombuffer(mm, float).reshape(n, 2, k, rows)
    for cols, blk in zip(at, blocks):
        R[cols, :, np.arange(k)] = blk.reshape(k, rows, 2).transpose(0, 2, 1)
    return R.reshape(2 * n, k * rows).T


def check_matrix_size(what: str, rows: int, cols: int, svd=False, least=False) -> None:
    """ValidationError when a rows x cols matrix would exceed
    MAX_MATRIX_ENTRIES or, for a matrix to be factored (svd), when its
    SVD's min(rows, cols)^2 * max(rows, cols) would exceed MAX_SVD_WORK;
    called before anything of that size exists. least: rows is only a
    lower bound, and the message says so."""
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise ValidationError(
            f"{what} would be {'at least ' * least}{rows} x {cols} = "
            f"{rows * cols} entries, "
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
    return angle_cosines(p, T.triple_array)


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
    nonzero singular values, in half the rows; only _verdict builds it.
    """
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
    _, qj, qk = _angle_terms(p.pts, T.triple_array)
    _bearing_terms(p, *g.edge_array.T)
    return _block_rows(g.n, T.triple_array.T, (qj + qk, -qj, -qk))


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


@cache
def _gesdd():
    """The LAPACK dgesdd that np.linalg.svd calls, the ILP64 routine of
    numpy's bundled OpenBLAS, with that library's thread count getter
    and setter: (dgesdd, get, set), or None where numpy does not export
    them."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        fn = lib.scipy_dgesdd_64_
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_void_p] * 14, None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return fn, get, put


# dgesdd's optimal LWORK per matrix shape, from LAPACK's own query
_LWORK = {}


def _singular_values(M: np.ndarray, overwrite: bool) -> np.ndarray:
    """np.linalg.svd(M, compute_uv=False) at SVD_THREADS OpenBLAS
    threads, bit for bit: the same dgesdd, JOBZ='N', with the same
    workspace, factoring M in place when overwrite and M is
    Fortran-ordered, else one Fortran copy of it. A process at another
    thread count is set to SVD_THREADS for the call and restored after
    it."""
    lapack = _gesdd()
    if lapack is None:
        return np.linalg.svd(M, compute_uv=False)
    gesdd, get_threads, set_threads = lapack
    a = M if overwrite and M.flags.f_contiguous else np.array(M, float, order="F")
    (m, n), k = a.shape, min(a.shape)
    lwork = _LWORK.get(a.shape, -1)  # -1: a workspace query comes first
    threads = get_threads()
    if threads != SVD_THREADS:  # a set to the same count raised peak RSS 0.4 MB
        set_threads(SVD_THREADS)
    try:
        while True:
            # M, N, LDA, LDU = LDVT, LWORK, INFO as int64, then S (k), IWORK
            # (8k) and WORK: one buffer, held by this frame during the call
            buf = np.empty(6 + 9 * k + max(lwork, 1))
            ints = buf[:6].view(np.int64)
            ints[:] = m, n, max(m, 1), 1, lwork, 0
            p = buf.ctypes.data
            s = p + 48
            gesdd(b"N", p, p + 8, a.ctypes.data, p + 16, s, s, p + 24, s, p + 24,
                  s + 72 * k, p + 32, s + 8 * k, p + 40)
            if ints[5]:
                raise np.linalg.LinAlgError("SVD did not converge")
            if lwork > 0:
                return buf[6 : 6 + k]
            lwork = _LWORK[a.shape] = max(int(buf[6 + 9 * k]), 1)
    finally:
        if threads != SVD_THREADS:
            set_threads(threads)


def numerical_rank(
    M: np.ndarray, tol: Optional[float] = None, _shape=None, _overwrite=False
) -> RigidityReport:
    """SVD rank with the shared default cutoff.

    The cutoff is sigma_max * max(rows, cols) * eps * RANK_TOL_FACTOR
    unless an explicit tol is given. A zero matrix has rank 0. `_shape`
    is the (rows, cols) of a matrix that M stands in for with the same
    nonzero singular values: the cutoff and the nullspace use that
    shape, and the values are padded with exact zeros to its min(rows,
    cols). `_overwrite` hands M over: the SVD may factor it in place.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows, cols = M.shape if _shape is None else _shape
    sv = _singular_values(M, _overwrite)
    sv = np.concatenate([sv, np.zeros(min(rows, cols) - sv.size)])
    if tol is None:
        smax = float(sv[0]) if sv.size else 0.0
        tol = smax * max(rows, cols) * np.finfo(float).eps * RANK_TOL_FACTOR
    rank = int(np.sum(sv > tol))
    return RigidityReport(rank, cols - rank, sv, float(tol))


def _verdict(what, rows, cols, build, rigid, shape=None) -> RigidityReport:
    """numerical_rank(build(), _shape=shape), factored in place, verdict
    rigid(record), once check_matrix_size bounds the rows x cols `what`."""
    check_matrix_size(what, rows, cols, svd=True)
    report = numerical_rank(build(), _shape=shape, _overwrite=True)
    return report._replace(verdict=rigid(report))


def is_infinitesimally_distance_rigid(
    g: Graph, p: Configuration
) -> RigidityReport:
    """Rank of the distance rigidity matrix equals 2n - 3."""
    return _verdict(
        "distance rigidity matrix", g.m, 2 * p.n,
        lambda: distance_rigidity_matrix(g, p),
        lambda r: r.rank == 2 * p.n - 3,
    )


def is_infinitesimally_bearing_rigid(
    g: Graph, p: Configuration
) -> RigidityReport:
    """Rank of the bearing rigidity matrix equals 2n - 3.

    The SVD runs on the half-size matrix, which has the same nonzero
    singular values; the report is that of the (2m, 2n) Jacobian.
    """
    return _verdict(
        "half-size bearing matrix", g.m, 2 * g.n,
        lambda: _bearing_half_matrix(g, p),
        lambda r: r.rank == 2 * p.n - 3,
        (2 * g.m, 2 * g.n),
    )


def is_infinitesimally_angle_rigid(
    g: Graph, p: Configuration, T: AngleIndexSet
) -> RigidityReport:
    """Nullspace of the angle rigidity matrix is exactly the 4 trivial
    motions."""
    return _verdict(
        "angle rigidity matrix", len(T), 2 * g.n,
        lambda: angle_rigidity_matrix(g, p, T),
        lambda r: r.nullspace_dim == 4,
    )


def _triangles(g: Graph):
    """The vertex triangles a < b < c whose three edges exist, in sorted
    order (by canonical edge (a, b), then by c), as (k, 3) int64 blocks
    of labels. The candidates pair each edge (a, b) with each arc (b, c),
    c > b, of g.arcs; a block tests those of consecutive edges, at most
    TRIANGLE_CHUNK (or one edge's)."""
    arcs, e = g.arcs, g.edge_array
    # the arcs (b, c), c > b, of an edge (a, b) are the rows lo to hi - 1
    lo, hi = arcs.up[e[:, 1]], arcs.first[e[:, 1] + 1]
    ends = np.cumsum(hi - lo)
    start = 0
    while start < len(e):
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + TRIANGLE_CHUNK, side="right"))
        stop = max(start + 1, stop)
        cnt = hi[start:stop] - lo[start:stop]
        ab = np.repeat(e[start:stop], cnt, axis=0)
        # a candidate's arc (b, c): its edge's first one, plus its offset
        skip = np.repeat(lo[start:stop] - (ends[start:stop] - cnt - done), cnt)
        c = arcs.head[np.arange(ends[stop - 1] - done) + skip]
        # (a, c) among the arcs of this chunk's own apexes: a short search
        near = arcs.keys[arcs.first[e[start, 0]] : arcs.first[e[stop - 1, 0] + 1]]
        hit = _in_sorted(near, ab[:, 0] * g.n + c)
        yield np.column_stack([ab[hit], c[hit]]) + 1
        start = stop


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
        # a coincident pair's bearing is not finite: its refusal follows
        with np.errstate(invalid="ignore"):
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

    Both orthogonal branches (rotation and reflection) are fitted by least
    squares in closed form; the better one is reported, the rotation on a
    tie. Membership requires the relative residual |q - fit| / |p -
    centroid(p)| below tol and a nonzero scale.
    """
    if p.n != q.n:
        raise ValueError(f"point counts differ: {p.n} vs {q.n}")
    cp, norm_a = monitors(p.pts)
    cq = monitors(q.pts)[0]
    a = p.pts - cp
    b = q.pts - cq
    norm_a = float(norm_a)
    if norm_a == 0.0:
        raise DegenerateAllCoincident("reference points all coincide")
    (m00, m01), (m10, m11) = b.T @ a  # M: each angle maximizes tr(R^T M)
    rot = rotation(np.arctan2(m10 - m01, m00 + m11))
    best = None
    for R in (rot, reflection(np.arctan2(m10 + m01, m00 - m11))):
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
    tri = T.triple_array
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
