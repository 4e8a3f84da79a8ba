"""Hot numeric kernels: control-law evaluation and the RK4 flow loop.

Two interchangeable backends implement the same contract:

* c: the loops of _kernels.c, built with the system C compiler on first
  use and loaded through ctypes;
* numpy: vectorized control evaluation (_control_np) with the time
  stepping loop in Python (_integrate_np), the reference the C backend
  is tested against.

Both compute in one order, so their results are equal bit for bit, zero
signs included: _control_np scatters triple by triple with one np.add.at
and sums the cost and the gradient norm sequentially with
np.add.accumulate, as the C loops do; numpy takes every length from
geometry.length, sqrt(x*x + y*y), the form C computes.

The active backend is chosen on first use. Setting the environment
variable ANGLEFORM_NUMBA=0 forces the numpy backend; otherwise the C
backend is used when it is cached or builds, else numpy, with one
RuntimeWarning that gives the reason. The built C library is cached
under ~/.cache/angleform (or, when that is not writable, an
angleform-<uid> directory in the temp directory), keyed by a CRC-32 of
the source and the compiler flags, so later processes only load it; a
build leaves the _KEPT_BUILDS newest builds there.
Both backends stay constructible so they can be compared in one
process, as the parity tests and selftest do.

The C control loop takes each bearing from one edge pass per
evaluation instead of recomputing both sides of every triple. Each
eval_control and integrate call first builds that pass's table with
numpy (_side_table): the triples' unique sides, and per triple which
side it uses in which direction. The pass runs two sides per 2-lane
vector and the triple loop runs x and y as one, and the results stay
bit for bit those of _control_np (_kernels.c says why). The pass also
makes the evaluation's one collapse test, once per side.

Kernel contract
---------------
eval_control(pos, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps)
    pos (n, 2) float64, tri (w, 3) int64 0-based, cstar (w,) float64.
    lead_a/lead_b are 0-based leader indices, or -1 for no maneuver;
    (dsx, dsy) is the commanded leader displacement.
    Returns (u (n, 2), cost, ok, vf). cost is the full tracking cost
    (angle term plus leader term when active), vf is V_F, its triple
    sum before the leader term; ok flips False when a triple edge drops
    under edge_eps, and then u is 0 and cost and vf 0.0.

integrate(pos0, tri, cstar, edges, h, n_steps, record_every, lead_a,
          lead_b, dsx, dsy, blowup_limit, edge_eps, cost_tol, grad_tol)
    Classical fixed-step RK4 on pdot = u(p). Records a snapshot every
    record_every steps, plus the initial state and the final state, as a
    row t, p1x, p1y, ..., pnx, pny of one zeroed table of
    record_rows(n_steps, record_every) rows (unwritten rows stay
    untouched zero pages). Returns Run(table, vf, n_rec, status,
    t_stop): that table, its first n_rec rows written; vf, each
    snapshot's V_F from the k1 evaluation of the step that starts there
    (a STATUS_RAN run evaluates its final state once more: vf 0.0 there
    if that fails, the status stays); the status STATUS_RAN,
    STATUS_CONVERGED (cost under cost_tol and |u| under grad_tol),
    STATUS_NONFINITE (a coordinate left [-blowup, blowup] or went
    non-finite) or STATUS_COINCIDENT (a graph edge or a triple edge
    collapsed under edge_eps); and the time the run stopped. status and
    t_stop stay at positions 3 and 4 (perfbench/spans.py reads them);
    new fields go last. Each step has one STATUS_COINCIDENT exit at its
    start (the edge test or k1) and one after its three later stages,
    one loop over h/2, h/2 and h. The numpy backend tests every graph
    edge before each step; the C backend only those no triple side
    covers (_uncovered): a covered edge under edge_eps fails the step's
    k1 evaluation instead, with the same status and t_stop.

write_rows(stream, table)
    Writes the (rows, cols) float64 table to the binary stream as ASCII
    CSV rows, cells split by "," and each row ended by a newline, every
    cell exactly repr's bytes for that double. The numpy backend joins
    repr of each row, the reference. The C backend formats blocks of
    about _CSV_BLOCK bytes into one buffer with af_format_rows (the
    shortest round-trip digits by Ryu, laid out as repr does) and
    writes each block from that buffer, so neither a string of the
    table nor a second copy of a block is made; its multiplier table
    (_pow5_table) is made on its first call.
"""

import contextlib
import ctypes
import functools
import os
import shutil
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import angle_terms, length
from .graph import _in_sorted

ENV_FLAG = "ANGLEFORM_NUMBA"
# a constant now: perfbench/run.py::_environment still reads it
HAVE_NUMBA = False

STATUS_RAN = 0
STATUS_CONVERGED = 1
STATUS_NONFINITE = 2
STATUS_COINCIDENT = 3


class Run(NamedTuple):
    table: np.ndarray
    vf: np.ndarray
    n_rec: int
    status: int
    t_stop: float


class Backend(NamedTuple):
    name: str
    eval_control: object
    integrate: object
    write_rows: object


# ---------------------------------------------------------------------
# pure-numpy backend: vectorized control, Python stepping loop
# ---------------------------------------------------------------------


def _control_np(pos, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps):
    # eval_control's (u, cost, ok, vf). Every sum runs in _kernels.c's
    # order, so both backends agree bit for bit: no @, np.sum or hypot
    # here, whose orders differ
    u = np.zeros_like(pos)
    cosv, q1, q2, lab, lac = angle_terms(pos, tri)
    if (lab < edge_eps).any() or (lac < edge_eps).any():
        return u, 0.0, False, 0.0
    d = cosv - cstar
    cost = vf = float(np.add.accumulate(0.5 * d * d)[-1]) if d.size else 0.0
    # triple by triple, the apex, then wing j, then wing k, as C scatters
    terms = d[:, None] * np.concatenate([-(q1 + q2), q1, q2], axis=1)
    np.add.at(u, tri.reshape(-1), terms.reshape(-1, 2))
    if lead_a >= 0:
        err = np.array([dsx, dsy]) - (pos[lead_a] - pos[lead_b])
        u[lead_a] += err
        u[lead_b] -= err
        cost += 0.5 * float(err[0] * err[0] + err[1] * err[1])
    return u, cost, True, vf


def _integrate_np(
    pos0,
    tri,
    cstar,
    edges,
    h,
    n_steps,
    record_every,
    lead_a,
    lead_b,
    dsx,
    dsy,
    blowup_limit,
    edge_eps,
    cost_tol,
    grad_tol,
):
    table, vf = _records(pos0.shape[0], n_steps, record_every)
    pos = pos0.copy()
    table[0, 1:] = pos.ravel()
    n_rec = 1
    status = STATUS_RAN
    t_stop = n_steps * h
    law = (tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps)
    for step in range(n_steps):
        t = step * h
        k1, cost, ok, vf_now = _control_np(pos, *law)
        if not ok or (length(pos[edges[:, 0]] - pos[edges[:, 1]]) < edge_eps).any():
            status = STATUS_COINCIDENT
            t_stop = t
            break
        if step % record_every == 0:  # this state is the last snapshot
            vf[n_rec - 1] = vf_now
        if cost < cost_tol:  # the gradient norm is summed only here
            gsq = np.add.accumulate((k1 * k1).ravel())[-1]
            if float(np.sqrt(gsq)) < grad_tol:
                status = STATUS_CONVERGED
                t_stop = t
                break
        k = [k1]
        for c in (0.5 * h, 0.5 * h, h):
            kc, _, ok_c, _ = _control_np(pos + c * k[-1], *law)
            k.append(kc)
            ok &= ok_c
        if not ok:
            status = STATUS_COINCIDENT
            t_stop = t
            break
        pos = pos + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
        if not np.all(np.abs(pos) <= blowup_limit):
            status = STATUS_NONFINITE
            t_stop = (step + 1) * h
            break
        if (step + 1) % record_every == 0:
            table[n_rec, 0], table[n_rec, 1:] = (step + 1) * h, pos.ravel()
            n_rec += 1
    if status in (STATUS_RAN, STATUS_CONVERGED):
        t_end = t_stop if status == STATUS_CONVERGED else n_steps * h
        if table[n_rec - 1, 0] < t_end:
            table[n_rec, 0], table[n_rec, 1:] = t_end, pos.ravel()
            n_rec += 1
        # a converged run evaluated its final state in the last k1
        if status == STATUS_RAN:
            _, _, _, vf_now = _control_np(pos, *law)
        vf[n_rec - 1] = vf_now
    return Run(table, vf, n_rec, status, t_stop)


def record_rows(n_steps, record_every):
    """Rows integrate records at most: the grid, the start, a last state."""
    return n_steps // record_every + 2


def _records(n, n_steps, record_every):
    """integrate's zeroed (rows, 1 + 2n) table and (rows,) vf."""
    rows = record_rows(n_steps, record_every)
    return np.zeros((rows, 1 + 2 * n)), np.zeros(rows)


def _write_rows_np(stream, table):
    for row in table:
        stream.write((",".join(map(repr, row.tolist())) + "\n").encode("ascii"))


# ---------------------------------------------------------------------
# C backend: _kernels.c built by the system compiler, called via ctypes
# ---------------------------------------------------------------------

C_SOURCE = Path(__file__).with_name("_kernels.c")
# no -ffast-math or -march=native: results must not depend on the host
C_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# builds kept per cache directory, the newest by mtime: two checkouts or
# versions used in turn then both load their own without a rebuild
_KEPT_BUILDS = 4


class CBuildError(RuntimeError):
    """The C backend could not be built."""


def find_compiler():
    """Path of the C compiler that builds the C backend, or None."""
    return shutil.which("gcc") or shutil.which("cc")


def _cache_dirs():
    """Candidate cache directories, in order of preference."""
    dirs = []
    home = os.path.expanduser("~")  # falls back to the passwd entry
    if os.path.isabs(home):
        dirs.append(Path(home) / ".cache" / "angleform")
    dirs.append(Path(tempfile.gettempdir()) / f"angleform-{os.getuid()}")
    return dirs


def _library_name() -> str:
    # CRC-32 keys the cache well enough and, unlike hashlib, costs
    # nothing at import: numpy has already loaded zlib
    key = zlib.crc32(C_SOURCE.read_bytes() + " ".join(C_FLAGS).encode())
    return f"_kernels-{key:08x}.so"


def _owned(path: Path) -> bool:
    # the temp directory is shared: trust only what this user made
    return path.stat().st_uid == os.getuid()


def _build(cc, target: Path) -> None:
    """Compile C_SOURCE to target atomically; OSError if target's
    directory cannot be used, CBuildError if the compiler fails."""
    import subprocess  # only a build needs it; a cached load stays cheap

    target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    if not _owned(target.parent):
        raise PermissionError(f"{target.parent} belongs to another user")
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *C_FLAGS, "-o", tmp, str(C_SOURCE), "-lm"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip()[-500:]
            raise CBuildError(f"{cc} exited with {proc.returncode}: {detail}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _prune(d: Path, name: str) -> None:
    """Delete this user's builds in d beyond the _KEPT_BUILDS newest,
    never the build called name; best effort."""
    builds = []
    for path in d.glob("_kernels-*.so"):
        with contextlib.suppress(OSError):
            if path.name != name and _owned(path):
                builds.append((path.stat().st_mtime, path))
    builds.sort(reverse=True)
    for _, old in builds[_KEPT_BUILDS - 1 :]:
        with contextlib.suppress(OSError):
            old.unlink()


def _load_library() -> ctypes.CDLL:
    """Load the cached C library, building it first when no cache has it."""
    name = _library_name()
    dirs = _cache_dirs()
    for d in dirs:
        path = d / name
        if path.is_file() and _owned(d) and _owned(path):
            return ctypes.CDLL(str(path))
    cc = find_compiler()
    if cc is None:
        raise CBuildError("no C compiler (gcc or cc) found on PATH")
    unusable = []
    for d in dirs:
        try:
            _build(cc, d / name)
        except OSError as exc:
            unusable.append(f"{d}: {exc}")
            continue
        _prune(d, name)
        return ctypes.CDLL(str(d / name))
    raise CBuildError("no writable cache directory (" + "; ".join(unusable) + ")")


# arrays go in as bare pointers: the wrappers below make every one
# C-contiguous with the dtype the C side reads
_ptr = ctypes.c_void_p
_int = ctypes.c_int64
_dbl = ctypes.c_double
_NO_EDGES = np.zeros((0, 2), dtype=np.int64)


def _c_args(pos, tri, cstar, lead_a, lead_b, edges=_NO_EDGES):
    """pos, tri, cstar and edges C-contiguous in the dtypes C reads, and
    tri's side table (sides, code); refuses what C would read out of bounds."""
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    tri = np.ascontiguousarray(tri, dtype=np.int64)
    cstar = np.ascontiguousarray(cstar, dtype=np.float64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    n = pos.shape[0]
    if pos.shape != (n, 2) or tri.shape[1:] != (3,) or edges.shape[1:] != (2,):
        raise ValueError("kernel arrays must be pos (n, 2), tri (w, 3), edges (m, 2)")
    if cstar.shape != (tri.shape[0],):
        raise ValueError("cstar needs one target cosine per triple")
    for idx in (tri, edges):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"agent index out of range for {n} agents")
    if lead_a >= 0 and not (lead_a < n and 0 <= lead_b < n):
        raise IndexError(f"leader index out of range for {n} agents")
    return pos, tri, cstar, edges, *_side_table(tri, n)


def _side_table(tri, n):
    """The edge table of the C control loop for 0-based triples tri
    (w, 3) on n agents: sides (k, 2), the k unique unordered sides
    (a, b) and (a, c) of the triples, each as (i, j) with i < j, and
    code (w, 2), each triple side's 2 * row + flip, where flip is 1
    when the triple runs the side from j to i (a > b)."""
    apex, wings = tri[:, :1], tri[:, 1:]
    keys, side = np.unique(
        (np.minimum(apex, wings) * n + np.maximum(apex, wings)).ravel(),
        return_inverse=True,
    )
    sides = np.column_stack([keys // n, keys % n])
    code = 2 * side.reshape(-1, 2) + (apex > wings)
    return sides, code


def _uncovered(edges, sides, n):
    """The rows of edges (m, 2) on n agents that no row of sides (k, 2)
    covers in either orientation, C-contiguous: the graph edges whose
    collapse no control evaluation sees."""
    a, b = edges[:, 0], edges[:, 1]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    # _side_table lists the sides in key order
    return edges[~_in_sorted(sides[:, 0] * n + sides[:, 1], keys)]


# Ryu's multiplier tables: 5^-q for q < 342 and 5^i for i < 326, each
# held in its leading 125 bits
_POW5_INV_ROWS, _POW5_ROWS, _POW5_BITS = 342, 326, 125
# bytes of CSV text formatted per af_format_rows call; the stream takes
# each block from the one reused buffer, so a block exists only once
_CSV_BLOCK = 1 << 16
# the most one cell can take with its separator ("-2.2250738585072014e-308,")
_CELL_BYTES = 25


@functools.cache
def _pow5_table() -> np.ndarray:
    """Ryu's multipliers as af_format_rows reads them: a read-only (668,
    2) uint64 array of 128-bit values, low word first. Rows q < 342 hold
    floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1, the next 326 rows 5^i shifted
    to 125 bits. Exact with Python integers, made on the first C-backend
    CSV write (about a millisecond) and kept for the process."""
    rows = []
    for q in range(_POW5_INV_ROWS):
        p = 5**q
        rows.append((1 << (p.bit_length() - 1 + _POW5_BITS)) // p + 1)
    for i in range(_POW5_ROWS):
        p = 5**i
        shift = p.bit_length() - _POW5_BITS
        rows.append(p >> shift if shift >= 0 else p << -shift)
    low = (1 << 64) - 1
    table = np.array([(v & low, v >> 64) for v in rows], dtype=np.uint64)
    table.setflags(write=False)
    return table


def make_c_backend() -> Backend:
    """The C backend; raises CBuildError or OSError when it cannot be
    built or loaded."""
    lib = _load_library()
    control = lib.af_control
    control.restype = ctypes.c_int
    control.argtypes = [
        _int, _ptr, _int, _ptr, _ptr, _int, _ptr, _ptr, _int, _int, _dbl,
        _dbl, _dbl, _ptr, _ptr, ctypes.POINTER(_dbl),
    ]
    flow = lib.af_integrate
    flow.restype = ctypes.c_int
    flow.argtypes = [
        _int, _ptr, _int, _ptr, _ptr, _int, _ptr, _ptr, _int, _ptr, _dbl,
        _int, _int, _int, _int, _dbl, _dbl, _dbl, _dbl, _dbl, _dbl, _ptr,
        _ptr, _ptr, ctypes.POINTER(_int), ctypes.POINTER(_dbl),
    ]
    format_rows = lib.af_format_rows
    format_rows.restype = _int
    format_rows.argtypes = [_ptr, _int, _int, _ptr, _ptr]

    def eval_control(pos, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps):
        pos, tri, cstar, _, sides, code = _c_args(pos, tri, cstar, lead_a, lead_b)
        gtab = np.empty(8 * sides.shape[0])
        u = np.empty_like(pos)
        cost = (_dbl * 2)()  # the full cost, then V_F
        ok = control(
            pos.shape[0], pos.ctypes.data, tri.shape[0], tri.ctypes.data,
            code.ctypes.data, sides.shape[0], sides.ctypes.data,
            cstar.ctypes.data, int(lead_a), int(lead_b), dsx, dsy, edge_eps,
            gtab.ctypes.data, u.ctypes.data, cost,
        )
        return u, cost[0], bool(ok), cost[1]

    def integrate(pos0, tri, cstar, edges, h, n_steps, record_every, lead_a,
                  lead_b, dsx, dsy, blowup_limit, edge_eps, cost_tol,
                  grad_tol):
        pos0, tri, cstar, edges, sides, code = _c_args(
            pos0, tri, cstar, lead_a, lead_b, edges
        )
        n = pos0.shape[0]
        edges = _uncovered(edges, sides, n)
        table, vf = _records(n, n_steps, record_every)
        work = np.empty(12 * n + 8 * sides.shape[0])
        n_rec = _int()
        t_stop = _dbl()
        status = flow(
            n, pos0.ctypes.data, tri.shape[0], tri.ctypes.data,
            code.ctypes.data, sides.shape[0], sides.ctypes.data,
            cstar.ctypes.data, edges.shape[0], edges.ctypes.data, h,
            int(n_steps), int(record_every), int(lead_a), int(lead_b), dsx,
            dsy, blowup_limit, edge_eps, cost_tol, grad_tol,
            table.ctypes.data, vf.ctypes.data, work.ctypes.data,
            ctypes.byref(n_rec), ctypes.byref(t_stop),
        )
        return Run(table, vf, n_rec.value, status, t_stop.value)

    def write_rows(stream, table):
        table = np.ascontiguousarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValueError("write_rows needs a (rows, cols) table")
        rows, cols = table.shape
        row_bytes = _CELL_BYTES * cols + 1
        per = max(1, _CSV_BLOCK // row_bytes)
        buf = np.empty(per * row_bytes, dtype=np.uint8)
        view = memoryview(buf)
        pow5 = _pow5_table()
        for r in range(0, rows, per):
            block = table[r : r + per]
            size = format_rows(
                block.ctypes.data, block.shape[0], cols, pow5.ctypes.data,
                buf.ctypes.data,
            )
            stream.write(view[:size])

    return Backend("c", eval_control, integrate, write_rows)


# ---------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------


def make_numpy_backend() -> Backend:
    return Backend("numpy", _control_np, _integrate_np, _write_rows_np)


def _select() -> Backend:
    if os.environ.get(ENV_FLAG, "1") == "0":
        return make_numpy_backend()
    try:
        return make_c_backend()
    except (CBuildError, OSError) as exc:
        warnings.warn(
            f"angleform: C kernels unavailable ({exc}); "
            "using the slower numpy backend",
            RuntimeWarning,
            stacklevel=4,
        )
        return make_numpy_backend()


_active = None


def _backend() -> Backend:
    # selected on first use, so an import starts no compiler
    global _active
    if _active is None:
        _active = _select()
    return _active


def eval_control(*args):
    return _backend().eval_control(*args)


def integrate(*args):
    return _backend().integrate(*args)


def write_rows(stream, table):
    return _backend().write_rows(stream, table)


def backend_name() -> str:
    return _backend().name
