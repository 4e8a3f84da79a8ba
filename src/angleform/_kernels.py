"""Hot numeric kernels: control-law evaluation and the RK4 flow loop.

Two interchangeable backends implement the same contract:

* c: the loops of _kernels.c, built with the system C compiler on first
  use and loaded through ctypes;
* numpy: vectorized control evaluation with the time stepping loop in
  Python, the reference the C backend is tested against.

The active backend is chosen on first use. Setting the environment
variable ANGLEFORM_NUMBA=0 forces the numpy backend; otherwise the C
backend is used when it is cached or builds, else numpy, with one
RuntimeWarning that gives the reason. The built C library is cached
under ~/.cache/angleform (or, when that is not writable, an
angleform-<uid> directory in the temp directory), keyed by a CRC-32 of
the source and the compiler flags, so later processes only load it.
Both backends stay constructible so they can be compared in one
process, see benchmarks/bench_kernels.py.

Kernel contract
---------------
eval_control(pos, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps)
    pos (n, 2) float64, tri (w, 3) int64 0-based, cstar (w,) float64.
    lead_a/lead_b are 0-based leader indices, or -1 for no maneuver;
    (dsx, dsy) is the commanded leader displacement.
    Returns (u (n, 2), cost, ok). cost is the full tracking cost
    (angle term plus leader term when active); ok flips False when a
    triple edge drops under edge_eps.

integrate(pos0, tri, cstar, edges, h, n_steps, record_every, lead_a,
          lead_b, dsx, dsy, blowup_limit, edge_eps, cost_tol, grad_tol)
    Classical fixed-step RK4 on pdot = u(p). Records a snapshot every
    record_every steps, plus the initial state and the final state.
    Returns (times, traj, n_rec, status, t_stop) with status codes
    STATUS_RAN, STATUS_CONVERGED (cost under cost_tol and |u| under
    grad_tol), STATUS_NONFINITE (a coordinate left [-blowup, blowup] or
    went non-finite), STATUS_COINCIDENT (a graph edge or a triple edge
    collapsed under edge_eps).
"""

import contextlib
import ctypes
import os
import shutil
import tempfile
import warnings
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import angle_terms

ENV_FLAG = "ANGLEFORM_NUMBA"
# a constant now: perfbench/run.py::_environment still reads it
HAVE_NUMBA = False

STATUS_RAN = 0
STATUS_CONVERGED = 1
STATUS_NONFINITE = 2
STATUS_COINCIDENT = 3


class Backend(NamedTuple):
    name: str
    eval_control: object
    integrate: object


# ---------------------------------------------------------------------
# pure-numpy backend: vectorized control, Python stepping loop
# ---------------------------------------------------------------------


def _control_np(pos, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps):
    u = np.zeros_like(pos)
    cosv, q1, q2, lab, lac = angle_terms(pos, tri)
    if lab.size and (lab.min() < edge_eps or lac.min() < edge_eps):
        return u, 0.0, False
    d = cosv - cstar
    cost = 0.5 * float(d @ d)
    np.add.at(u, tri[:, 0], -d[:, None] * (q1 + q2))
    np.add.at(u, tri[:, 1], d[:, None] * q1)
    np.add.at(u, tri[:, 2], d[:, None] * q2)
    if lead_a >= 0:
        err = np.array([dsx, dsy]) - (pos[lead_a] - pos[lead_b])
        u[lead_a] += err
        u[lead_b] -= err
        cost += 0.5 * float(err @ err)
    return u, cost, True


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
    n = pos0.shape[0]
    max_rec = n_steps // record_every + 2
    times = np.zeros(max_rec)
    traj = np.zeros((max_rec, n, 2))
    pos = pos0.copy()
    traj[0] = pos
    n_rec = 1
    status = STATUS_RAN
    t_stop = n_steps * h
    for step in range(n_steps):
        t = step * h
        gaps = pos[edges[:, 0]] - pos[edges[:, 1]]
        if edges.size and float(
            np.min(np.sqrt(np.sum(gaps * gaps, axis=1)))
        ) < edge_eps:
            status = STATUS_COINCIDENT
            t_stop = t
            break
        k1, cost, ok1 = _control_np(
            pos, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps
        )
        if not ok1:
            status = STATUS_COINCIDENT
            t_stop = t
            break
        if cost < cost_tol and float(np.sqrt(np.sum(k1 * k1))) < grad_tol:
            status = STATUS_CONVERGED
            t_stop = t
            break
        k2, _, ok2 = _control_np(
            pos + (0.5 * h) * k1, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps
        )
        k3, _, ok3 = _control_np(
            pos + (0.5 * h) * k2, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps
        )
        k4, _, ok4 = _control_np(
            pos + h * k3, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps
        )
        if not (ok2 and ok3 and ok4):
            status = STATUS_COINCIDENT
            t_stop = t
            break
        pos = pos + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.abs(pos) <= blowup_limit):
            status = STATUS_NONFINITE
            t_stop = (step + 1) * h
            break
        if (step + 1) % record_every == 0:
            times[n_rec] = (step + 1) * h
            traj[n_rec] = pos
            n_rec += 1
    if status in (STATUS_RAN, STATUS_CONVERGED):
        t_end = t_stop if status == STATUS_CONVERGED else n_steps * h
        if times[n_rec - 1] < t_end:
            times[n_rec] = t_end
            traj[n_rec] = pos
            n_rec += 1
    return times, traj, n_rec, status, t_stop


# ---------------------------------------------------------------------
# C backend: _kernels.c built by the system compiler, called via ctypes
# ---------------------------------------------------------------------

C_SOURCE = Path(__file__).with_name("_kernels.c")
# no -ffast-math or -march=native: results must not depend on the host
C_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


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
        for old in d.glob("_kernels-*.so"):  # superseded builds, best effort
            with contextlib.suppress(OSError):
                if old.name != name and _owned(old):
                    old.unlink()
        return ctypes.CDLL(str(d / name))
    raise CBuildError("no writable cache directory (" + "; ".join(unusable) + ")")


# arrays go in as bare pointers: the wrappers below make every one
# C-contiguous with the dtype the C side reads
_ptr = ctypes.c_void_p
_int = ctypes.c_int64
_dbl = ctypes.c_double
_NO_EDGES = np.zeros((0, 2), dtype=np.int64)


def _check_args(pos, tri, cstar, edges, lead_a, lead_b):
    """Refuse what the C loops would read out of bounds."""
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


def make_c_backend() -> Backend:
    """The C backend; raises CBuildError or OSError when it cannot be
    built or loaded."""
    lib = _load_library()
    control = lib.af_control
    control.restype = ctypes.c_int
    control.argtypes = [
        _int, _ptr, _int, _ptr, _ptr, _int, _int, _dbl, _dbl, _dbl, _ptr,
        ctypes.POINTER(_dbl),
    ]
    flow = lib.af_integrate
    flow.restype = ctypes.c_int
    flow.argtypes = [
        _int, _ptr, _int, _ptr, _ptr, _int, _ptr, _dbl, _int, _int, _int,
        _int, _dbl, _dbl, _dbl, _dbl, _dbl, _dbl, _ptr, _ptr, _ptr,
        ctypes.POINTER(_int), ctypes.POINTER(_dbl),
    ]

    def eval_control(pos, tri, cstar, lead_a, lead_b, dsx, dsy, edge_eps):
        pos = np.ascontiguousarray(pos, dtype=np.float64)
        tri = np.ascontiguousarray(tri, dtype=np.int64)
        cstar = np.ascontiguousarray(cstar, dtype=np.float64)
        _check_args(pos, tri, cstar, _NO_EDGES, lead_a, lead_b)
        u = np.empty_like(pos)
        cost = _dbl()
        ok = control(
            pos.shape[0], pos.ctypes.data, tri.shape[0], tri.ctypes.data,
            cstar.ctypes.data, int(lead_a), int(lead_b), dsx, dsy, edge_eps,
            u.ctypes.data, ctypes.byref(cost),
        )
        return u, cost.value, bool(ok)

    def integrate(pos0, tri, cstar, edges, h, n_steps, record_every, lead_a,
                  lead_b, dsx, dsy, blowup_limit, edge_eps, cost_tol,
                  grad_tol):
        pos0 = np.ascontiguousarray(pos0, dtype=np.float64)
        tri = np.ascontiguousarray(tri, dtype=np.int64)
        cstar = np.ascontiguousarray(cstar, dtype=np.float64)
        edges = np.ascontiguousarray(edges, dtype=np.int64)
        _check_args(pos0, tri, cstar, edges, lead_a, lead_b)
        n = pos0.shape[0]
        max_rec = n_steps // record_every + 2
        times = np.zeros(max_rec)
        traj = np.zeros((max_rec, n, 2))
        work = np.empty(12 * n)
        n_rec = _int()
        t_stop = _dbl()
        status = flow(
            n, pos0.ctypes.data, tri.shape[0], tri.ctypes.data,
            cstar.ctypes.data, edges.shape[0], edges.ctypes.data, h,
            int(n_steps), int(record_every), int(lead_a), int(lead_b), dsx,
            dsy, blowup_limit, edge_eps, cost_tol, grad_tol,
            times.ctypes.data, traj.ctypes.data, work.ctypes.data,
            ctypes.byref(n_rec), ctypes.byref(t_stop),
        )
        return times, traj, n_rec.value, status, t_stop.value

    return Backend("c", eval_control, integrate)


# ---------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------


def make_numpy_backend() -> Backend:
    return Backend("numpy", _control_np, _integrate_np)


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


def backend_name() -> str:
    return _backend().name
