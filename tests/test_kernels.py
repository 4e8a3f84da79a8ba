import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from angleform import _kernels
from angleform.formation import FormationSpec, PerturbationSpec
from angleform.graph import Graph
from angleform.rigidity import Configuration

FAN = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)])
PENT = Configuration.regular_polygon(5)

needs_numba = pytest.mark.skipif(
    not _kernels.HAVE_NUMBA, reason="numba not installed"
)
HAVE_CC = _kernels.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
SRC = Path(_kernels.__file__).resolve().parents[1]


@pytest.fixture(params=["numba", pytest.param("c", marks=needs_cc)])
def compiled(request):
    """Each compiled backend, skipped where it cannot exist."""
    if request.param == "numba":
        pytest.importorskip("numba")
        return _kernels.make_numba_backend()
    return _kernels.make_c_backend()


def _backends():
    """The numpy reference, plus the C backend wherever a compiler is."""
    backends = [_kernels.make_numpy_backend()]
    if HAVE_CC:
        backends.append(_kernels.make_c_backend())
    return backends


def _spec():
    return FormationSpec(FAN, PENT)


def _integrate_args(spec, pos, **over):
    base = dict(
        h=1e-3,
        n_steps=2000,
        record_every=100,
        lead_a=-1,
        lead_b=-1,
        dsx=0.0,
        dsy=0.0,
        blowup_limit=1e9,
        edge_eps=1e-9,
        cost_tol=1e-14,
        grad_tol=1e-10,
    )
    base.update(over)
    return (
        pos,
        spec._tri,
        spec.target_cosines,
        spec._edges,
        base["h"],
        base["n_steps"],
        base["record_every"],
        base["lead_a"],
        base["lead_b"],
        base["dsx"],
        base["dsy"],
        base["blowup_limit"],
        base["edge_eps"],
        base["cost_tol"],
        base["grad_tol"],
    )


def test_numpy_backend_exists():
    b = _kernels.make_numpy_backend()
    assert b.name == "numpy"
    assert _kernels.backend_name() in ("numpy", "numba", "c")


def test_control_parity(compiled):
    npb = _kernels.make_numpy_backend()
    spec = _spec()
    rng = np.random.default_rng(40)
    for _ in range(10):
        pos = PENT.pts + rng.uniform(-0.4, 0.4, (5, 2))
        args = (pos, spec._tri, spec.target_cosines, -1, -1, 0.0, 0.0, 1e-9)
        u1, c1, ok1 = compiled.eval_control(*args)
        u2, c2, ok2 = npb.eval_control(*args)
        assert ok1 and ok2
        assert np.max(np.abs(u1 - u2)) < 1e-12
        assert abs(c1 - c2) < 1e-12


def test_integrate_parity(compiled):
    npb = _kernels.make_numpy_backend()
    spec = _spec()
    pos = PerturbationSpec(0.3, 11).sample(PENT).pts
    t1, tr1, n1, s1, e1 = compiled.integrate(*_integrate_args(spec, pos))
    t2, tr2, n2, s2, e2 = npb.integrate(*_integrate_args(spec, pos))
    assert n1 == n2 and s1 == s2 and e1 == e2
    assert np.array_equal(t1[:n1], t2[:n2])
    assert np.max(np.abs(tr1[:n1] - tr2[:n2])) < 1e-12


def test_record_grid_and_final_sample():
    spec = _spec()
    pos = PerturbationSpec(0.2, 12).sample(PENT).pts
    for b in _backends():
        times, traj, n_rec, status, t_stop = b.integrate(
            *_integrate_args(spec, pos, n_steps=250, record_every=100)
        )
        # grid records at 0, 0.1, 0.2 plus the off-grid final state at 0.25
        assert status == _kernels.STATUS_RAN, b.name
        assert n_rec == 4, b.name
        assert np.allclose(times[:4], [0.0, 0.1, 0.2, 0.25]), b.name


def test_status_converged():
    spec = _spec()
    for b in _backends():
        # start exactly at the target: step 0 meets any sane tolerance
        times, traj, n_rec, status, t_stop = b.integrate(
            *_integrate_args(spec, PENT.pts.copy(), cost_tol=1e-8, grad_tol=1e-4)
        )
        assert status == _kernels.STATUS_CONVERGED, b.name
        assert t_stop == 0.0, b.name


def test_status_coincident():
    spec = _spec()
    pos = PENT.pts.copy()
    pos[1] = pos[0]  # (1, 2) is an edge
    for b in _backends():
        times, traj, n_rec, status, t_stop = b.integrate(
            *_integrate_args(spec, pos)
        )
        assert status == _kernels.STATUS_COINCIDENT, b.name
        assert t_stop == 0.0, b.name


def test_numpy_control_refuses_coincident_silently():
    spec = _spec()
    pos = PENT.pts.copy()
    pos[2] = pos[0]  # triple (1, 2, 3) loses its edge (1, 3)
    args = (pos, spec._tri, spec.target_cosines, -1, -1, 0.0, 0.0, 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, cost, ok = _kernels.make_numpy_backend().eval_control(*args)
    assert not ok and cost == 0.0 and not np.any(u)


def test_status_nonfinite():
    spec = _spec()
    pos = PerturbationSpec(0.2, 13).sample(PENT).pts
    for b in _backends():
        # a blow-up limit below the configuration radius trips immediately
        times, traj, n_rec, status, t_stop = b.integrate(
            *_integrate_args(spec, pos, blowup_limit=0.1)
        )
        assert status == _kernels.STATUS_NONFINITE, b.name
        assert t_stop == pytest.approx(1e-3), b.name


@needs_numba
def test_backend_selection_env(tmp_path):
    code = (
        "import angleform\n"
        "print(angleform.backend_name())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "ANGLEFORM_NUMBA": "0"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numba"


def test_integrate_deterministic():
    spec = _spec()
    pos = PerturbationSpec(0.3, 14).sample(PENT).pts
    for b in _backends():
        r1 = b.integrate(*_integrate_args(spec, pos, n_steps=500))
        r2 = b.integrate(*_integrate_args(spec, pos, n_steps=500))
        assert np.array_equal(r1[1][: r1[2]], r2[1][: r2[2]]), b.name


@needs_cc
@pytest.mark.skipif(_kernels.HAVE_NUMBA, reason="numba takes precedence over C")
def test_c_backend_selected_without_home():
    # no HOME either: the cache falls back to the passwd entry or tmp
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)}
    code = "import angleform; print(angleform.backend_name())"
    for extra, expected in (({_kernels.ENV_FLAG: "0"}, "numpy"), ({}, "c")):
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True,
            text=True,
            env={**env, **extra},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == expected


@needs_cc
def test_c_cached_load_starts_no_compiler(monkeypatch):
    _kernels.make_c_backend()  # ensure the cache holds this source's build

    def refuse(*args, **kwargs):
        raise AssertionError("a cached load must not start a compiler")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(_kernels, "find_compiler", refuse)
    assert _kernels.make_c_backend().name == "c"


@needs_cc
def test_c_build_skips_unwritable_cache_dir(monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    usable = tmp_path / "cache"
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [blocker / "sub", usable])
    b = _kernels.make_c_backend()
    assert b.name == "c"
    built = list(usable.iterdir())
    assert [p.name for p in built] == [_kernels._library_name()]


@needs_cc
def test_c_build_prunes_superseded_builds(monkeypatch, tmp_path):
    stale = tmp_path / "_kernels-00000000.so"
    stale.write_bytes(b"superseded build")
    unrelated = tmp_path / "notes.txt"
    unrelated.write_text("kept")
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [tmp_path])
    assert _kernels.make_c_backend().name == "c"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([_kernels._library_name(), "notes.txt"])


@pytest.mark.parametrize(
    "compiler, reason",
    [(None, "no C compiler"), ("false", "exited with")],
)
def test_fallback_to_numpy_warns(monkeypatch, tmp_path, compiler, reason):
    if compiler is not None:
        compiler = shutil.which(compiler) or pytest.skip("no `false` command")
    monkeypatch.delenv(_kernels.ENV_FLAG, raising=False)
    monkeypatch.setattr(_kernels, "HAVE_NUMBA", False)
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(_kernels, "find_compiler", lambda: compiler)
    with pytest.warns(RuntimeWarning, match=reason) as record:
        b = _kernels._select()
    assert b.name == "numpy"
    assert len(record) == 1
    assert list(tmp_path.iterdir()) == []  # the failed build left nothing


@needs_cc
def test_c_refuses_out_of_range_indices():
    b = _kernels.make_c_backend()
    spec = _spec()
    pos = PENT.pts.copy()
    bad = spec._tri.copy()
    bad[0, 2] = 5
    with pytest.raises(IndexError):
        b.eval_control(pos, bad, spec.target_cosines, -1, -1, 0.0, 0.0, 1e-9)
    with pytest.raises(IndexError):
        b.integrate(*_integrate_args(spec, pos, lead_a=0, lead_b=7))
    with pytest.raises(ValueError):
        b.integrate(*_integrate_args(spec, pos.ravel()))
