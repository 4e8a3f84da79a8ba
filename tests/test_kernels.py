import ctypes
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleform import _kernels
from angleform.cli import load_scenario, resolve_angle_set
from angleform.formation import (
    FormationSpec,
    Maneuver,
    PerturbationSpec,
    cost_VF,
)
from angleform.geometry import angle_terms
from angleform.graph import Graph, LeaderPair, build_laman
from angleform.index_sets import full_angle_set, laman_global_set, laman_minimal_set
from angleform.rigidity import EDGE_EPS, AngleIndexSet, Configuration
from helpers import nondegenerate_points, random_construction

FAN = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)])
PENT = Configuration.regular_polygon(5)

HAVE_CC = _kernels.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
SRC = Path(_kernels.__file__).resolve().parents[1]


@pytest.fixture(params=[pytest.param("c", marks=needs_cc)])
def compiled(request):
    """The C backend, skipped where no compiler can build it."""
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
    """integrate's arguments for spec's law and leaders from pos: 2000
    steps of 1e-3, every 100th recorded, unless overridden."""
    (lead_a, lead_b), (dsx, dsy) = spec._lead, spec._dstar.tolist()
    base = dict(h=1e-3, n_steps=2000, record_every=100, lead_a=lead_a, lead_b=lead_b,
                dsx=dsx, dsy=dsy)
    edges = spec.graph.edge_array
    return _law_args(pos, spec._tri, spec.target_cosines, edges, **{**base, **over})


def _law_args(pos, tri, cstar, edges, **over):
    """integrate's arguments for the 0-based triples tri with target
    cosines cstar on the 0-based graph edges: 50 steps of 1e-2, each one
    recorded, no leaders, unless overridden."""
    base = dict(h=1e-2, n_steps=50, record_every=1, lead_a=-1, lead_b=-1, dsx=0.0,
                dsy=0.0, blowup_limit=1e9, edge_eps=EDGE_EPS, cost_tol=1e-14,
                grad_tol=1e-10)
    base.update(over)
    tri = np.asarray(tri, dtype=np.int64).reshape(-1, 3)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return (pos, tri, np.asarray(cstar, dtype=float), edges, *base.values())


def test_numpy_backend_exists():
    b = _kernels.make_numpy_backend()
    assert b.name == "numpy" and b.eval_control is _kernels._control_np
    assert _kernels.backend_name() in ("numpy", "c")


def _assert_bits(got, want):
    """Equal values and equal zero signs."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_runs_agree(c_run, np_run):
    """Two integrate results, bit for bit over the whole recorded tables
    and V_F series."""
    assert (c_run.status, c_run.n_rec) == (np_run.status, np_run.n_rec)
    _assert_bits(c_run.t_stop, np_run.t_stop)
    _assert_bits(c_run.table, np_run.table)
    _assert_bits(c_run.vf, np_run.vf)


def _vf_series(traj, tri, cstar):
    """V_F of each snapshot, recomputed: angle_terms, then the kernels'
    sequential sum."""
    if not len(tri):
        return np.zeros(len(traj))
    d = angle_terms(traj, tri)[0] - cstar
    return np.add.accumulate(0.5 * d * d, axis=1)[:, -1]


def _assert_parity(args):
    """integrate(*args) on numpy, and on C wherever a compiler is: each
    run is a Run whose table holds record_rows rows t, p1x, ..., pny and
    whose vf is the V_F of its own trajectory, and C equals numpy bit
    for bit, in the run and in the control evaluation at its start, V_F
    included. Returns the numpy run."""
    npb, *cb = _backends()
    runs = [b.integrate(*args) for b in (npb, *cb)]
    n_agents, rows = len(args[0]), _kernels.record_rows(args[5], args[6])
    for run in runs:
        assert type(run) is _kernels.Run
        assert run.table.shape == (rows, 1 + 2 * n_agents) and run.vf.shape == (rows,)
        # a collision stop leaves its last snapshot unevaluated
        n = run.n_rec - (run.status == _kernels.STATUS_COINCIDENT)
        traj = run.table[:n, 1:].reshape(n, n_agents, 2)
        _assert_bits(run.vf[:n], _vf_series(traj, args[1], args[2]))
    law = (*args[1:3], *args[7:11], args[12])
    for b, run in zip(cb, runs[1:]):
        (u1, cost1, ok1, vf1), (u2, cost2, ok2, vf2) = (
            x.eval_control(args[0], *law) for x in (b, npb)
        )
        assert ok1 == ok2
        _assert_bits(u1, u2)
        _assert_bits(cost1, cost2)
        _assert_bits(vf1, vf2)
        _assert_runs_agree(run, runs[0])
    return runs[0]


@needs_cc
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
    angle_set=st.sampled_from([laman_minimal_set, laman_global_set]),
    leaders=st.booleans(),
    h=st.sampled_from([1e-3, 4e-3]),
    record_every=st.sampled_from([1, 7, 40]),
)
def test_kernel_parity_property(seed, n, angle_set, leaders, h, record_every):
    """C and numpy agree, and record the V_F of their trajectories, on a
    random vertex-insertion framework under either Laman set; the runs
    stay short and start far from cost_tol, so no draw converges near the
    threshold."""
    pos, spec = _insertion_framework(seed, leaders, n, angle_set)
    args = _integrate_args(spec, pos, h=h, n_steps=60, record_every=record_every)
    assert _assert_parity(args).status == _kernels.STATUS_RAN


@needs_cc
@pytest.mark.parametrize("case", ["collision", "blowup"])
def test_kernel_parity_stops(case):
    """Both kernels stop at the same step: an edge that is exactly
    collapsed at t = 0, or a blow-up limit below the start radius."""
    man = Maneuver(LeaderPair(3, 4), (0.5, 0.0))
    spec = FormationSpec(FAN, PENT, maneuver=man)
    pos = PerturbationSpec(0.2, 15).sample(PENT).pts.copy()
    if case == "collision":
        pos[4] = pos[3]  # (4, 5) is an edge
        over, want = {}, _kernels.STATUS_COINCIDENT
    else:
        over = {"blowup_limit": 0.5 * float(np.max(np.abs(pos)))}
        want = _kernels.STATUS_NONFINITE
    assert _assert_parity(_integrate_args(spec, pos, **over)).status == want


def test_status_coincident():
    pos = PENT.pts.copy()
    pos[1] = pos[0]  # (1, 2) is an edge
    run = _assert_parity(_integrate_args(_spec(), pos))
    assert (run.status, run.t_stop) == (_kernels.STATUS_COINCIDENT, 0.0)


def test_numpy_control_refuses_coincident_silently():
    spec = _spec()
    pos = PENT.pts.copy()
    pos[2] = pos[0]  # triple (1, 2, 3) loses its edge (1, 3)
    args = (pos, spec._tri, spec.target_cosines, -1, -1, 0.0, 0.0, 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, cost, ok, vf = _kernels.make_numpy_backend().eval_control(*args)
    assert not ok and cost == vf == 0.0 and not np.any(u)


def test_status_nonfinite():
    pos = PerturbationSpec(0.2, 13).sample(PENT).pts
    # a blow-up limit below the configuration radius trips immediately
    run = _assert_parity(_integrate_args(_spec(), pos, blowup_limit=0.1))
    assert run.status == _kernels.STATUS_NONFINITE
    assert run.t_stop == pytest.approx(1e-3)


@needs_cc
def test_c_backend_selected_without_home():
    # no HOME either: the cache falls back to the passwd entry or tmp
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)}
    code = "import angleform; print(angleform.backend_name())"
    for extra, expected in (({_kernels.ENV_FLAG: "0"}, "numpy"), ({}, "c")):
        out = subprocess.run(
            [sys.executable, "-B", "-W", "error", "-c", code],
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
    """A build keeps the newest builds by mtime, itself among them, so
    checkouts used in turn do not rebuild each other's away."""
    kept = _kernels._KEPT_BUILDS
    stale = [tmp_path / f"_kernels-{i:08x}.so" for i in range(kept + 2)]
    for age, path in enumerate(stale):
        path.write_bytes(b"another build")
        os.utime(path, (1e9 + age, 1e9 + age))
    unrelated = tmp_path / "notes.txt"
    unrelated.write_text("kept")
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [tmp_path])
    assert _kernels.make_c_backend().name == "c"
    names = sorted(p.name for p in tmp_path.iterdir())
    newest = [p.name for p in stale[-(kept - 1):]]
    assert names == sorted([_kernels._library_name(), "notes.txt", *newest])


@needs_cc
def test_c_source_compiles_without_warnings(tmp_path):
    """The runtime build passes no warning flags, so a kernel warning
    would show nowhere else."""
    cmd = [_kernels.find_compiler(), *_kernels.C_FLAGS, "-Wall", "-Wextra",
           "-Werror", "-o", str(tmp_path / "k.so"), str(_kernels.C_SOURCE), "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _repr_edge_values():
    """Doubles where a shortest-digits formatter or repr's layout can
    slip, each with its negation."""
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    vals = [0.0, np.inf, np.nan, 5e-324, tiny, np.nextafter(tiny, 0.0), big]
    for x in [2.0**e for e in range(-1074, 1024)] + [1e-5, 1e-4, 1e16, 1e17]:
        vals += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    vals += [float(2**53 + d) for d in range(-3, 4)]
    vals = np.array(vals)
    return np.concatenate([vals, -vals])


def _digit_counts():
    """Values with 1 to 17 shortest digits, a few of each length."""
    rng = np.random.default_rng(17)
    out = []
    for d in range(1, 18):
        digits = rng.integers(10 ** (d - 1), 10**d, 40)
        digits += digits % 10 == 0  # keep the last digit nonzero
        out += [float(f"{v}e{e}") for v, e in zip(digits, rng.integers(-25, 25, 40))]
    return np.array(out)


def test_c_csv_cells_are_repr(compiled):
    # repr takes about 2.4 us on a random bit pattern (0.6 on a normal
    # draw), so the patterns are kept to what runs in a few tenths of a
    # second; the offline fuzz in CHANGES.md covered 1.3e7 values
    rng = np.random.default_rng(16)
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
    draws = rng.normal(size=60_000) * 10.0 ** rng.integers(-8, 9, 60_000)
    digits = _digit_counts()
    vals = np.concatenate([bits[np.isfinite(bits)], draws, digits, _repr_edge_values()])
    # 8 cells a row: 2.7 MB of rows, across many of the C path's blocks
    table = np.resize(vals, (-(-vals.size // 8), 8))
    got, want = io.BytesIO(), io.BytesIO()
    compiled.write_rows(got, table)
    _kernels.make_numpy_backend().write_rows(want, table)
    assert len(got.getvalue()) > 8 * _kernels._CSV_BLOCK
    got, want = got.getvalue().split(b"\n"), want.getvalue().split(b"\n")
    assert len(got) == len(want) == table.shape[0] + 1
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:3]
    lengths = {len(repr(v).split("e")[0].lstrip("-").replace(".", "").strip("0"))
               for v in digits.tolist()}
    assert lengths == set(range(1, 18))


@pytest.mark.parametrize(
    "compiler, reason",
    [(None, "no C compiler"), ("false", "exited with")],
)
def test_fallback_to_numpy_warns(monkeypatch, tmp_path, compiler, reason):
    if compiler is not None:
        compiler = shutil.which(compiler) or pytest.skip("no `false` command")
    monkeypatch.delenv(_kernels.ENV_FLAG, raising=False)
    # a build makes the missing cache directory before its compiler fails
    monkeypatch.setattr(_kernels, "_cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setattr(_kernels, "find_compiler", lambda: compiler)
    with pytest.warns(RuntimeWarning, match=reason) as record:
        b = _kernels._select()
    assert b.name == "numpy"
    assert len(record) == 1
    assert not any(p.is_file() for p in tmp_path.rglob("*"))  # the build left nothing


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
    with pytest.raises(ValueError, match="one target cosine per triple"):
        b.eval_control(pos, spec._tri, spec.target_cosines[1:], -1, -1, 0.0, 0.0, 1e-9)
    with pytest.raises(ValueError, match=r"needs a \(rows, cols\) table"):
        b.write_rows(io.BytesIO(), np.zeros(3))


# ---------------------------------------------------------------------
# bit-exact: the C kernels against the numpy reference on hard cases
# ---------------------------------------------------------------------


def _insertion_framework(seed, leaders=False, n=None, angle_set=laman_global_set):
    """A random vertex-insertion framework of n agents (5 to 15 drawn if
    None) under one of its Laman sets, started near its target: (pos,
    spec)."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(5, 16))
    c = random_construction(rng, n)
    g = build_laman(c)
    target = nondegenerate_points(rng, g)
    maneuver = None
    if leaders:
        a, b = g.edges[int(rng.integers(g.m))]
        maneuver = Maneuver(LeaderPair(a, b), tuple(rng.uniform(-1.0, 1.0, 2)))
    spec = FormationSpec(g, target, angle_set(c), maneuver)
    return target.pts + rng.uniform(-0.05, 0.05, (n, 2)), spec


def _law_of(spec):
    return spec._tri, spec.target_cosines, spec.graph.edge_array


# a 3 x 3 grid of integer points, each joined to its square and
# diagonal neighbours: side components are exactly +-0 or +-1, both
# orientations of a side meet, and right angles have cosines of +-0
GRID = np.array([[x, y] for y in range(-1, 2) for x in range(-1, 2)], dtype=float)
GRID_EDGES = [
    (i, j) for i in range(9) for j in range(i + 1, 9)
    if np.sum((GRID[i] - GRID[j]) ** 2) <= 2.0
]


@needs_cc
@pytest.mark.parametrize("cstar", [0.0, 0.5])
def test_c_kernels_bit_exact_on_axis_aligned_points(cstar):
    g = Graph(9, [(i + 1, j + 1) for i, j in GRID_EDGES])
    tri = full_angle_set(g).triple_array
    _assert_parity(_law_args(GRID, tri, np.full(len(tri), cstar), GRID_EDGES,
                             n_steps=20))


@needs_cc
def test_c_kernels_bit_exact_on_a_side_run_both_ways():
    # (0, 1) runs 0 -> 1 in the first triple and 1 -> 0 in the next two
    tri = [[0, 1, 2], [1, 0, 2], [1, 3, 0], [2, 0, 3]]
    pos = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 1.2], [1.4, 0.9]])
    _assert_parity(_law_args(pos, tri, [0.2, 0.4, -0.1, 0.6], [[0, 1], [0, 2], [1, 2]]))


@needs_cc
def test_c_control_stops_at_the_same_triple():
    pos, spec = _insertion_framework(4)
    tri = spec._tri
    mid = len(tri) // 2
    pos[tri[mid, 2]] = pos[tri[mid, 0]]  # the middle triple loses (a, c)
    u, cost, ok, vf = _kernels.make_c_backend().eval_control(
        pos, tri, spec.target_cosines, -1, -1, 0.0, 0.0, EDGE_EPS
    )
    assert not ok and cost == vf == 0.0 and not np.any(u)  # no partial sums
    _assert_parity(_law_args(pos, *_law_of(spec)))


@needs_cc
def test_c_kernels_bit_exact_at_a_coincident_stop():
    """A triple side shrinks through edge_eps mid-run; it is no graph
    edge here, so a control evaluation stops the run."""
    pos, spec = _insertion_framework(5)
    tri, cstar, _ = _law_of(spec)
    table = _kernels._integrate_np(*_law_args(pos, tri, cstar, _kernels._NO_EDGES)).table
    traj = table[:, 1:].reshape(len(table), -1, 2)
    sides = np.concatenate([tri[:, [0, 1]], tri[:, [0, 2]]])
    gaps = traj[:, sides[:, 0]] - traj[:, sides[:, 1]]
    lengths = np.hypot(gaps[..., 0], gaps[..., 1])  # (steps + 1, 2w)
    assert np.any(lengths[25] < lengths[0])
    edge_eps = float(np.min(lengths[25]))
    run = _assert_parity(_law_args(pos, tri, cstar, _kernels._NO_EDGES, edge_eps=edge_eps))
    assert run.status == _kernels.STATUS_COINCIDENT and 0.0 < run.t_stop < 0.5


# ---------------------------------------------------------------------
# the C side table: built from the triples alone
# ---------------------------------------------------------------------

K6 = Graph(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])


def test_side_table_lists_each_triple_side_once():
    tri = full_angle_set(K6).triple_array
    sides, code = _kernels._side_table(tri, 6)
    assert sides.shape == (15, 2) and code.shape == (len(tri), 2)
    assert np.all(sides[:, 0] < sides[:, 1])
    assert np.all(np.diff(sides[:, 0] * 6 + sides[:, 1]) > 0)
    ends = sides[code // 2]
    ends = np.where((code % 2 == 1)[..., None], ends[..., ::-1], ends)
    assert np.array_equal(ends, np.stack([tri[:, [0, 1]], tri[:, [0, 2]]], axis=1))


def _k6_tri(name):
    """(tri, edges) of one side-table edge case on six agents."""
    laman = laman_minimal_set(random_construction(np.random.default_rng(8), 6))
    return {
        "no-triples": (np.zeros((0, 3), dtype=np.int64), [[0, 1]]),
        "one-triple": ([[1, 0, 2]], [[0, 1], [1, 2]]),
        "odd-side-count": ([[0, 1, 2], [1, 0, 2]], [[0, 1], [0, 2], [1, 2]]),
        "one-side-in-many-triples": (full_angle_set(K6).triple_array, []),
        "no-edges": (laman.triple_array, []),
        "edges-miss-the-sides": (laman.triple_array, [[0, 5], [3, 4]]),
    }[name]


@needs_cc
@pytest.mark.parametrize("name", [
    "no-triples", "one-triple", "odd-side-count", "one-side-in-many-triples",
    "no-edges", "edges-miss-the-sides",
])
def test_side_table_edge_cases(name):
    tri, edges = _k6_tri(name)
    tri = np.asarray(tri, dtype=np.int64).reshape(-1, 3)
    sides, code = _kernels._side_table(tri, 6)
    if name == "odd-side-count":
        assert len(sides) % 2 == 1
    if name == "one-side-in-many-triples":
        assert np.max(np.bincount(code.ravel() // 2)) == 8
    rng = np.random.default_rng(9)
    pos = rng.uniform(-2.0, 2.0, (6, 2))
    cstar = rng.uniform(-0.5, 0.5, len(tri))
    _assert_parity(_law_args(pos, tri, cstar, edges, lead_a=0, lead_b=1, dsx=0.3, dsy=-0.2))


@needs_cc
@pytest.mark.parametrize("pair", ["graph-edge", "triple-side"])
def test_stage_evaluations_fail_only_on_triple_sides(pair):
    """Agent 6 sits two steps ahead of agent 2 on its path. As a graph
    edge the pair drops under edge_eps at a stage of step 0 unseen, and
    the check before step 1 stops the run; as a triple side it stops
    step 0."""
    spec = _spec()
    h = 0.05
    pos = PerturbationSpec(0.3, 11).sample(PENT).pts
    u = _kernels._control_np(pos, spec._tri, spec.target_cosines, -1, -1, 0.0, 0.0,
                             EDGE_EPS)[0]
    pos = np.vstack([pos, pos[1] + 2.0 * h * u[1]])
    tri, cstar = spec._tri, spec.target_cosines
    if pair == "triple-side":
        # its target is met at the start, so it adds no control there
        tri = np.vstack([tri, [[5, 1, 0]]])
        cstar = np.append(cstar, angle_terms(pos, tri[-1:])[0])
    run = _assert_parity(_law_args(
        pos, tri, cstar, np.vstack([spec.graph.edge_array, [[1, 5]]]), h=h, n_steps=5,
        edge_eps=1.75 * h * float(np.hypot(*u[1])),
    ))
    assert run.status == _kernels.STATUS_COINCIDENT
    assert run.t_stop == (h if pair == "graph-edge" else 0.0)


@needs_cc
def test_step_start_evaluation_fails_on_a_triple_side_off_the_graph():
    """Agent 6 starts on agent 2, a triple side that no edge covers: the
    edge check passes and step 0's first control evaluation stops the
    run at t = 0 on both kernels."""
    spec = _spec()
    pos = PerturbationSpec(0.3, 11).sample(PENT).pts
    pos = np.vstack([pos, pos[1]])
    tri = np.vstack([spec._tri, [[5, 1, 0]]])
    cstar = np.append(spec.target_cosines, 0.5)
    run = _assert_parity(_law_args(pos, tri, cstar, spec.graph.edge_array))
    assert (run.status, run.t_stop) == (_kernels.STATUS_COINCIDENT, 0.0)


@needs_cc
@pytest.mark.parametrize("when", ["start", "mid-run"])
@pytest.mark.parametrize("pair", ["uncovered-edge", "covered-edge", "side-off-graph"])
def test_collapse_parity_on_each_kind_of_pair(pair, when):
    """example2's explicit set leaves its edges (1, 2) and (2, 3)
    uncovered, and no triple moves agent 2. Put agent 2 on agent 1's
    path, at the start within edge_eps, or two steps ahead: a step's
    first C evaluation must find the uncovered edge (1, 2) among its
    records after the triple sides, and a triple (2, 1, 3)
    makes the pair a triple side, on the graph or with (1, 2) dropped
    from it. Both backends stop alike."""
    pos, spec = _shipped_spec("example2.json")
    pos, h = pos.copy(), 0.05
    u = _kernels._control_np(pos, spec._tri, spec.target_cosines, -1, -1, 0.0, 0.0,
                             EDGE_EPS)[0]
    pos[1] = pos[0] + (0.5 if when == "start" else 2.0) * h * u[0]
    tri, cstar, edges = spec._tri, spec.target_cosines, spec.graph.edge_array
    assert _kernels._uncovered(edges, _kernels._side_table(tri, 5)[0], 5).tolist() == [
        [0, 1], [1, 2]]
    if pair != "uncovered-edge":
        # its target is met at the start, so it adds no control there
        tri = np.vstack([tri, [[1, 0, 2]]])
        cstar = np.append(cstar, angle_terms(pos, tri[-1:])[0])
    if pair == "side-off-graph":
        edges = edges[1:]
    run = _assert_parity(_law_args(
        pos, tri, cstar, edges, h=h, n_steps=5,
        edge_eps=1.75 * h * float(np.hypot(*u[0])),
    ))
    assert run.status == _kernels.STATUS_COINCIDENT
    # a swept edge is seen at a step's start, a side at any stage
    assert run.t_stop == {"start": 0.0, "mid-run": h if pair == "uncovered-edge" else 0.0}[when]


@needs_cc
def test_c_integrate_sweeps_exactly_the_uncovered_edges(monkeypatch):
    """The C wrapper passes af_integrate the graph edges no triple side
    covers, in either orientation, as the m records after the k triple
    sides: two of example2's seven, none of a triangle set's."""
    lib, swept = _kernels._load_library(), []

    class Spy:
        """af_integrate, recording the edge records it is given."""

        def __init__(self, fn):
            object.__setattr__(self, "fn", fn)

        def __setattr__(self, name, value):  # restype, argtypes
            setattr(self.fn, name, value)

        def __call__(self, *args):
            k, at, m = args[5], args[6], args[8]
            rows = (ctypes.c_int64 * (2 * m)).from_address(at + 16 * k) if m else []
            swept.append(np.array(rows, dtype=np.int64).reshape(-1, 2).tolist())
            return self.fn(*args)

    class Lib:
        def __getattr__(self, name):
            fn = getattr(lib, name)
            return Spy(fn) if name == "af_integrate" else fn

    monkeypatch.setattr(_kernels, "_load_library", Lib)
    cases = [(_shipped_spec("example2.json"), [[0, 1], [1, 2]]),
             (_insertion_framework(6), [])]
    for (pos, spec), want in cases:
        sides = {tuple(sorted((t[0], t[w]))) for t in spec._tri.tolist() for w in (1, 2)}
        edges = spec.graph.edge_array
        assert [e for e in edges.tolist() if tuple(e) not in sides] == want
        _kernels.make_c_backend().integrate(*_integrate_args(spec, pos, n_steps=3))
        assert swept.pop() == want
        n, flipped = spec.graph.n, edges[::-1, ::-1]  # (j, i) rows, reversed
        got = _kernels._uncovered(flipped, _kernels._side_table(spec._tri, n)[0], n)
        assert got.tolist() == [e[::-1] for e in want[::-1]]
        assert got.flags.c_contiguous and got.dtype == np.int64


# ---------------------------------------------------------------------
# V_F recorded by the integrator
# ---------------------------------------------------------------------


def _shipped_spec(name):
    sc = load_scenario(SRC.parent / "scenarios" / name)
    spec = FormationSpec(sc.graph, sc.base, resolve_angle_set(sc), sc.maneuver)
    return sc.initial_configuration().pts, spec


@pytest.mark.parametrize("name", ["example1.json", "example2.json", "example3.json"])
def test_vf_recorded_on_shipped_scenarios(name):
    pos, spec = _shipped_spec(name)
    run = _assert_parity(_integrate_args(spec, pos, n_steps=300, record_every=20))
    assert run.status == _kernels.STATUS_RAN and run.n_rec == 16
    assert (spec.maneuver is not None) == (name == "example3.json")


def test_vf_recorded_at_a_convergence_at_step_0():
    args = _integrate_args(_spec(), PENT.pts.copy(), cost_tol=1e-8, grad_tol=1e-4)
    run = _assert_parity(args)
    assert (run.n_rec, run.status, run.t_stop) == (1, _kernels.STATUS_CONVERGED, 0.0)


@pytest.mark.parametrize("converges", [False, True], ids=["ran", "converged"])
def test_run_keeps_status_and_t_stop_at_positions_3_and_4(converges):
    """perfbench/spans.py::_integrate_counts reads an integrate result's
    status and t_stop as result[3] and result[4]: both backends keep
    them there, so new Run fields go last."""
    assert _kernels.Run._fields == ("table", "vf", "n_rec", "status", "t_stop")
    if converges:
        args = _integrate_args(_spec(), PENT.pts, cost_tol=1e-8, grad_tol=1e-4)
    else:
        args = _integrate_args(_spec(), PerturbationSpec(0.2, 12).sample(PENT).pts)
    want = _kernels.STATUS_CONVERGED if converges else _kernels.STATUS_RAN
    for b in _backends():
        run = b.integrate(*args)
        assert run.status == want
        assert run[3] == run.status and run[4] == run.t_stop


def _load_spans():
    """perfbench/spans.py, loaded by path: perfbench is not a package."""
    path = SRC.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _angleform_names():
    """id of every name bound in an angleform module and on AngleIndexSet."""
    spaces = [vars(m) for k, m in sys.modules.items() if k.split(".")[0] == "angleform"]
    spaces.append(vars(AngleIndexSet))
    return [{k: id(v) for k, v in space.items()} for space in spaces]


@pytest.mark.parametrize("example", [1, 2, 3])
def test_benchmark_hooks_resolve(example):
    """The benchmark reaches into the package by name: spans.py's tracer
    wraps every LAYERS entry (AngleIndexSet.validate_for among them) and
    restores it, and run.py calls eval_control on a spec's _tri, _lead and
    _dstar and reads HAVE_NUMBA and ENV_FLAG. perfbench/selfcheck.py
    catches a rename too, but not in Tier-1 time."""
    spans = _load_spans()
    before = _angleform_names()
    with spans.Tracer().patched():
        assert _angleform_names() != before
    assert _angleform_names() == before
    sc = load_scenario(SRC.parent / "scenarios" / f"example{example}.json")
    spec = FormationSpec(sc.graph, sc.base, resolve_angle_set(sc), maneuver=sc.maneuver)
    pos = np.array(sc.initial_configuration().pts)
    u, cost = _kernels.eval_control(pos, spec._tri, spec.target_cosines, *spec._lead,
                                    *spec._dstar, EDGE_EPS)[:2]
    assert u.shape == pos.shape and cost > 0.0
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert _kernels.ENV_FLAG == "ANGLEFORM_NUMBA"


def test_vf_recorded_at_a_convergence_off_the_record_grid():
    pos = PerturbationSpec(1e-4, 3).sample(PENT).pts
    args = _integrate_args(_spec(), pos, h=1e-2, record_every=7, cost_tol=2e-9,
                           grad_tol=1e-4)
    run = _assert_parity(args)
    assert run.status == _kernels.STATUS_CONVERGED
    assert run.table[run.n_rec - 1, 0] == run.t_stop
    assert round(run.t_stop / 1e-2) % 7 != 0


def test_vf_recorded_when_record_every_leaves_a_final_sample():
    pos = PerturbationSpec(0.2, 12).sample(PENT).pts
    run = _assert_parity(_integrate_args(_spec(), pos, n_steps=250, record_every=100))
    # the grid at 0, 0.1 and 0.2, then the off-grid final state at 0.25
    assert (run.n_rec, run.status) == (4, _kernels.STATUS_RAN) and run.table[3, 0] == 0.25
    assert np.allclose(run.table[:3, 0], [0.0, 0.1, 0.2])


def test_vf_recorded_for_no_steps():
    pos = PerturbationSpec(0.2, 12).sample(PENT).pts
    run = _assert_parity(_integrate_args(_spec(), pos, n_steps=0))
    assert (run.n_rec, run.status) == (1, _kernels.STATUS_RAN)
    assert run.vf[0] == cost_VF(_spec(), Configuration(pos))


def test_vf_recorded_on_the_edgeless_graph():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    no_tri = np.zeros((0, 3), dtype=np.int64)
    # cost_tol 0: a zero cost does not converge, so all 10 steps run
    run = _assert_parity(_law_args(pos, no_tri, np.zeros(0), _kernels._NO_EDGES,
                                   h=1e-3, n_steps=10, record_every=4, cost_tol=0.0))
    assert (run.n_rec, run.status) == (4, _kernels.STATUS_RAN)
    _assert_bits(run.vf[:4], np.zeros(4))


def test_vf_of_a_collapsed_final_state_is_zero_and_the_run_ran():
    """The final state's own evaluation fails on a triple side that no
    step checked: vf is 0.0 there and the status stays STATUS_RAN."""
    spec = _spec()
    pos = PENT.pts.copy()
    pos[2] = pos[0]  # triple (1, 2, 3) loses its side (1, 3)
    runs = [b.integrate(*_integrate_args(spec, pos, n_steps=0)) for b in _backends()]
    for run in runs:
        assert (run.n_rec, run.status) == (1, _kernels.STATUS_RAN)
        _assert_bits(run.vf[:1], [0.0])
    _assert_runs_agree(runs[-1], runs[0])
