"""Acceptance gate: twelve numbered criteria, one test each.

Each test records a PASS/FAIL line through the `criterion` fixture; the
lines are printed together after the run. Budgeted criteria measure
their own wall time with time.perf_counter and include it in the check.
"""

import io
import time
from pathlib import Path

import numpy as np

from angleform import cli
from angleform.formation import (
    FormationSpec,
    PerturbationSpec,
    monitors,
    residual,
    simulate,
)
from angleform.graph import LeaderPair, build_laman, leader_laplacian
from angleform.index_sets import (
    algorithm1_set,
    full_angle_set,
    laman_global_set,
    laman_minimal_set,
)
from angleform.rigidity import (
    AngleIndexSet,
    Configuration,
    angle_rigidity_function,
    angle_rigidity_matrix,
    is_infinitesimally_angle_rigid,
    is_infinitesimally_bearing_rigid,
    jacobian_spectrum,
    numerical_rank,
    shape_class_membership,
    trivial_motion_basis,
)

from helpers import (
    equivalence_frameworks,
    fan_construction,
    generic_points,
    nondegenerate_points,
    random_connected_graph,
    random_construction,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = (2, 6, 14, 22, 27, 30, 36, 38, 48, 56)

# simulation runs shared between criteria 7 and 10 (and 8/9 reuse the
# loader); computed once, keyed by scenario stem
_RUNS = {}


def _scenario(stem):
    return cli.load_scenario(SCENARIOS / f"{stem}.json")


def _seeded_start(sc, seed):
    """The scenario's perturbed start, drawn with another seed."""
    return PerturbationSpec(sc.perturbation.amplitude, seed).sample(sc.base)


def _example1_runs():
    """(elapsed_seconds, scenario, [SimulationResult per seed])."""
    if "example1" not in _RUNS:
        sc = _scenario("example1")
        spec = FormationSpec(
            sc.graph, sc.base, cli.resolve_angle_set(sc), witness=sc.construction
        )
        t0 = time.perf_counter()
        results = [
            simulate(spec, _seeded_start(sc, s), sc.integrator)
            for s in SEEDS
        ]
        _RUNS["example1"] = (time.perf_counter() - t0, sc, results)
    return _RUNS["example1"]


def _example3_run():
    if "example3" not in _RUNS:
        sc = _scenario("example3")
        spec = FormationSpec(
            sc.graph,
            sc.base,
            cli.resolve_angle_set(sc),
            maneuver=sc.maneuver,
            witness=sc.construction,
        )
        t0 = time.perf_counter()
        result = simulate(spec, sc.initial_configuration(), sc.integrator)
        _RUNS["example3"] = (time.perf_counter() - t0, sc, spec, result)
    return _RUNS["example3"]


def test_criterion_01_pentagon_target_cosines(criterion, fan5, pentagon):
    t0 = time.perf_counter()
    sc = _scenario("example1")
    T = cli.resolve_angle_set(sc)
    cos = angle_rigidity_function(fan5, pentagon, T)
    c36 = (1.0 + np.sqrt(5.0)) / 4.0
    c72 = (np.sqrt(5.0) - 1.0) / 4.0
    expected = {
        (1, 2, 3): c36,
        (1, 3, 4): c36,
        (1, 4, 5): c36,
        (2, 1, 3): -c72,
        (3, 1, 4): c72,
        (4, 1, 5): c36,
    }
    dev = max(
        abs(cos[idx] - expected[t]) for idx, t in enumerate(T.triples)
    )
    elapsed = time.perf_counter() - t0
    criterion(
        1,
        "pentagon target cosines (six triples, tol 1e-3)",
        len(T) == 6 and set(T.triples) == set(expected) and dev < 1e-3
        and elapsed < 1.0,
        f"max dev {dev:.2e}; {elapsed:.2f}s",
    )


def test_criterion_02_minimal_set_rank_and_nullspace(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst_resid, ok = 0.0, True
    for n in range(3, 11):
        for _ in range(20):
            c = random_construction(rng, n)
            g = build_laman(c)
            p = nondegenerate_points(rng, g)
            T = laman_minimal_set(c)
            R = angle_rigidity_matrix(g, p, T)
            info = numerical_rank(R)
            ok = ok and info.rank == 2 * n - 4 and info.nullspace_dim == 4
            basis = trivial_motion_basis(p)
            basis = basis / np.linalg.norm(basis, axis=1, keepdims=True)
            resid = float(np.max(np.abs(R @ basis.T)))
            worst_resid = max(worst_resid, resid)
            ok = ok and resid < 1e-10
    elapsed = time.perf_counter() - t0
    criterion(
        2,
        "rank 2n-4 / nullspace 4 for minimal sets, n=3..10 x20",
        ok and elapsed < 10.0,
        f"worst trivial residual {worst_resid:.2e}; {elapsed:.2f}s",
    )


def test_criterion_03_angle_bearing_equivalence(criterion):
    t0 = time.perf_counter()
    agree, rigid, flexible = 0, 0, 0
    total = 120
    for g, p in equivalence_frameworks(21, total):
        a = is_infinitesimally_angle_rigid(g, p, full_angle_set(g)).verdict
        b = is_infinitesimally_bearing_rigid(g, p).verdict
        agree += int(a == b)
        rigid += int(b)
        flexible += int(not b)
    elapsed = time.perf_counter() - t0
    criterion(
        3,
        "angle/bearing rigidity agreement on random frameworks",
        agree == total and rigid > 0 and flexible > 0 and elapsed < 30.0,
        f"{agree}/{total} agree ({rigid} rigid, {flexible} flexible); "
        f"{elapsed:.2f}s",
    )


def test_criterion_04_greedy_selection_rigid_and_sized(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    accepted, all_rigid = 0, True
    while accepted < 50:
        n = int(rng.integers(4, 10))
        g = random_connected_graph(rng, n, int(rng.integers(1, 2 * n - 3)))
        p = generic_points(rng, n)
        if not is_infinitesimally_angle_rigid(g, p, full_angle_set(g)).verdict:
            continue
        accepted += 1
        T = algorithm1_set(g, p)
        rep = is_infinitesimally_angle_rigid(g, p, T)
        all_rigid = all_rigid and rep.nullspace_dim == 4
    sizes_ok = True
    for n in range(4, 10):
        c = random_construction(rng, n)
        g = build_laman(c)
        p = nondegenerate_points(rng, g)
        T = algorithm1_set(g, p)
        sizes_ok = sizes_ok and len(T) == 3 * n - 6 == 2 * g.m - g.n
    elapsed = time.perf_counter() - t0
    criterion(
        4,
        "greedy selection keeps rigidity; minimal graphs give 3n-6",
        all_rigid and sizes_ok and elapsed < 30.0,
        f"50 frameworks; {elapsed:.2f}s",
    )


def test_criterion_05_set_cardinalities_and_fan_lists(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    ok = True
    for n in range(4, 12):
        c = random_construction(rng, n)
        ok = ok and len(laman_minimal_set(c)) == 2 * n - 4
        ok = ok and len(laman_global_set(c)) == 3 * n - 7
    fan5 = fan_construction(5)
    ok = ok and laman_minimal_set(fan5).triples == (
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 1, 3), (3, 1, 4), (4, 1, 5),
    )
    ok = ok and laman_global_set(fan5).triples == (
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (1, 4, 5),
        (2, 1, 3), (3, 1, 4), (4, 1, 5),
    )
    elapsed = time.perf_counter() - t0
    criterion(
        5,
        "cardinalities 2n-4 and 3n-7; exact fan triple lists",
        ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_06_minimal_sets_are_minimal(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(24)
    ok = True
    for n in range(3, 9):
        c = fan_construction(n)
        g = build_laman(c)
        p = nondegenerate_points(rng, g)
        T = laman_minimal_set(c)
        ok = ok and is_infinitesimally_angle_rigid(g, p, T).nullspace_dim == 4
        for drop in range(len(T.triples)):
            sub = AngleIndexSet(T.triples[:drop] + T.triples[drop + 1:])
            rep = is_infinitesimally_angle_rigid(g, p, sub)
            ok = ok and rep.nullspace_dim > 4
    elapsed = time.perf_counter() - t0
    criterion(
        6,
        "dropping any triple from a minimal set loses rigidity, n=3..8",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_07_decay_envelope_and_endpoint_shape(criterion):
    elapsed, sc, results = _example1_runs()
    worst_ratio, worst_resid, ok = 0.0, 0.0, True
    for r in results:
        envelope = np.exp(-0.1 * r.times) * r.vf[0]
        ok = ok and bool(np.all(r.vf <= envelope))
        worst_ratio = max(worst_ratio, float(np.max(r.vf[1:] / envelope[1:])))
        rep = shape_class_membership(
            sc.base, Configuration(r.positions[-1]), tol=1e-3
        )
        ok = ok and rep.member
        worst_resid = max(worst_resid, rep.residual)
    criterion(
        7,
        "ten seeded runs: V_F under exp(-0.1 t) envelope, endpoint in class",
        ok and elapsed < 60.0,
        f"worst ratio {worst_ratio:.4f}; worst shape residual "
        f"{worst_resid:.2e}; {elapsed:.2f}s",
    )


def test_criterion_08_sparse_set_converges_off_shape(criterion):
    sc = _scenario("example2")
    T = cli.resolve_angle_set(sc)
    spec = FormationSpec(sc.graph, sc.base, T)
    t0 = time.perf_counter()
    ok = len(T) == 4
    gammas, residq = [], []
    for s in SEEDS:
        r = simulate(spec, _seeded_start(sc, s), sc.integrator)
        rep = shape_class_membership(
            sc.base, Configuration(r.positions[-1]), tol=1e-3
        )
        ok = ok and r.decay_rate > 0.0 and not rep.member
        gammas.append(r.decay_rate)
        residq.append(rep.residual)
    elapsed = time.perf_counter() - t0
    criterion(
        8,
        "four-triple runs decay (gamma>0) yet end outside the shape class",
        ok and elapsed < 60.0,
        f"gamma in [{min(gammas):.2f},{max(gammas):.2f}]; endpoint residual "
        f">= {min(residq):.2e}; {elapsed:.2f}s",
    )


def test_criterion_09_maneuver_reaches_commanded_offset(criterion):
    elapsed, sc, spec, r = _example3_run()
    p_end = Configuration(r.positions[-1])
    gap = p_end.point(3) - p_end.point(4)
    offset_err = float(np.linalg.norm(gap - np.array([-0.5, 0.0])))
    resid_end = float(np.max(np.abs(residual(spec, p_end))))
    ok = (
        offset_err < 1e-6
        and resid_end < 1e-8
        and r.decay_rate > 0.0
        and r.in_translation_family
    )
    criterion(
        9,
        "leader displacement reached: offset, residuals, positive decay",
        ok and elapsed < 30.0,
        f"offset err {offset_err:.2e}; residual {resid_end:.2e}; "
        f"gamma {r.decay_rate:.3f}; {elapsed:.2f}s",
    )


def test_criterion_10_conserved_monitors(criterion):
    _, _, results = _example1_runs()
    ok, worst = True, 0.0
    for r in results:
        s0 = r.scale[0]
        sdrift = float(np.max(np.abs(r.scale - s0))) / s0
        cdrift = (
            float(np.max(np.linalg.norm(r.centroid - r.centroid[0], axis=1)))
            / s0
        )
        worst = max(worst, sdrift, cdrift)
        ok = ok and sdrift < 1e-8 and cdrift < 1e-8
    _, _, spec3, r3 = _example3_run()
    cdrift3 = (
        float(np.max(np.linalg.norm(r3.centroid - r3.centroid[0], axis=1)))
        / r3.scale[0]
    )
    target_scale = monitors(spec3.maneuver_target().pts)[1]
    gap_start = abs(r3.scale[0] - target_scale)
    gap_end = abs(r3.scale[-1] - target_scale)
    ok = ok and cdrift3 < 1e-8
    ok = ok and gap_end < gap_start and gap_end < 1e-6 * target_scale
    criterion(
        10,
        "centroid/scale invariants; maneuver rescales toward its target",
        ok,
        f"worst formation drift {worst:.2e}; maneuver scale gap "
        f"{gap_start:.2e} -> {gap_end:.2e}",
    )


def test_criterion_11_linearization_spectra(criterion, fan5, pentagon):
    sc = _scenario("example1")
    T = cli.resolve_angle_set(sc)
    cstar = angle_rigidity_function(fan5, pentagon, T)
    eig = jacobian_spectrum(pentagon, T, target_cosines=cstar)
    zeros = int(np.sum(np.abs(eig) < 1e-8))
    rest_ok = bool(np.all(np.sort(eig)[:-zeros] < -1e-6)) if zeros else False
    ok = zeros == 4 and rest_ok

    L = leader_laplacian(fan5, LeaderPair(3, 4))
    eig_m = jacobian_spectrum(pentagon, T, maneuver=L)
    zeros_m = int(np.sum(np.abs(eig_m) < 1e-8))
    ok = ok and zeros_m == 2 and bool(np.all(np.sort(eig_m)[:-2] < -1e-6))

    # eigenvectors of the leader-coupled linearization at the near-zero
    # eigenvalues must span pure translations
    R = angle_rigidity_matrix(fan5, pentagon, T)
    J = -(R.T @ R + L)
    w, V = np.linalg.eigh(J)
    near = V[:, np.abs(w) < 1e-8]
    n = pentagon.n
    basis = np.zeros((2 * n, 2))
    basis[0::2, 0] = 1.0 / np.sqrt(n)
    basis[1::2, 1] = 1.0 / np.sqrt(n)
    proj = basis @ (basis.T @ near)
    align = float(np.max(np.abs(near - proj)))
    ok = ok and near.shape[1] == 2 and align < 1e-8
    criterion(
        11,
        "spectra: 4 zero modes; 2 with leaders, aligned with translations",
        ok,
        f"zeros {zeros}/{zeros_m}; alignment residual {align:.2e}",
    )


def test_criterion_12_embedded_property_suites(criterion):
    t0 = time.perf_counter()
    stream = io.StringIO()
    failures = cli.cmd_selftest(stream=stream)
    elapsed = time.perf_counter() - t0
    tail = stream.getvalue().strip().splitlines()[-1]
    criterion(
        12,
        "embedded property suites all pass",
        failures == 0 and elapsed < 60.0,
        f"{tail}; {elapsed:.2f}s",
    )
