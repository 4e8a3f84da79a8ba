import numpy as np
import pytest

from angleform import _kernels
from angleform.errors import (
    BlowUp,
    CoincidentPoints,
    NoManeuverTarget,
)
from angleform.formation import (
    DECAY_FLOOR,
    FormationSpec,
    MAX_STEPS,
    IntegratorConfig,
    Maneuver,
    PerturbationSpec,
    control_uF,
    control_uM,
    cost_VF,
    decay_rate_fit,
    equilibrium_membership,
    residual,
    simulate,
)
from angleform.geometry import monitors
from angleform.graph import LeaderPair, build_laman
from angleform.index_sets import laman_minimal_set, triangle_formation_set
from angleform.rigidity import Configuration
from angleform.errors import ValidationError
from helpers import (
    angle_matrix_product,
    control_per_agent,
    fan_construction,
    nondegenerate_points,
    random_construction,
)


@pytest.fixture
def spec(fan5, pentagon):
    return FormationSpec(fan5, pentagon)


def test_spec_defaults(fan5, pentagon, spec):
    assert spec.angle_set.triples == triangle_formation_set(fan5).triples
    assert spec.n == 5
    assert spec.target_cosines.shape == (6,)


def test_spec_shares_the_angle_set_store(fan5, pentagon):
    """The kernels read the angle set's own read-only array, not a copy."""
    T = triangle_formation_set(fan5)
    assert FormationSpec(fan5, pentagon, T)._tri is T.triple_array


def test_spec_validation(fan5, pentagon):
    with pytest.raises(ValidationError):
        FormationSpec(fan5, Configuration([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        FormationSpec(
            fan5, pentagon,
            maneuver=Maneuver(LeaderPair(2, 5), (1.0, 0.0)),  # not an edge
        )
    with pytest.raises(ValueError):
        Maneuver(LeaderPair(3, 4), (0.0, 0.0))  # zero displacement
    line = Configuration(
        [[float(i), 0.0] for i in range(5)]
    )
    # witness triangles are collinear at this target; the witness
    # refusals name the scenario's construction block
    with pytest.raises(ValidationError, match="^construction: witness triangle"):
        FormationSpec(fan5, line, witness=fan_construction(5))
    with pytest.raises(ValidationError, match="^construction: witness vertex count"):
        FormationSpec(fan5, pentagon, witness=fan_construction(4))


def test_perturbation_reproducible(pentagon):
    a = PerturbationSpec(0.5, 2).sample(pentagon)
    b = PerturbationSpec(0.5, 2).sample(pentagon)
    assert np.array_equal(a.pts, b.pts)
    c = PerturbationSpec(0.5, 3).sample(pentagon)
    assert not np.array_equal(a.pts, c.pts)
    assert np.max(np.abs(a.pts - pentagon.pts)) <= 0.5
    with pytest.raises(ValueError):
        PerturbationSpec(-0.1, 0)


def test_residual_and_cost_zero_at_target(spec, pentagon):
    assert np.max(np.abs(residual(spec, pentagon))) == 0.0
    assert cost_VF(spec, pentagon) == 0.0
    u = control_uF(spec, pentagon)
    assert np.max(np.abs(u)) < 1e-15


def _control_cases(fan5, pentagon):
    """Perturbed fan5/pentagon, then perturbed random Laman formations."""
    rng = np.random.default_rng(34)
    spec = FormationSpec(fan5, pentagon)
    for _ in range(3):
        yield spec, Configuration(pentagon.pts + rng.uniform(-0.3, 0.3, (5, 2)))
    for n in (20, 60):
        c = random_construction(rng, n)
        g = build_laman(c)
        target = nondegenerate_points(rng, g)
        spec = FormationSpec(g, target, laman_minimal_set(c))
        yield spec, Configuration(target.pts + rng.uniform(-0.05, 0.05, (n, 2)))


def test_control_matches_oracles(fan5, pentagon):
    for spec, p in _control_cases(fan5, pentagon):
        u = control_uF(spec, p)
        R = angle_matrix_product(spec.graph, p, spec.angle_set)
        assert np.max(np.abs(u - control_per_agent(spec, p))) <= 1e-10
        assert np.max(np.abs(u + R.T @ residual(spec, p))) <= 1e-10


def test_control_uM_differs_only_at_leaders(fan5, pentagon):
    man = Maneuver(LeaderPair(3, 4), (-0.5, 0.0))
    spec_m = FormationSpec(fan5, pentagon, maneuver=man)
    rng = np.random.default_rng(32)
    p = Configuration(pentagon.pts + rng.uniform(-0.2, 0.2, (5, 2)))
    uf = control_uF(spec_m, p)
    um = control_uM(spec_m, p)
    err = np.asarray(man.displacement) - (p.point(3) - p.point(4))
    diff = (um - uf).reshape(5, 2)
    assert np.allclose(diff[2], err)
    assert np.allclose(diff[3], -err)
    assert np.allclose(diff[[0, 1, 4]], 0.0)


def test_control_uM_requires_maneuver(spec, pentagon):
    with pytest.raises(NoManeuverTarget):
        control_uM(spec, pentagon)


@pytest.mark.parametrize("moved, onto", [(3, 1), (4, 3), (5, 4)])
def test_control_and_cost_name_the_coincident_pair(fan5, pentagon, moved, onto):
    # every pair here is an edge of some triple of the triangle set
    man = Maneuver(LeaderPair(3, 4), (-0.5, 0.0))
    spec = FormationSpec(fan5, pentagon, maneuver=man)
    pts = pentagon.pts.copy()
    pts[moved - 1] = pts[onto - 1]
    p = Configuration(pts)
    with pytest.raises(CoincidentPoints) as want:
        residual(spec, p)
    assert set(want.value.pair) == {moved, onto}
    for law in (control_uF, control_uM, cost_VF):
        with pytest.raises(CoincidentPoints) as got:
            law(spec, p)
        assert got.value.pair == want.value.pair, law.__name__


def test_maneuver_target_rotation_branch(fan5, pentagon):
    man = Maneuver(LeaderPair(3, 4), (-0.5, 0.0))
    spec_m = FormationSpec(fan5, pentagon, maneuver=man)
    tgt = spec_m.maneuver_target()
    # commanded displacement achieved exactly
    assert np.allclose(tgt.point(3) - tgt.point(4), [-0.5, 0.0])
    # proper rotation branch: orientation (signed area sign) preserved
    def area(p):
        x, y = p.pts[:, 0], p.pts[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert np.sign(area(tgt)) == np.sign(area(pentagon))
    with pytest.raises(NoManeuverTarget):
        FormationSpec(fan5, pentagon).maneuver_target()


def test_simulate_descends_and_converges(spec, pentagon):
    p0 = PerturbationSpec(0.4, 7).sample(pentagon)
    res = simulate(spec, p0, IntegratorConfig(t_final=3.0))
    assert res.backend in ("c", "numpy")
    assert np.all(np.diff(res.vf) <= 1e-15)
    assert res.vf[-1] < res.vf[0]
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(3.0)
    assert res.positions.shape == (len(res.times), 5, 2)
    # record grid honors the stride
    assert np.allclose(np.diff(res.times), 0.1)


def test_simulate_converged_flag(spec, pentagon):
    p0 = PerturbationSpec(0.01, 9).sample(pentagon)
    cfg = IntegratorConfig(t_final=50.0, cost_tol=1e-12, grad_tol=1e-6)
    res = simulate(spec, p0, cfg)
    assert res.converged
    assert res.t_end < 50.0
    assert res.times[-1] == pytest.approx(res.t_end)
    # final recorded sample is the stopping state, not a stride multiple
    assert res.vf[-1] < 1e-11


def test_simulate_blowup_on_coincident_start(fan5, pentagon):
    pts = pentagon.pts.copy()
    pts[1] = pts[0]  # vertices 1 and 2 share an edge and a position
    spec = FormationSpec(fan5, pentagon)
    with pytest.raises(BlowUp) as err:
        simulate(spec, Configuration(pts))
    assert err.value.time == 0.0


@pytest.fixture(params=["numpy", "c"])
def backend(request, monkeypatch):
    """simulate on the named kernel backend; C is skipped where no
    compiler is."""
    if request.param == "numpy":
        chosen = _kernels.make_numpy_backend()
    elif _kernels.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    else:
        chosen = _kernels.make_c_backend()
    monkeypatch.setattr(_kernels, "_active", chosen)
    return chosen.name


def test_simulate_without_steps_records_the_start(spec, pentagon, backend):
    p0 = PerturbationSpec(0.3, 3).sample(pentagon)
    res = simulate(spec, p0, IntegratorConfig(h=1e-3, t_final=4e-4))  # 0 steps
    assert res.backend == backend
    assert res.times.tolist() == [0.0] and res.t_end == 0.0
    assert res.vf.tolist() == [cost_VF(spec, p0)]


def test_simulate_collapsed_final_state_raises_as_membership_does(
    spec, pentagon, backend
):
    """With no step, only the integrator's own evaluation of the final
    state sees the collapsed triple side. The run still ends as
    STATUS_RAN, so simulate raises equilibrium_membership's
    CoincidentPoints, not BlowUp."""
    pts = pentagon.pts.copy()
    pts[2] = pts[0]  # triple (1, 2, 3) loses its side (1, 3)
    p0 = Configuration(pts)
    with pytest.raises(CoincidentPoints) as want:
        equilibrium_membership(spec, p0)
    with pytest.raises(CoincidentPoints) as got:
        simulate(spec, p0, IntegratorConfig(h=1e-3, t_final=4e-4))
    assert (got.value.pair, got.value.distance) == (want.value.pair, want.value.distance)


def test_simulate_validates_size(spec):
    with pytest.raises(ValidationError):
        simulate(spec, Configuration([[0.0, 0.0], [1.0, 0.0]]))


def test_integrator_config_caps_steps():
    cfg = IntegratorConfig(h=1.0, t_final=float(MAX_STEPS), record_stride=1.0)
    assert cfg.n_steps == MAX_STEPS
    for h, t_final in ((1.0, MAX_STEPS + 1.0), (1e-9, 50.0), (1e-300, 1e300)):
        with pytest.raises(ValueError, match="over the limit of 100000000"):
            IntegratorConfig(h=h, t_final=t_final, record_stride=1.0)


def test_record_stride_past_t_final_records_as_t_final():
    for h, t_final in ((1e-3, 1.0), (1e-9, 0.05)):
        far = IntegratorConfig(h=h, t_final=t_final, record_stride=1e300)
        at = IntegratorConfig(h=h, t_final=t_final, record_stride=t_final)
        assert far.record_every == at.record_every == at.n_steps


def test_simulate_starts_at_equilibrium(spec, pentagon):
    res = simulate(spec, pentagon, IntegratorConfig(t_final=1.0))
    assert res.decay_rate == 0.0
    assert res.in_constraint_set and res.in_shape_class


def test_equilibrium_membership_variants(fan5, pentagon):
    man = Maneuver(LeaderPair(3, 4), (-0.5, 0.0))
    spec_m = FormationSpec(fan5, pentagon, maneuver=man)
    tgt = spec_m.maneuver_target()
    shifted = Configuration(tgt.pts + np.array([3.0, -1.0]))
    em = equilibrium_membership(spec_m, shifted)
    assert em.in_constraint_set and em.in_shape_class
    assert em.in_translation_family is True
    # reflected copy achieves the displacement but is outside the family
    flipped = Configuration(tgt.pts @ np.diag([1.0, -1.0]))
    assert np.allclose(flipped.point(3) - flipped.point(4), [-0.5, 0.0])
    em2 = equilibrium_membership(spec_m, flipped)
    assert em2.in_translation_family is False
    # without a maneuver the family verdict is absent
    em3 = equilibrium_membership(FormationSpec(fan5, pentagon), pentagon)
    assert em3.in_translation_family is None


def test_maneuver_simulation_short(fan5, pentagon):
    man = Maneuver(LeaderPair(3, 4), (-0.5, 0.0))
    spec_m = FormationSpec(fan5, pentagon, maneuver=man)
    p0 = PerturbationSpec(0.3, 2).sample(pentagon)
    res = simulate(spec_m, p0, IntegratorConfig(t_final=50.0))
    assert res.vm is not None
    assert np.allclose(res.v, res.vf + res.vm)
    assert res.maneuver_error is not None
    # leader error shrinks by well over an order of magnitude
    err0 = np.linalg.norm(
        np.asarray(man.displacement) - (p0.point(3) - p0.point(4))
    )
    assert res.maneuver_error < 0.1 * err0


def _lapack(*args, **kwargs):
    raise AssertionError("simulate called LAPACK")


@pytest.mark.parametrize("backend", ["c"], indirect=True)
@pytest.mark.parametrize(
    "maneuver", [None, Maneuver(LeaderPair(3, 4), (-0.5, 0.0))], ids=["plain", "maneuver"]
)
def test_simulate_post_processing_calls_no_lapack(
    fan5, pentagon, monkeypatch, backend, maneuver
):
    """The decay and similarity fits are closed forms: a plain and a
    maneuver run, each fitting its decay rate and its final shape class,
    finish with np.polyfit and numpy's LAPACK drivers made to raise."""
    spec = FormationSpec(fan5, pentagon, maneuver=maneuver)
    p0 = PerturbationSpec(0.3, 2).sample(pentagon)
    monkeypatch.setattr(np, "polyfit", _lapack)
    for name in ("svd", "det", "lstsq", "solve", "inv", "qr", "eig", "eigh",
                 "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _lapack)
    res = simulate(spec, p0, IntegratorConfig(t_final=5.0))
    assert 0.0 < res.decay_rate < np.inf


def test_decay_rate_fit_is_the_polyfit_slope(spec, pentagon):
    """The centered closed-form slope is the slope np.polyfit fits (to
    1e-12 relative), on a noisy exponential, a series that drops under
    DECAY_FLOOR, and a flow's V_F series."""
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 30.0, 301)
    run = simulate(spec, PerturbationSpec(0.3, 5).sample(pentagon),
                   IntegratorConfig(t_final=10.0))
    for times, v in [
        (t, 3.0 * np.exp(-0.7 * t + rng.normal(0.0, 0.1, t.size))),
        (t, np.where(t < 12.0, np.exp(-2.5 * t), 1e-20)),
        (run.times, run.vf),
    ]:
        kept = v > DECAY_FLOOR
        want = -np.polyfit(times[kept], np.log(v[kept]), 1)[0]
        assert decay_rate_fit(times, v) == pytest.approx(want, rel=1e-12, abs=0)


# the eight signed axis permutations of the plane, as (axis order, signs)
AXIS_MAPS = [
    (perm, np.array(signs, dtype=float))
    for perm in ([0, 1], [1, 0])
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))
]


def _mapped(pts, perm, signs, scale):
    """pts (..., 2) under a signed axis permutation and a power of two:
    every product exact."""
    return scale * signs * pts[..., perm]


@pytest.mark.parametrize("backend", ["numpy", "c"], indirect=True)
def test_flow_is_exactly_equivariant_under_axis_maps_and_scaling(backend):
    """Mirrored, swapped and 2^k-scaled starts (k in -20, -3, 5, 20, with
    h, t_final and record_stride times 4^k and grad_tol times 2^-k) give
    the mapped table rows, the same V_F, convergence verdict and decay
    rate over the scaled time, and the mapped centroid and scale, bit for
    bit; on random Laman frameworks with their minimal sets, one of them
    stopping at convergence off the record grid."""
    if backend == "c":
        cases = [(1, 21, 1e-14, 1e-10), (2, 43, 1e-14, 1e-10), (3, 60, 1e-3, 0.1)]
        h, t_final, stride = 1e-3, 5.0, 0.1
    else:  # about 600x slower a step
        cases, (h, t_final, stride) = [(4, 7, 1e-14, 1e-10)], (1e-3, 0.05, 0.01)
    converged = []
    for seed, n, cost_tol, grad_tol in cases:
        rng = np.random.default_rng(seed)
        construction = random_construction(rng, n)
        target = nondegenerate_points(rng, build_laman(construction))
        spec = FormationSpec(
            build_laman(construction), target, laman_minimal_set(construction)
        )
        p0 = PerturbationSpec(0.05, seed).sample(target)
        base = simulate(spec, p0, IntegratorConfig(h, t_final, stride, cost_tol, grad_tol))
        converged.append(base.converged)
        for i, (perm, signs) in enumerate(AXIS_MAPS):
            k = (-20, -3, 5, 20)[i % 4]
            s, s2 = 2.0**k, 4.0**k
            config = IntegratorConfig(h * s2, t_final * s2, stride * s2, cost_tol, grad_tol / s)
            run = simulate(spec, Configuration(_mapped(p0.pts, perm, signs, s)), config)
            assert run.times.tobytes() == (base.times * s2).tobytes()
            assert run.positions.tobytes() == _mapped(base.positions, perm, signs, s).tobytes()
            assert run.vf.tobytes() == base.vf.tobytes()
            assert (run.converged, run.t_end) == (base.converged, base.t_end * s2)
            assert run.decay_rate == base.decay_rate / s2
            assert run.centroid.tobytes() == _mapped(base.centroid, perm, signs, s).tobytes()
            # the scale sums each sample's 2n squares in memory order, and
            # numpy adds the last 2n mod 8 of them in sequence: the swap
            # reorders that sum, so its scale is the swapped base run's, laid
            # out in C order as a table's rows are
            swapped = np.ascontiguousarray(base.positions[..., perm])
            want = base.scale if perm == [0, 1] else monitors(swapped)[1]
            assert run.scale.tobytes() == (s * want).tobytes()
    assert converged == [False, False, True][: len(cases)]
