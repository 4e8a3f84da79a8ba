import numpy as np
import pytest

from angleform import _kernels
from angleform.errors import (
    BlowUp,
    CoincidentPoints,
    NoManeuverTarget,
)
from angleform.formation import (
    FormationSpec,
    MAX_STEPS,
    IntegratorConfig,
    Maneuver,
    PerturbationSpec,
    control_uF,
    control_uM,
    cost_VF,
    equilibrium_membership,
    residual,
    simulate,
)
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
    with pytest.raises(ValidationError):
        # witness triangles are collinear at this target
        FormationSpec(fan5, line, witness=fan_construction(5))


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
