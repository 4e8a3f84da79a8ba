"""Angle-constrained formation control: cost, control laws, gradient-flow
simulation, and equilibrium diagnostics.

The formation objective tracks target angle cosines over an index set:
V_F(p) = 0.5 |f(p) - f(p*)|^2. The stabilizing law is the negative
gradient u = -R^T (f(p) - f(p*)). A maneuver adds a leader term steering
the displacement between two leader agents, which selects scale and
orientation of the final shape. The one numpy evaluation of both laws
and their cost is _kernels._control_np, the numpy backend's kernel;
cost_VF, control_uF and control_uM call it.

Simulation integrates the flow with classical fixed-step RK4 through the
kernels in angleform._kernels (compiled or pure-numpy backend).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .errors import (
    BlowUp,
    NoManeuverTarget,
    NonPositiveSeries,
    ValidationError,
)
from .geometry import length, monitors
from .graph import Graph, LamanConstruction, LeaderPair, _in_sorted
from .index_sets import triangle_formation_set
from .rigidity import (
    EDGE_EPS,
    AngleIndexSet,
    Configuration,
    SimilarityTransform,
    angle_cosines,
    is_strongly_nondegenerate,
    shape_class_membership,
)

# convergence: stop early once cost and gradient norm both drop below
COST_TOL = 1e-14
GRAD_TOL = 1e-10
# any coordinate beyond this magnitude aborts the run
BLOWUP_LIMIT = 1e9
# residual infinity-norm for membership in the constraint-equilibrium set
EQUILIBRIUM_TOL = 1e-8
# block-equality tolerance for the translation-family membership test
TRANSLATION_TOL = 1e-8
# samples below this are excluded from the decay-rate fit window
DECAY_FLOOR = 1e-14
# most agent positions (samples x agents) one run may record: a capped run
# holds one 32 MB table, t and 2n coordinates a sample, which simulate, its
# result and trajectory.csv's writer share; 50x the largest benchmarked run
MAX_RECORDED_POINTS = 2_000_000
# most RK4 steps one run may take: 333x the 3e5 steps of the longest
# shipped scenario (example3.json, t_final 300 at h 1e-3)
MAX_STEPS = 100_000_000
# most steps x (triples + edges) one run may take, whatever the backend:
# 256x the 3.9e6 of the largest shipped or benchmarked run (example3.json,
# 3e5 steps x (6 + 7); laman-flow's n = 200 takes 2000 x (396 + 397))
MAX_WORK = 1_000_000_000


@dataclass(frozen=True)
class Maneuver:
    """Leader pair plus the commanded displacement p_l1 - p_l2."""

    leaders: LeaderPair
    displacement: tuple  # (dx, dy)

    def __post_init__(self):
        dx, dy = self.displacement
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValueError("displacement must be finite")
        if dx == 0.0 and dy == 0.0:
            raise ValueError("displacement must be nonzero")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings."""

    h: float = 1e-3
    t_final: float = 50.0
    record_stride: float = 0.1
    cost_tol: float = COST_TOL
    grad_tol: float = GRAD_TOL
    method: str = "rk4"

    def __post_init__(self):
        if self.method != "rk4":
            raise ValueError(f"unsupported method {self.method!r}")
        for name in ("h", "t_final", "record_stride", "cost_tol", "grad_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.h > 0 and self.t_final > 0):
            raise ValueError("h and t_final must be positive")
        steps = self.t_final / self.h  # a float, so inf is refused too
        if steps > MAX_STEPS:
            raise ValueError(
                f"t_final {self.t_final} at h {self.h} needs {steps:.3g} RK4 "
                f"steps, over the limit of {MAX_STEPS}"
            )
        if self.record_stride < self.h:
            raise ValueError("record_stride must be at least h")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.h))

    @property
    def record_every(self) -> int:
        # past t_final a stride records the same; 1e300 / h fits no int64
        stride = min(self.record_stride, self.t_final)
        return max(1, int(round(stride / self.h)))


@dataclass(frozen=True)
class PerturbationSpec:
    """Uniform per-coordinate perturbation around a base configuration."""

    amplitude: float
    seed: int

    def __post_init__(self):
        # the draws span 2 * amplitude, which must be finite as well
        if not (math.isfinite(2 * self.amplitude) and self.amplitude >= 0):
            raise ValueError(
                f"amplitude must be finite and nonnegative (2 * amplitude "
                f"too), got {self.amplitude}"
            )
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def sample(self, base: Configuration) -> Configuration:
        """base plus iid uniform(-amplitude, amplitude) per coordinate.

        Draws come from numpy's default generator seeded with `seed`, in
        stacked coordinate order, so a given (base, amplitude, seed) is
        fully reproducible.
        """
        rng = np.random.default_rng(self.seed)
        offs = rng.uniform(-self.amplitude, self.amplitude, size=2 * base.n)
        return Configuration.from_vec(base.vec + offs)


class FormationSpec:
    """A formation target: graph, target configuration, angle set, and
    optional maneuver and Laman witness.

    The angle set defaults to the triangle set of the graph. A supplied
    witness is verified: its built edges must all exist in the graph and
    its framework at the target must be strongly nondegenerate. Its
    refusals name the scenario's `construction` block.
    """

    def __init__(
        self,
        graph: Graph,
        target: Configuration,
        angle_set: Optional[AngleIndexSet] = None,
        maneuver: Optional[Maneuver] = None,
        witness: Optional[LamanConstruction] = None,
    ):
        if target.n != graph.n:
            raise ValidationError(
                f"target has {target.n} points, graph has {graph.n} vertices"
            )
        if angle_set is None:
            angle_set = triangle_formation_set(graph)
        angle_set.validate_for(graph)
        if maneuver is not None and not maneuver.leaders.spans_edge(graph):
            a, b = maneuver.leaders.first, maneuver.leaders.second
            raise ValidationError(f"leader pair ({a}, {b}) is not an edge")
        if witness is not None:
            wg = witness.graph
            if wg.n != graph.n:
                raise ValidationError(
                    "construction: witness vertex count differs from graph"
                )
            we = wg.edge_array
            absent = ~_in_sorted(graph.arcs.keys, we[:, 0] * graph.n + we[:, 1])
            if absent.any():
                missing = list(map(tuple, (we[absent] + 1).tolist()))
                raise ValidationError(
                    f"construction: witness edges {missing} absent from graph"
                )
            nd = is_strongly_nondegenerate(wg, target)
            if not nd.ok:
                raise ValidationError(
                    f"construction: witness triangle {nd.witness} is collinear at "
                    "the target"
                )
        self.graph = graph
        self.target = target
        self.angle_set = angle_set
        self.maneuver = maneuver
        # 0-based arrays for the kernels; _tri is the angle set's own store
        self._tri = angle_set.triple_array
        self.target_cosines = angle_cosines(target, self._tri)
        if maneuver is not None:
            self._lead = (
                maneuver.leaders.first - 1,
                maneuver.leaders.second - 1,
            )
            self._dstar = np.asarray(maneuver.displacement, dtype=float)
        else:
            self._lead = (-1, -1)
            self._dstar = np.zeros(2)

    @property
    def n(self) -> int:
        return self.graph.n

    def maneuver_target(self) -> Configuration:
        """Full target configuration implied by the maneuver.

        The proper-rotation similarity mapping the target's leader
        displacement onto the commanded one, applied to the whole target.
        Translation is arbitrary (the equilibrium family is a translation
        family), so none is applied.
        """
        if self.maneuver is None:
            raise NoManeuverTarget("spec has no maneuver block")
        a, b = self.maneuver.leaders.first, self.maneuver.leaders.second
        cur = self.target.point(a) - self.target.point(b)
        zc = complex(*self._dstar) / complex(*cur)
        M = np.array([[zc.real, -zc.imag], [zc.imag, zc.real]])
        return Configuration(self.target.pts @ M.T)


class EquivarianceReport(NamedTuple):
    passed: bool
    max_deviation: float


class EquilibriumMembership(NamedTuple):
    in_constraint_set: bool  # residuals vanish
    in_shape_class: bool  # similar to the target
    in_translation_family: Optional[bool]  # matches the maneuver target


def residual(spec: FormationSpec, p: Configuration) -> np.ndarray:
    """f(p) - f(p*) over the spec's angle set, shape (w,)."""
    return angle_cosines(p, spec._tri) - spec.target_cosines


def _law(spec: FormationSpec, p: Configuration, lead: tuple) -> tuple:
    """(u stacked (2n,), cost) from _kernels._control_np; lead (-1, -1)
    drops the leader term."""
    u, cost, ok, _ = _kernels._control_np(
        p.pts, spec._tri, spec.target_cosines, *lead, *spec._dstar, EDGE_EPS
    )
    if not ok:
        residual(spec, p)  # the kernel's condition: raises, naming the pair
    return u.reshape(-1), cost


def cost_VF(spec: FormationSpec, p: Configuration) -> float:
    """0.5 |f(p) - f(p*)|^2 (cosines unclipped, as the kernels use them)."""
    return _law(spec, p, (-1, -1))[1]


def control_uF(spec: FormationSpec, p: Configuration) -> np.ndarray:
    """Formation control u = -grad V_F = -R^T r, stacked (2n,), with r
    the residual. Raises CoincidentPoints as angle_rigidity_function
    does."""
    return _law(spec, p, (-1, -1))[0]


def control_uM(spec: FormationSpec, p: Configuration) -> np.ndarray:
    """Maneuver control: control_uF plus the leader term, which steers
    the leader displacement toward the commanded one; only the two
    leader blocks differ."""
    if spec.maneuver is None:
        raise NoManeuverTarget("spec has no maneuver block")
    return _law(spec, p, spec._lead)[0]


@dataclass(frozen=True, eq=False)  # a generated __eq__ over arrays would raise
class SimulationResult:
    """Recorded gradient-flow run.

    table (s, 1 + 2n) holds trajectory.csv's rows t, p1x, p1y, ..., pny;
    times (s,) and positions (s, n, 2) are its views. Series align with
    its rows: vf, v, scale (s,), centroid (s, 2), vm (s,) or None. v is
    vf + vm, or vf without a maneuver. Verdicts describe the final sample.
    """

    table: np.ndarray
    vf: np.ndarray
    vm: Optional[np.ndarray]
    v: np.ndarray
    centroid: np.ndarray
    scale: np.ndarray
    in_constraint_set: bool
    in_shape_class: bool
    in_translation_family: Optional[bool]
    maneuver_error: Optional[float]
    decay_rate: float
    converged: bool
    t_end: float
    backend: str

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def positions(self) -> np.ndarray:
        return self.table[:, 1:].reshape(len(self.table), -1, 2)


def decay_rate_fit(times, values) -> float:
    """Exponential decay rate of a positive series.

    Minus the centered least-squares slope of log(values) over the samples
    above DECAY_FLOOR; the fitted rate gamma satisfies values ~ exp(-gamma t).
    Raises NonPositiveSeries unless the first sample is positive. Returns
    +inf when fewer than two samples sit above the floor (the series
    collapsed within one record stride).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0 or v[0] <= 0.0:
        raise NonPositiveSeries("series must start positive")
    mask = v > DECAY_FLOOR
    if int(mask.sum()) < 2:
        return float("inf")
    t, y = np.asarray(times, dtype=float)[mask], np.log(v[mask])
    t, y = t - t.mean(), y - y.mean()
    return -float(np.sum(t * y) / np.sum(t * t))


def simulate(
    spec: FormationSpec,
    p0: Configuration,
    config: Optional[IntegratorConfig] = None,
) -> SimulationResult:
    """Integrate the gradient flow from p0 under the spec's control law.

    Uses the maneuver law when the spec has a maneuver block, else the
    pure formation law. Raises BlowUp (with a time stamp) if a coordinate
    leaves the trusted range or adjacent agents collide mid-run, and
    ValidationError before the run if it could record more than
    MAX_RECORDED_POINTS agent positions or its steps times its triples
    and edges exceed MAX_WORK. V_F comes from the integrator's own
    control evaluations; V_M, V and the monitors from the trajectory.
    """
    if config is None:
        config = IntegratorConfig()
    if p0.n != spec.n:
        raise ValidationError(f"p0 has {p0.n} points, spec needs {spec.n}")
    # the kernels preallocate every sample the run could record
    samples = _kernels.record_rows(config.n_steps, config.record_every)
    if samples * spec.n > MAX_RECORDED_POINTS:
        raise ValidationError(
            f"t_final {config.t_final} at record_stride {config.record_stride} "
            f"records up to {samples} samples of {spec.n} agents, over the "
            f"limit of {MAX_RECORDED_POINTS} recorded points"
        )
    w, m = len(spec._tri), spec.graph.m
    work = config.n_steps * (w + m)
    if work > MAX_WORK:
        raise ValidationError(
            f"t_final {config.t_final} at h {config.h} takes {config.n_steps} "
            f"RK4 steps over {w} angle triples and {m} edges, {work} step "
            f"terms, over the limit of {MAX_WORK}"
        )

    lead_a, lead_b = spec._lead
    run = _kernels.integrate(
        p0.pts.astype(float),
        spec._tri,
        spec.target_cosines,
        spec.graph.edge_array,
        float(config.h),
        config.n_steps,
        config.record_every,
        lead_a,
        lead_b,
        float(spec._dstar[0]),
        float(spec._dstar[1]),
        BLOWUP_LIMIT,
        EDGE_EPS,
        float(config.cost_tol),
        float(config.grad_tol),
    )
    if run.status == _kernels.STATUS_NONFINITE:
        raise BlowUp(run.t_stop, f"coordinate magnitude exceeded {BLOWUP_LIMIT:g}")
    if run.status == _kernels.STATUS_COINCIDENT:
        raise BlowUp(run.t_stop, "adjacent agents coincided")

    # views of the kernel's table, not copies: a capped run's is 32 MB
    table, vf = run.table[: run.n_rec], run.vf[: run.n_rec]
    traj = table[:, 1:].reshape(run.n_rec, spec.n, 2)
    if spec.maneuver is not None:
        err = spec._dstar - (traj[:, lead_a] - traj[:, lead_b])
        vm = 0.5 * np.sum(err * err, axis=1)
        v = vf + vm
        maneuver_error = float(length(err[-1]))
    else:
        vm = maneuver_error = None
        v = vf
    centroid, scale = monitors(traj)
    membership = equilibrium_membership(spec, Configuration(traj[-1]))

    if v[0] <= DECAY_FLOOR:
        rate = 0.0  # started at (numerical) equilibrium, nothing decays
    else:
        rate = decay_rate_fit(table[:, 0], v)

    return SimulationResult(
        table=table,
        vf=vf,
        vm=vm,
        v=v,
        centroid=centroid,
        scale=scale,
        in_constraint_set=membership.in_constraint_set,
        in_shape_class=membership.in_shape_class,
        in_translation_family=membership.in_translation_family,
        maneuver_error=maneuver_error,
        decay_rate=rate,
        converged=(run.status == _kernels.STATUS_CONVERGED),
        t_end=float(table[-1, 0]),
        backend=_kernels.backend_name(),
    )


def equivariance_check(
    spec: FormationSpec,
    p: Configuration,
    transform: SimilarityTransform,
    tol: float = 1e-9,
) -> EquivarianceReport:
    """Verify u(c R p + xi) = (1/c) R u(p) for a similarity transform."""
    c, R, xi = transform.scale, transform.rotation, transform.translation
    q = Configuration(c * (p.pts @ np.asarray(R).T) + np.asarray(xi))
    u_q = control_uF(spec, q).reshape(-1, 2)
    u_p = control_uF(spec, p).reshape(-1, 2)
    predicted = (u_p @ np.asarray(R).T) / c
    dev = float(np.max(np.abs(u_q - predicted)))
    return EquivarianceReport(dev <= tol, dev)


def degenerate_freeze_check(
    spec: FormationSpec, p: Configuration, tol: float = 1e-12
) -> bool:
    """True when the formation control vanishes at p (to tol).

    On exactly collinear configurations every projector annihilates every
    bearing, so the flow is frozen regardless of the residuals.
    """
    u = control_uF(spec, p)
    return float(np.max(np.abs(u))) <= tol


def equilibrium_membership(
    spec: FormationSpec, p: Configuration
) -> EquilibriumMembership:
    """Classify p against the three nested equilibrium notions.

    in_constraint_set: residual infinity-norm under EQUILIBRIUM_TOL.
    in_shape_class: similar (rotation or reflection) to the target.
    in_translation_family: offset from the maneuver target is a pure
    translation (None without a maneuver).
    """
    r = residual(spec, p)
    in_ef = bool(np.max(np.abs(r)) < EQUILIBRIUM_TOL) if r.size else True
    in_shape = shape_class_membership(spec.target, p).member
    in_tf = None
    if spec.maneuver is not None:
        ptil = spec.maneuver_target()
        diff = p.pts - ptil.pts
        dev = float(np.max(np.abs(diff - diff.mean(axis=0))))
        in_tf = bool(dev < TRANSLATION_TOL)
    return EquilibriumMembership(in_ef, in_shape, in_tf)
