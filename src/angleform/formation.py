"""Angle-constrained formation control: cost, control laws, gradient-flow
simulation, and equilibrium diagnostics.

The formation objective tracks target angle cosines over an index set:
V_F(p) = 0.5 |f(p) - f(p*)|^2. The stabilizing law is the negative
gradient u = -R^T (f(p) - f(p*)); f, the gradient terms of R and the
recorded series all come from geometry.angle_terms. A maneuver adds a
leader term steering the displacement between two leader agents, which
selects scale and orientation of the final shape.

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
from .geometry import angle_terms
from .graph import Graph, LamanConstruction, LeaderPair, build_laman
from .index_sets import triangle_formation_set
from .rigidity import (
    EDGE_EPS,
    AngleIndexSet,
    Configuration,
    SimilarityTransform,
    angle_rigidity_function,
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
# most agent positions (samples x agents) one run may record: 32 MB of
# trajectory, some 50x the largest shipped or benchmarked run
MAX_RECORDED_POINTS = 2_000_000
# most RK4 steps one run may take: 333x the 3e5 steps of the longest
# shipped scenario (example3.json, t_final 300 at h 1e-3)
MAX_STEPS = 100_000_000


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
        return max(1, int(round(self.record_stride / self.h)))


@dataclass(frozen=True)
class PerturbationSpec:
    """Uniform per-coordinate perturbation around a base configuration."""

    amplitude: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(
                f"amplitude must be finite and nonnegative, got {self.amplitude}"
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
    its framework at the target must be strongly nondegenerate.
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
            wg = build_laman(witness)
            if wg.n != graph.n:
                raise ValidationError("witness vertex count differs from graph")
            missing = set(wg.edges) - set(graph.edges)
            if missing:
                raise ValidationError(
                    f"witness edges {sorted(missing)} absent from graph"
                )
            nd = is_strongly_nondegenerate(wg, target)
            if not nd.ok:
                raise ValidationError(
                    f"witness triangle {nd.witness} is collinear at the target"
                )
        self.graph = graph
        self.target = target
        self.angle_set = angle_set
        self.maneuver = maneuver
        self.witness = witness
        self.target_cosines = angle_rigidity_function(graph, target, angle_set)
        # 0-based arrays for the kernels
        self._tri = angle_set.as_array()
        self._edges = np.asarray(graph.edges, dtype=np.int64) - 1
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


class ControlTerms(NamedTuple):
    velocity: np.ndarray  # stacked (2n,)
    apex_terms: np.ndarray  # (n, 2) gradient contributions, apex role
    wing_terms: np.ndarray  # (n, 2) gradient contributions, wing role


class EquivarianceReport(NamedTuple):
    passed: bool
    max_deviation: float


class EquilibriumMembership(NamedTuple):
    in_constraint_set: bool  # residuals vanish
    in_shape_class: bool  # similar to the target
    in_translation_family: Optional[bool]  # matches the maneuver target


def residual(spec: FormationSpec, p: Configuration) -> np.ndarray:
    """f(p) - f(p*) over the spec's angle set, shape (w,)."""
    vals = angle_rigidity_function(spec.graph, p, spec.angle_set)
    return vals - spec.target_cosines


def cost_VF(spec: FormationSpec, p: Configuration) -> float:
    """0.5 |residual|^2."""
    r = residual(spec, p)
    return 0.5 * float(r @ r)


def control_uF(spec: FormationSpec, p: Configuration) -> ControlTerms:
    """Formation control u = -grad V_F = -R^T r, with r the residual,
    split by role.

    Each triple (i, j, k) adds r (q_j + q_k) to the apex term of i and
    -r q_j, -r q_k to the wing terms of j and k (geometry.angle_terms);
    the velocity is -(apex + wing), stacked. Raises CoincidentPoints as
    angle_rigidity_function does.
    """
    tri = spec._tri
    r = residual(spec, p)[:, None]
    _, qj, qk, _, _ = angle_terms(p.pts, tri)
    apex = np.zeros((p.n, 2))
    wing = np.zeros((p.n, 2))
    np.add.at(apex, tri[:, 0], r * (qj + qk))
    np.add.at(wing, tri[:, 1], -r * qj)
    np.add.at(wing, tri[:, 2], -r * qk)
    return ControlTerms(-(apex + wing).reshape(-1), apex, wing)


def control_uM(spec: FormationSpec, p: Configuration) -> np.ndarray:
    """Maneuver control: formation term plus leader displacement term.

    Equals control_uF minus the leader coupling applied to the offset
    from the maneuver target; only the two leader blocks differ.
    """
    if spec.maneuver is None:
        raise NoManeuverTarget("spec has no maneuver block")
    u = control_uF(spec, p).velocity.copy()
    a, b = spec.maneuver.leaders.first, spec.maneuver.leaders.second
    err = spec._dstar - (p.point(a) - p.point(b))
    u[2 * a - 2 : 2 * a] += err
    u[2 * b - 2 : 2 * b] -= err
    return u


def monitors(p: Configuration) -> tuple:
    """(centroid (2,), scale): scale is the stacked norm about the
    centroid."""
    centroid = p.pts.mean(axis=0)
    scale = float(np.linalg.norm(p.pts - centroid))
    return centroid, scale


@dataclass(frozen=True, eq=False)  # a generated __eq__ over arrays would raise
class SimulationResult:
    """Recorded gradient-flow run.

    Arrays are aligned with `times`: positions (s, n, 2), vf, v, scale
    of shape (s,), centroid (s, 2), vm (s,) or None. v is vf + vm, or vf
    without a maneuver. Verdicts describe the final sample.
    """

    times: np.ndarray
    positions: np.ndarray
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


def decay_rate_fit(times, values) -> float:
    """Exponential decay rate of a positive series.

    Least-squares slope of log(values) over the samples above
    DECAY_FLOOR; the fitted rate gamma satisfies values ~ exp(-gamma t).
    Raises NonPositiveSeries unless the first sample is positive. Returns
    +inf when fewer than two samples sit above the floor (the series
    collapsed within one record stride).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.size == 0 or v[0] <= 0.0:
        raise NonPositiveSeries("series must start positive")
    mask = v > DECAY_FLOOR
    if int(mask.sum()) < 2:
        return float("inf")
    slope = np.polyfit(t[mask], np.log(v[mask]), 1)[0]
    return -float(slope)


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
    MAX_RECORDED_POINTS agent positions.
    """
    if config is None:
        config = IntegratorConfig()
    if p0.n != spec.n:
        raise ValidationError(f"p0 has {p0.n} points, spec needs {spec.n}")
    # the kernels preallocate every sample the run could record
    samples = config.n_steps // config.record_every + 2
    if samples * spec.n > MAX_RECORDED_POINTS:
        raise ValidationError(
            f"t_final {config.t_final} at record_stride {config.record_stride} "
            f"records up to {samples} samples of {spec.n} agents, over the "
            f"limit of {MAX_RECORDED_POINTS} recorded points"
        )

    lead_a, lead_b = spec._lead
    times, traj, n_rec, status, t_stop = _kernels.integrate(
        p0.pts.astype(float),
        spec._tri,
        spec.target_cosines,
        spec._edges,
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
    if status == _kernels.STATUS_NONFINITE:
        raise BlowUp(t_stop, f"coordinate magnitude exceeded {BLOWUP_LIMIT:g}")
    if status == _kernels.STATUS_COINCIDENT:
        raise BlowUp(t_stop, "adjacent agents coincided")

    times = times[:n_rec].copy()
    traj = traj[:n_rec].copy()

    # series are recomputed from all snapshots at once
    delta = angle_terms(traj, spec._tri)[0] - spec.target_cosines
    vf = 0.5 * np.sum(delta * delta, axis=1)
    if spec.maneuver is not None:
        err = spec._dstar - (traj[:, lead_a] - traj[:, lead_b])
        vm = 0.5 * np.sum(err * err, axis=1)
        v = vf + vm
        maneuver_error = float(np.linalg.norm(err[-1]))
    else:
        vm = maneuver_error = None
        v = vf
    centroid = traj.mean(axis=1)
    scale = np.sqrt(np.sum((traj - centroid[:, None, :]) ** 2, axis=(1, 2)))
    membership = equilibrium_membership(spec, Configuration(traj[-1]))

    if v[0] <= DECAY_FLOOR:
        rate = 0.0  # started at (numerical) equilibrium, nothing decays
    else:
        rate = decay_rate_fit(times, v)

    return SimulationResult(
        times=times,
        positions=traj,
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
        converged=(status == _kernels.STATUS_CONVERGED),
        t_end=float(times[-1]),
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
    u_q = control_uF(spec, q).velocity.reshape(-1, 2)
    u_p = control_uF(spec, p).velocity.reshape(-1, 2)
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
    u = control_uF(spec, p).velocity
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
