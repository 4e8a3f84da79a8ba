"""Embedded property suites backing the `selftest` CLI command.

Each check is a check_<name> function returning (passed, detail); the
suite runs them in definition order. Checks use fixed seeds so the suite
is reproducible. They mirror the library's
documented invariants: operator identities, finite-difference gradient
agreement, rank characterizations, control-law symmetries, conservation
along the flow, and file-format round trips. The random-framework
generators and the finite-difference Jacobian here are also the test
suite's.
"""

import io
from typing import Callable, List, Tuple

import numpy as np

from . import _kernels
from .errors import NonPositiveSeries
from .formation import (
    BLOWUP_LIMIT,
    FormationSpec,
    IntegratorConfig,
    PerturbationSpec,
    control_uF,
    cost_VF,
    decay_rate_fit,
    degenerate_freeze_check,
    equivariance_check,
    monitors,
    residual,
    simulate,
)
from .geometry import householder, length, perp, projection, reflection, rotation
from .graph import (
    Graph,
    LamanConstruction,
    LeaderPair,
    build_laman,
    expanded_incidence,
    incidence_matrix,
    leader_laplacian,
    neighbors,
    recognize_triangulated_laman,
)
from .index_sets import (
    algorithm1_set,
    full_angle_set,
    laman_global_set,
    laman_minimal_set,
    triangle_formation_set,
)
from .rigidity import (
    EDGE_EPS,
    Configuration,
    SimilarityTransform,
    angle_congruence_check,
    angle_rigidity_function,
    angle_rigidity_matrix,
    bearing_rigidity_function,
    bearing_rigidity_matrix,
    is_infinitesimally_angle_rigid,
    is_infinitesimally_bearing_rigid,
    is_infinitesimally_distance_rigid,
    numerical_rank,
    shape_class_membership,
    trivial_motion_basis,
)

FD_STEP = 1e-6
FD_RTOL = 1e-5

_FAN = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)])
_PENT = Configuration.regular_polygon(5)


def random_construction(rng, n) -> LamanConstruction:
    """Random vertex-insertion build with labels in increasing order."""
    steps = []
    edges = [(1, 2)]
    for v in range(3, n + 1):
        i, j = edges[int(rng.integers(len(edges)))]
        steps.append((v, i, j))
        edges.append((min(v, i), max(v, i)))
        edges.append((min(v, j), max(v, j)))
    return LamanConstruction(tuple(steps))


def generic_points(rng, n) -> Configuration:
    """n points drawn uniformly from the square [-2, 2]^2."""
    return Configuration(rng.uniform(-2.0, 2.0, size=(n, 2)))


def random_connected_graph(rng, n, extra) -> Graph:
    """Random spanning tree plus `extra` additional edges."""
    edges = set()
    order = list(rng.permutation(np.arange(1, n + 1)))
    for a, b in zip(order, order[1:]):
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    candidates = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if (i, j) not in edges
    ]
    take = min(extra, len(candidates))
    for idx in rng.choice(len(candidates), size=take, replace=False):
        edges.add(candidates[int(idx)])
    return Graph(n, tuple(sorted(edges)))


def fd_jacobian(fn, x0, h=FD_STEP):
    """Central-difference Jacobian of fn at the vector x0; a scalar fn
    gives one row."""
    J = np.zeros((np.size(fn(x0)), x0.size))
    for c in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[c] += h
        xm[c] -= h
        J[:, c] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2 * h)
    return J


# ---------------------------------------------------------------------
# geometry operator identities
# ---------------------------------------------------------------------


def check_rotation_orthonormal():
    rng = np.random.default_rng(10)
    worst = 0.0
    for theta in rng.uniform(-np.pi, np.pi, 25):
        R = rotation(theta)
        worst = max(worst, float(np.max(np.abs(R.T @ R - np.eye(2)))))
        worst = max(worst, abs(float(np.linalg.det(R)) - 1.0))
    return worst < 1e-12, f"max deviation {worst:.2e}"


def check_reflection_involution():
    rng = np.random.default_rng(11)
    worst = 0.0
    for theta in rng.uniform(-np.pi, np.pi, 25):
        E = reflection(theta)
        worst = max(worst, float(np.max(np.abs(E @ E - np.eye(2)))))
        worst = max(worst, abs(float(np.linalg.det(E)) + 1.0))
    return worst < 1e-12, f"max deviation {worst:.2e}"


def _unit_vectors(seed):
    """25 random directions (25, 2), each divided by its length."""
    v = np.random.default_rng(seed).normal(size=(25, 2))
    return v / length(v)[:, None]


def check_householder_involution():
    worst = 0.0
    for v in _unit_vectors(12):
        H = householder(v)
        worst = max(worst, float(np.max(np.abs(H @ H - np.eye(2)))))
    return worst < 1e-12, f"max |H H - I| {worst:.2e}"


def check_householder_is_reflection():
    worst = 0.0
    for v in _unit_vectors(13):
        theta = 2.0 * np.arctan2(v[1], v[0]) + np.pi
        worst = max(
            worst, float(np.max(np.abs(householder(v) - reflection(theta))))
        )
    return worst < 1e-12, f"max |H - reflection| {worst:.2e}"


def check_householder_fixes_perp():
    worst = 0.0
    for v in _unit_vectors(14):
        H = householder(v)
        worst = max(worst, float(np.max(np.abs(H @ perp(v) - perp(v)))))
        worst = max(worst, float(np.max(np.abs(H @ v + v))))
    return worst < 1e-12, f"eigenvector deviation {worst:.2e}"


def check_projection_annihilates():
    worst = 0.0
    for v in _unit_vectors(15):
        P = projection(v)
        worst = max(worst, float(np.max(np.abs(P @ v))))
        worst = max(worst, float(np.max(np.abs(P @ P - P))))
        # symmetric, and the identity on perp(v): orthogonal and rank one
        worst = max(worst, float(np.max(np.abs(P - P.T))))
        worst = max(worst, float(np.max(np.abs(P @ perp(v) - perp(v)))))
    return worst < 1e-12, f"projector deviation {worst:.2e}"


def check_perp_rotation():
    rng = np.random.default_rng(16)
    R90 = rotation(np.pi / 2)
    worst = 0.0
    for _ in range(25):
        v = rng.normal(size=2)
        worst = max(worst, float(np.max(np.abs(perp(v) - R90 @ v))))
        worst = max(worst, abs(float(perp(v) @ v)))
    return worst < 1e-12, f"perp deviation {worst:.2e}"


# ---------------------------------------------------------------------
# graph operators
# ---------------------------------------------------------------------


def check_incidence_row_sums():
    rng = np.random.default_rng(20)
    for _ in range(10):
        g = random_connected_graph(rng, 6, int(rng.integers(0, 6)))
        H = incidence_matrix(g)
        if float(np.max(np.abs(H.sum(axis=1)))) != 0.0:
            return False, "a row sum is nonzero"
        if float(np.max(np.abs(np.kron(H, np.eye(2)) - expanded_incidence(g)))) != 0.0:
            return False, "expanded incidence is not H kron I2"
    return True, "10 random graphs"


def check_incidence_rank_components():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        # random graph, possibly disconnected
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        m = int(rng.integers(0, len(pairs) + 1))
        chosen = [pairs[int(t)] for t in rng.choice(len(pairs), m, replace=False)]
        g = Graph(n, tuple(sorted(chosen)))
        # union-find component count
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in g.edges:
            parent[find(i)] = find(j)
        comps = len({find(v) for v in range(1, n + 1)})
        H = incidence_matrix(g) if g.m else np.zeros((0, n))
        rank = numerical_rank(H).rank if g.m else 0
        if rank != n - comps:
            return False, f"rank {rank} != n - c = {n - comps}"
    return True, "20 random graphs vs union-find"


def check_laman_roundtrip():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        c = random_construction(rng, n)
        g = build_laman(c)
        c2 = recognize_triangulated_laman(g)
        if c2 is None or build_laman(c2).edges != g.edges:
            return False, f"roundtrip failed for {c.steps}"
    # 2n - 3 edges, not triangulated Laman: vertex 5's neighbours are not
    # adjacent; the kite on the base edge (3, 4) peels down to (3, 4)
    for g in (
        Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]),
        Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    ):
        if recognize_triangulated_laman(g) is not None:
            return False, f"recognized non-Laman edges {g.edges}"
    return True, "20 random constructions, 2 refusals"


def check_leader_laplacian_blocks():
    g = Graph.from_edges(2, [(1, 2)])
    L = leader_laplacian(g, LeaderPair(1, 2))
    want = np.block([[np.eye(2), -np.eye(2)], [-np.eye(2), np.eye(2)]])
    ok = bool(np.array_equal(L, want))
    return ok, "2-agent block pattern"


# ---------------------------------------------------------------------
# rigidity: gradients, ranks, verdicts
# ---------------------------------------------------------------------


def check_bearing_matrix_gradient():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(5):
        g = random_connected_graph(rng, 5, 3)
        p = generic_points(rng, 5)
        R = bearing_rigidity_matrix(g, p)
        J = fd_jacobian(
            lambda v: bearing_rigidity_function(g, Configuration.from_vec(v)),
            p.vec.copy(),
        )
        rel = float(np.max(np.abs(R - J))) / max(1.0, float(np.max(np.abs(J))))
        worst = max(worst, rel)
    return worst < FD_RTOL, f"max relative error {worst:.2e}"


def check_angle_matrix_gradient():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(5):
        g = random_connected_graph(rng, 5, 4)
        p = generic_points(rng, 5)
        T = full_angle_set(g)
        if not len(T):
            continue
        R = angle_rigidity_matrix(g, p, T)
        J = fd_jacobian(
            lambda v: angle_rigidity_function(g, Configuration.from_vec(v), T),
            p.vec.copy(),
        )
        rel = float(np.max(np.abs(R - J))) / max(1.0, float(np.max(np.abs(J))))
        worst = max(worst, rel)
    return worst < FD_RTOL, f"max relative error {worst:.2e}"


def check_control_is_negative_gradient():
    rng = np.random.default_rng(32)
    spec = FormationSpec(_FAN, _PENT)
    worst = 0.0
    for _ in range(5):
        p = Configuration(_PENT.pts + rng.uniform(-0.3, 0.3, size=(5, 2)))
        u = control_uF(spec, p)
        grad = fd_jacobian(
            lambda v: cost_VF(spec, Configuration.from_vec(v)), p.vec.copy()
        )[0]
        rel = float(np.max(np.abs(u + grad))) / max(1e-9, float(np.max(np.abs(grad))))
        worst = max(worst, rel)
    return worst < FD_RTOL, f"max relative error {worst:.2e}"


def check_trivial_motions_in_nullspace():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 9))
        c = random_construction(rng, n)
        g = build_laman(c)
        p = generic_points(rng, n)
        R = angle_rigidity_matrix(g, p, laman_minimal_set(c))
        for v in trivial_motion_basis(p):
            worst = max(
                worst, float(np.linalg.norm(R @ v) / np.linalg.norm(v))
            )
    return worst < 1e-10, f"max residual {worst:.2e}"


def check_angle_bearing_equivalence():
    rng = np.random.default_rng(34)
    agree = 0
    total = 40
    for _ in range(total):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(rng, n, int(rng.integers(0, n)))
        p = generic_points(rng, n)
        a = is_infinitesimally_angle_rigid(g, p, full_angle_set(g)).verdict
        b = is_infinitesimally_bearing_rigid(g, p).verdict
        agree += int(a == b)
    return agree == total, f"{agree}/{total} frameworks agree"


def check_rank_scale_invariance():
    """Rescaling by 1e-3 or 1e3, which rounds every coordinate, keeps
    every verdict and rank. Rescaling by 2^k, for k across the admitted
    range (edges at least EDGE_EPS, coordinates within BLOWUP_LIMIT),
    keeps them too, and scales the singular values by exactly 2^k
    (distance) or 2^-k (bearing, angle): no product rounds differently."""
    rng = np.random.default_rng(35)
    for _ in range(10):
        n = int(rng.integers(4, 8))
        c = random_construction(rng, n)
        g = build_laman(c)
        p = generic_points(rng, n)
        T = laman_minimal_set(c)
        i, j = g.edge_array.T
        lo = int(np.ceil(np.log2(EDGE_EPS / np.min(length(p.pts[i] - p.pts[j])))))
        hi = int(np.floor(np.log2(BLOWUP_LIMIT / np.max(np.abs(p.pts)))))
        for verdict, power in (
            (lambda q: is_infinitesimally_distance_rigid(g, q), 1),
            (lambda q: is_infinitesimally_bearing_rigid(g, q), -1),
            (lambda q: is_infinitesimally_angle_rigid(g, q, T), -1),
        ):
            unit = verdict(p)
            for s in (1e-3, 1e3):
                r = verdict(Configuration(p.pts * s))
                if (r.verdict, r.rank) != (unit.verdict, unit.rank):
                    return False, f"verdict or rank moved under scale {s}"
            for k in sorted({lo, lo // 2, -1, 1, hi // 2, hi}):
                r = verdict(Configuration(p.pts * 2.0**k))
                if (r.verdict, r.rank) != (unit.verdict, unit.rank):
                    return False, f"verdict or rank moved under scale 2^{k}"
                sv = unit.singular_values * 2.0 ** (power * k)
                if not np.array_equal(r.singular_values, sv):
                    return False, f"singular values not scaled exactly by 2^{k}"
    return True, (
        "10 frameworks stable under 1e-3 and 1e3, exact under 2^k "
        "across each one's range"
    )


def check_shape_class_recovery():
    rng = np.random.default_rng(36)
    worst = 0.0
    for _ in range(10):
        p = generic_points(rng, 6)
        c = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        R = rotation(float(rng.uniform(-np.pi, np.pi)))
        if rng.random() < 0.5:
            R = reflection(float(rng.uniform(-np.pi, np.pi)))
        xi = rng.uniform(-3, 3, size=2)
        q = Configuration(c * (p.pts @ R.T) + xi)
        rep = shape_class_membership(p, q)
        fit = rep.transform
        refit = fit.scale * (p.pts @ fit.rotation.T) + fit.translation
        if not rep.member or not np.allclose(refit, q.pts):
            return False, "constructed similarity not recognized"
        worst = max(worst, rep.residual)
    return worst < 1e-12, f"max residual {worst:.2e}"


def check_congruence_implies_membership():
    rng = np.random.default_rng(37)
    for _ in range(8):
        p = generic_points(rng, 5)
        c = float(rng.uniform(0.5, 2.0))
        R = rotation(float(rng.uniform(-np.pi, np.pi)))
        q = Configuration(c * (p.pts @ R.T) + rng.uniform(-1, 1, 2))
        if not angle_congruence_check(p, q):
            return False, "similar configurations not angle congruent"
        if not shape_class_membership(p, q).member:
            return False, "congruent pair rejected from shape class"
    return True, "8 similarity pairs"


# ---------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------


def check_full_set_completeness():
    rng = np.random.default_rng(40)
    for _ in range(10):
        g = random_connected_graph(rng, 6, int(rng.integers(0, 8)))
        T = set(full_angle_set(g).triples)
        count = 0
        for i in range(1, 7):
            nb = neighbors(g, i)
            count += len(nb) * (len(nb) - 1) // 2
        if len(T) != count:
            return False, "full set misses an incident pair"
    return True, "10 random graphs"


def check_minimal_set_counts():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        c = random_construction(rng, n)
        if len(laman_minimal_set(c)) != 2 * n - 4:
            return False, f"|T*| != 2n-4 at n={n}"
        want = (3 * n - 7) if n >= 4 else 2 * n - 4
        if len(laman_global_set(c)) != want:
            return False, f"|T-dagger| wrong at n={n}"
    return True, "sizes 2n-4 and 3n-7"


def check_minimal_subset_of_triangle_set():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        c = random_construction(rng, n)
        g = build_laman(c)
        tstar = set(laman_minimal_set(c).triples)
        tf = set(triangle_formation_set(g).triples)
        if not tstar <= tf:
            return False, "T* not within the triangle set"
    return True, "10 random constructions"


def check_algorithm1_output_rigid():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        c = random_construction(rng, n)
        g = build_laman(c)
        p = generic_points(rng, n)
        T = algorithm1_set(g, p)
        if len(T) != 3 * n - 6:
            return False, f"size {len(T)} != 3n-6"
        if not is_infinitesimally_angle_rigid(g, p, T).verdict:
            return False, "algorithm1 output not rigid"
    return True, "10 minimally rigid frameworks"


def check_kite_global_distinguishes():
    kite = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    c = recognize_triangulated_laman(kite)
    p = Configuration([[0, 1], [-1, 0.1], [1.3, 0], [0, -1]])
    # fold vertex 3 across the line through vertices 1 and 4 (the y axis)
    qpts = p.pts.copy()
    qpts[2, 0] = -qpts[2, 0]
    q = Configuration(qpts)
    tstar = laman_minimal_set(c)
    tbar = laman_global_set(c)
    same = float(
        np.max(
            np.abs(
                angle_rigidity_function(kite, p, tstar)
                - angle_rigidity_function(kite, q, tstar)
            )
        )
    )
    diff = float(
        np.max(
            np.abs(
                angle_rigidity_function(kite, p, tbar)
                - angle_rigidity_function(kite, q, tbar)
            )
        )
    )
    # the 3n - 7 definition: at step 5, vertices 1 and 3 have the common
    # neighbours {2, 4}; the extra triple takes the smallest, apex at 1
    t5 = laman_global_set(LamanConstruction(((3, 1, 2), (4, 1, 3), (5, 1, 3))))
    listed = t5.triples == (
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4),
        (1, 3, 5), (2, 1, 3), (3, 1, 4), (3, 1, 5),
    )
    ok = same < 1e-12 and diff > 1e-3 and listed
    detail = f"minimal set gap {same:.1e}, global set gap {diff:.3f}"
    return ok, detail + ("" if listed else f"; 3n - 7 set {t5.triples}")


# ---------------------------------------------------------------------
# formation: control symmetries and flow conservation
# ---------------------------------------------------------------------


def check_control_dual_form():
    rng = np.random.default_rng(50)
    spec = FormationSpec(_FAN, _PENT)
    worst = 0.0
    for _ in range(10):
        p = Configuration(_PENT.pts + rng.uniform(-0.4, 0.4, size=(5, 2)))
        R = angle_rigidity_matrix(_FAN, p, spec.angle_set)
        dev = control_uF(spec, p) + R.T @ residual(spec, p)
        worst = max(worst, float(np.max(np.abs(dev))))
    return worst < 1e-10, f"u matches -R^T r to {worst:.1e}"


def check_equivariance():
    rng = np.random.default_rng(51)
    spec = FormationSpec(_FAN, _PENT)
    worst = 0.0
    for _ in range(10):
        p = Configuration(_PENT.pts + rng.uniform(-0.3, 0.3, size=(5, 2)))
        c = float(rng.uniform(0.5, 2.0))
        R = rotation(float(rng.uniform(-np.pi, np.pi)))
        if rng.random() < 0.5:
            R = reflection(float(rng.uniform(-np.pi, np.pi)))
        xi = rng.uniform(-2, 2, size=2)
        rep = equivariance_check(spec, p, SimilarityTransform(c, R, xi))
        worst = max(worst, rep.max_deviation)
        if not rep.passed:
            return False, f"deviation {rep.max_deviation:.2e}"
    return True, f"max deviation {worst:.2e}"


def check_degenerate_freeze():
    spec = FormationSpec(_FAN, _PENT)
    line = Configuration([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    if not degenerate_freeze_check(spec, line):
        return False, "collinear configuration moved"
    bent = Configuration([[0.0, 0.0], [1.0, 1e-3], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    if degenerate_freeze_check(spec, bent):
        return False, "near-collinear configuration frozen"
    return True, "collinear frozen, near-collinear moving"


def check_energy_descent():
    spec = FormationSpec(_FAN, _PENT)
    p0 = PerturbationSpec(0.4, 3).sample(_PENT)
    res = simulate(spec, p0, IntegratorConfig(t_final=2.0))
    drops = np.diff(res.vf)
    ok = bool(np.all(drops <= 1e-15))
    return ok, f"max increase {float(drops.max()):.2e}"


def check_centroid_scale_conserved():
    spec = FormationSpec(_FAN, _PENT)
    p0 = PerturbationSpec(0.4, 4).sample(_PENT)
    res = simulate(spec, p0, IntegratorConfig(t_final=5.0))
    c0, s0 = res.centroid[0], res.scale[0]
    cdrift = float(np.max(np.linalg.norm(res.centroid - c0, axis=1))) / s0
    sdrift = float(np.max(np.abs(res.scale - s0))) / s0
    ok = cdrift < 1e-10 and sdrift < 1e-10
    return ok, f"centroid {cdrift:.2e}, scale {sdrift:.2e}"


def check_decay_fit():
    t = np.linspace(0, 10, 101)
    v = 3.0 * np.exp(-0.7 * t)
    gamma = decay_rate_fit(t, v)
    ok = abs(gamma - 0.7) < 1e-9
    try:
        decay_rate_fit(t, np.zeros_like(t))
        return False, "a zero series was fitted"
    except NonPositiveSeries:
        pass
    # a series under the floor after its first sample decays at +inf
    ok = ok and decay_rate_fit(t, np.where(t > 0, 1e-20, 1.0)) == np.inf
    spec = FormationSpec(_FAN, _PENT)
    res = simulate(spec, PerturbationSpec(0.3, 5).sample(_PENT), IntegratorConfig(t_final=10.0))
    ok = ok and res.decay_rate > 0
    return ok, f"synthetic gamma {gamma:.6f}, flow gamma {res.decay_rate:.3f}"


def check_monitors_translation():
    rng = np.random.default_rng(52)
    p = generic_points(rng, 5)
    c0, s0 = monitors(p.pts)
    c1, s1 = monitors(p.pts + np.array([3.0, -2.0]))
    ok = np.allclose(c1 - c0, [3.0, -2.0]) and abs(s1 - s0) < 1e-12
    return ok, "centroid shifts, scale invariant"


# ---------------------------------------------------------------------
# kernels and file formats
# ---------------------------------------------------------------------


def check_backend_agreement():
    name = _kernels.backend_name()
    if name == "numpy":
        return True, "numpy backend active, no compiled backend (skipped)"
    npb = _kernels.make_numpy_backend()
    rng = np.random.default_rng(60)
    spec = FormationSpec(_FAN, _PENT)
    total, same = 5, 0
    for _ in range(total):
        pos = _PENT.pts + rng.uniform(-0.3, 0.3, size=(5, 2))
        args = (pos, spec._tri, spec.target_cosines, -1, -1, 0.0, 0.0, 1e-9)
        u1, c1, _, _ = _kernels.eval_control(*args)
        u2, c2, _, _ = npb.eval_control(*args)
        # the backends share one arithmetic: equal bits, zero signs too
        same += int((u1.tobytes(), c1.hex()) == (u2.tobytes(), c2.hex()))
    return same == total, f"{name} vs numpy: {same}/{total} evaluations bit-equal"


def check_csv_roundtrip():
    from .cli import _trajectory_csv

    spec = FormationSpec(_FAN, _PENT)
    res = simulate(spec, PerturbationSpec(0.3, 6).sample(_PENT), IntegratorConfig(t_final=1.0))
    buf = io.BytesIO()
    _trajectory_csv(res, buf)
    rows = buf.getvalue().decode("ascii").strip().splitlines()
    worst = 0.0
    for r, line in enumerate(rows[1:]):
        vals = [float(x) for x in line.split(",")]
        p = Configuration(np.array(vals[1:]).reshape(-1, 2))
        worst = max(worst, abs(cost_VF(spec, p) - res.vf[r]))
    return worst < 1e-9, f"max recomputed-cost gap {worst:.2e}"


# every check_* function, in definition order, named without its prefix
_CHECKS: List[Tuple[str, Callable]] = [
    (name.removeprefix("check_"), fn)
    for name, fn in globals().items()
    if name.startswith("check_")
]


def run_all() -> List[Tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) rows."""
    out = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append((name, bool(passed), detail))
    return out
