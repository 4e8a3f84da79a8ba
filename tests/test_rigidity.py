import numpy as np
import pytest

from angleform.errors import (
    CoincidentPoints,
    DegenerateAllCoincident,
    NotAnEdge,
    NotAnEquilibrium,
    ValidationError,
    VertexOutOfRange,
)
from angleform import rigidity
from angleform.geometry import reflection, rotation
from angleform.graph import Graph, LeaderPair, build_laman, leader_laplacian
from angleform.index_sets import (
    full_angle_set,
    laman_minimal_set,
    triangle_formation_set,
)
from angleform.rigidity import (
    AngleIndexSet,
    Configuration,
    angle_congruence_check,
    angle_rigidity_function,
    angle_rigidity_matrix,
    bearing,
    bearing_rigidity_function,
    bearing_rigidity_matrix,
    distance_rigidity_function,
    distance_rigidity_matrix,
    is_infinitesimally_angle_rigid,
    is_infinitesimally_bearing_rigid,
    is_infinitesimally_distance_rigid,
    is_strongly_nondegenerate,
    jacobian_spectrum,
    numerical_rank,
    shape_class_membership,
    trivial_motion_basis,
)
from helpers import (
    angle_matrix_product,
    bearing_matrix_product,
    fan_construction,
    fd_jacobian,
    generic_points,
    nondegenerate_points,
    random_construction,
)

RIGHT_TRIANGLE = Configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
K3 = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])


# ---------------------------------------------------------------------
# Configuration and AngleIndexSet
# ---------------------------------------------------------------------


def test_configuration_accessors():
    p = Configuration([[1.0, 2.0], [3.0, 4.0]])
    assert p.n == 2
    assert np.array_equal(p.point(2), [3.0, 4.0])
    assert np.array_equal(p.vec, [1.0, 2.0, 3.0, 4.0])
    q = Configuration.from_vec([0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(q.pts, [[0.0, 1.0], [2.0, 3.0]])


def test_configuration_immutable():
    p = Configuration([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        p.pts[0, 0] = 5.0


def test_regular_polygon():
    p = Configuration.regular_polygon(4, radius=2.0)
    assert np.allclose(p.point(4), [2.0, 0.0])  # vertex n sits at angle 2 pi
    assert np.allclose(np.linalg.norm(p.pts, axis=1), 2.0)
    side = np.linalg.norm(Configuration.regular_polygon(5).point(1)
                          - Configuration.regular_polygon(5).point(2))
    assert abs(side - 2 * np.sin(np.pi / 5)) < 1e-12


def test_angle_index_set_canonicalization():
    T = AngleIndexSet.from_triples([(2, 3, 1), (2, 1, 3), (1, 3, 2)])
    assert T.triples == ((1, 2, 3), (2, 1, 3))
    assert len(T) == 2
    arr = T.as_array()
    assert arr.dtype == np.int64
    assert np.array_equal(arr, [[0, 1, 2], [1, 0, 2]])


def test_angle_index_set_validation():
    with pytest.raises(ValueError):
        AngleIndexSet(((1, 3, 2),), "x")  # wings out of order
    with pytest.raises(ValueError):
        AngleIndexSet(((1, 2, 2),), "x")
    T = AngleIndexSet.from_triples([(1, 2, 3)])
    with pytest.raises(NotAnEdge):
        T.validate_for(Graph.from_edges(3, [(1, 2), (2, 3)]))  # (1,3) absent


# ---------------------------------------------------------------------
# rigidity functions: hand-checked values
# ---------------------------------------------------------------------


def test_bearing_values():
    assert np.allclose(bearing(RIGHT_TRIANGLE, 2, 1), [1.0, 0.0])
    assert np.allclose(bearing(RIGHT_TRIANGLE, 1, 2), [-1.0, 0.0])
    assert np.allclose(
        bearing(RIGHT_TRIANGLE, 3, 2), [-np.sqrt(0.5), np.sqrt(0.5)]
    )
    with pytest.raises(CoincidentPoints) as err:
        bearing(Configuration([[0.0, 0.0], [0.0, 0.0]]), 1, 2)
    assert err.value.pair == (1, 2)


def test_distance_function_values():
    vals = distance_rigidity_function(K3, RIGHT_TRIANGLE)
    assert np.allclose(vals, [1.0, 1.0, 2.0])  # edges (1,2), (1,3), (2,3)


def test_angle_function_values():
    T = full_angle_set(K3)  # (1,2,3), (2,1,3), (3,1,2)
    vals = angle_rigidity_function(K3, RIGHT_TRIANGLE, T)
    s = np.sqrt(0.5)
    assert np.allclose(vals, [0.0, s, s], atol=1e-12)


def test_angle_function_collinear_clipped():
    line = Configuration([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    vals = angle_rigidity_function(g, line, full_angle_set(g))
    assert np.all(vals <= 1.0) and np.all(vals >= -1.0)
    assert set(np.round(vals, 12)) <= {1.0, -1.0}


# ---------------------------------------------------------------------
# matrices are the gradients of their functions
# ---------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(5))
def test_matrices_match_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    c = random_construction(rng, 6)
    g = build_laman(c)
    p = nondegenerate_points(rng, g)
    T = laman_minimal_set(c)

    J = fd_jacobian(
        lambda v: distance_rigidity_function(g, Configuration.from_vec(v)),
        p.vec.copy(),
    )
    assert np.max(np.abs(J - distance_rigidity_matrix(g, p))) < 1e-5

    J = fd_jacobian(
        lambda v: bearing_rigidity_function(g, Configuration.from_vec(v)),
        p.vec.copy(),
    )
    R = bearing_rigidity_matrix(g, p)
    assert np.max(np.abs(J - R)) / max(1.0, np.max(np.abs(R))) < 1e-5

    J = fd_jacobian(
        lambda v: angle_rigidity_function(g, Configuration.from_vec(v), T),
        p.vec.copy(),
    )
    R = angle_rigidity_matrix(g, p, T)
    assert np.max(np.abs(J - R)) / max(1.0, np.max(np.abs(R))) < 1e-5


def test_angle_matrix_row_structure():
    # the apex block equals the negated sum of the two wing blocks
    rng = np.random.default_rng(11)
    c = random_construction(rng, 5)
    g = build_laman(c)
    p = nondegenerate_points(rng, g)
    T = laman_minimal_set(c)
    R = angle_rigidity_matrix(g, p, T)
    for r, (i, j, k) in enumerate(T.triples):
        bi = R[r, 2 * i - 2 : 2 * i]
        bj = R[r, 2 * j - 2 : 2 * j]
        bk = R[r, 2 * k - 2 : 2 * k]
        assert np.allclose(bi, -(bj + bk))
        # all other blocks vanish
        others = [v for v in range(1, g.n + 1) if v not in (i, j, k)]
        for v in others:
            assert np.allclose(R[r, 2 * v - 2 : 2 * v], 0.0)


def _frameworks(fan5, pentagon):
    """fan5 on the pentagon, then seeded random Laman frameworks."""
    yield fan5, pentagon, triangle_formation_set(fan5)
    for n in (6, 20, 60):
        rng = np.random.default_rng(300 + n)
        c = random_construction(rng, n)
        g = build_laman(c)
        yield g, nondegenerate_points(rng, g), laman_minimal_set(c)


def test_bearing_matrix_equals_product(fan5, pentagon):
    # integer points give axis-aligned edges, hence exact zeros in blocks
    grid = Configuration([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0], [1.0, 3.0]])
    cases = [(g, p) for g, p, _ in _frameworks(fan5, pentagon)] + [(fan5, grid)]
    for g, p in cases:
        R = bearing_rigidity_matrix(g, p)
        oracle = bearing_matrix_product(g, p)
        assert np.array_equal(R, oracle)
        assert np.array_equal(np.signbit(R), np.signbit(oracle))


def test_angle_matrix_matches_product(fan5, pentagon):
    for g, p, T in _frameworks(fan5, pentagon):
        for S in (T, full_angle_set(g)):
            R = angle_rigidity_matrix(g, p, S)
            oracle = angle_matrix_product(g, p, S)
            assert R.shape == oracle.shape
            assert np.max(np.abs(R - oracle)) <= 1e-15 * np.max(np.abs(oracle))
            # the function and the spectrum against their bearing forms
            f = angle_rigidity_function(g, p, S)
            loop = [bearing(p, i, j) @ bearing(p, i, k) for i, j, k in S.triples]
            assert np.max(np.abs(f - np.clip(loop, -1, 1))) <= 4 * np.finfo(float).eps
            eig = np.linalg.eigvalsh(-(oracle.T @ oracle))
            scale = np.max(np.abs(eig))
            assert np.max(np.abs(jacobian_spectrum(p, S) - eig)) <= 1e-13 * scale


def _coincident_pair(fn, *args):
    with pytest.raises(CoincidentPoints) as err:
        fn(*args)
    return err.value.pair


def test_bearing_matrix_coincident_names_first_edge(fan5):
    # points 3 and 4 coincide, and so do 4 and 5: edge (3, 4) comes first
    pts = Configuration([[0, 0], [1, 0], [1, 1], [1, 1], [1, 1]])
    assert _coincident_pair(bearing_rigidity_matrix, fan5, pts) == (3, 4)
    assert _coincident_pair(bearing_matrix_product, fan5, pts) == (3, 4)


def test_angle_matrix_coincident_names_first_triple_pair(fan5):
    four_five = Configuration([[0, 0], [1, 0], [1, 1], [0, 1], [0, 1]])
    three_four_five = Configuration([[0, 0], [1, 0], [1, 1], [1, 1], [1, 1]])
    cases = [
        # first offending triple (4, 3, 5): its (i, k) pair
        (four_five, [(1, 2, 3), (4, 3, 5), (5, 1, 4)], (4, 5)),
        # the pair is apex first
        (four_five, [(1, 2, 3), (5, 1, 4)], (5, 4)),
        # (i, j) is checked before (i, k)
        (three_four_five, [(4, 3, 5)], (4, 3)),
        # no triple uses edge (4, 5): the edge is refused all the same
        (four_five, [(1, 2, 3)], (4, 5)),
    ]
    for p, triples, pair in cases:
        T = AngleIndexSet.from_triples(triples)
        assert _coincident_pair(angle_rigidity_matrix, fan5, p, T) == pair
        assert _coincident_pair(angle_matrix_product, fan5, p, T) == pair
    # the function and the spectrum look only at the triples' own edges
    for p, triples, pair in cases[:3]:
        T = AngleIndexSet.from_triples(triples)
        assert _coincident_pair(angle_rigidity_function, fan5, p, T) == pair
        assert _coincident_pair(jacobian_spectrum, p, T) == pair


def test_angle_index_set_refuses_labels_below_one():
    # label 0 would become index -1, which numpy wraps to the last point
    for triples in (((0, 1, 2),), ((1, 2, 3), (2, -1, 3))):
        with pytest.raises(VertexOutOfRange):
            AngleIndexSet(triples)
        with pytest.raises(VertexOutOfRange):
            AngleIndexSet.from_triples(triples)


def test_jacobian_spectrum_refuses_vertices_out_of_range(pentagon):
    for triple in ((0, 1, 2), (1, 2, 6)):
        with pytest.raises(ValueError):
            jacobian_spectrum(pentagon, AngleIndexSet((triple,)))


def test_angle_congruence_coincident_names_first_triple_pair():
    # triple by triple, p's (i, j) and (i, k) come before q's
    four_five = Configuration([[0, 0], [1, 0], [1, 1], [0, 1], [0, 1]])
    one_two = Configuration([[0, 0], [0, 0], [1, 1], [0, 1], [2, 1]])
    assert _coincident_pair(angle_congruence_check, four_five, one_two) == (1, 2)
    assert _coincident_pair(angle_congruence_check, one_two, four_five) == (1, 2)
    assert _coincident_pair(angle_congruence_check, four_five, four_five) == (4, 5)


# ---------------------------------------------------------------------
# trivial motions, ranks, verdicts
# ---------------------------------------------------------------------


def test_trivial_motion_basis_spans_and_annihilates(fan5, pentagon):
    B = trivial_motion_basis(pentagon)
    assert B.shape == (4, 10)
    assert numerical_rank(B).rank == 4
    R = angle_rigidity_matrix(fan5, pentagon, triangle_formation_set(fan5))
    assert np.max(np.abs(R @ B.T)) < 1e-12


def test_trivial_motion_basis_rejects_coincident():
    with pytest.raises(DegenerateAllCoincident):
        trivial_motion_basis(Configuration([[1.0, 1.0], [1.0, 1.0]]))


def test_numerical_rank_known_matrix():
    M = np.diag([1.0, 1e-3, 1e-16])
    info = numerical_rank(M)
    assert info.rank == 2 and info.nullspace_dim == 1
    assert numerical_rank(np.zeros((3, 5))).rank == 0
    assert numerical_rank(M, tol=1e-4).rank == 2
    assert numerical_rank(M, tol=0.5).rank == 1


def test_rigidity_verdicts_pentagon(fan5, pentagon):
    assert is_infinitesimally_distance_rigid(fan5, pentagon).verdict
    assert is_infinitesimally_bearing_rigid(fan5, pentagon).verdict
    rep = is_infinitesimally_angle_rigid(
        fan5, pentagon, triangle_formation_set(fan5)
    )
    assert rep.verdict and rep.nullspace_dim == 4 and rep.rank == 6


def test_rigidity_verdicts_flexible():
    square = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    p = Configuration([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert not is_infinitesimally_distance_rigid(square, p).verdict
    assert not is_infinitesimally_bearing_rigid(square, p).verdict
    assert not is_infinitesimally_angle_rigid(
        square, p, full_angle_set(square)
    ).verdict


def test_report_as_dict(fan5, pentagon):
    rep = is_infinitesimally_distance_rigid(fan5, pentagon)
    d = rep.as_dict()
    assert d["kind"] == "distance" and d["verdict"] is True
    assert d["rows"] == 7 and d["cols"] == 10


def test_strong_nondegeneracy():
    g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    good = is_strongly_nondegenerate(g, RIGHT_TRIANGLE)
    assert good.ok and good.witness is None
    bad = is_strongly_nondegenerate(
        g, Configuration([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    )
    assert not bad.ok and bad.witness == (1, 2, 3)
    # collinear points on a triangle-free graph are fine
    path = Graph.from_edges(3, [(1, 2), (2, 3)])
    assert is_strongly_nondegenerate(
        path, Configuration([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    ).ok


# ---------------------------------------------------------------------
# shape classes and congruence
# ---------------------------------------------------------------------


def test_shape_class_positive():
    rng = np.random.default_rng(12)
    p = generic_points(rng, 6)
    for det_branch in (rotation(0.7), reflection(1.3)):
        q = Configuration(-1.5 * (p.pts @ det_branch.T) + np.array([2.0, -1.0]))
        rep = shape_class_membership(p, q)
        assert rep.member and rep.residual < 1e-12
        # reported transform reproduces q
        c, R, xi = rep.transform
        assert np.allclose(c * (p.pts @ R.T) + xi, q.pts)


def test_shape_class_negative():
    rng = np.random.default_rng(13)
    p = generic_points(rng, 6)
    q = Configuration(p.pts + rng.uniform(-0.5, 0.5, size=(6, 2)))
    assert not shape_class_membership(p, q).member
    # but passes at a huge tolerance
    assert shape_class_membership(p, q, tol=10.0).member


def test_shape_class_coincident_reference():
    with pytest.raises(DegenerateAllCoincident):
        shape_class_membership(
            Configuration([[1.0, 1.0], [1.0, 1.0]]),
            Configuration([[0.0, 0.0], [1.0, 0.0]]),
        )


def test_angle_congruence():
    rng = np.random.default_rng(14)
    p = generic_points(rng, 5)
    q = Configuration(0.3 * (p.pts @ reflection(0.4).T) + np.array([1.0, 1.0]))
    assert angle_congruence_check(p, q)
    r = Configuration(p.pts + rng.uniform(-0.4, 0.4, size=(5, 2)))
    assert not angle_congruence_check(p, r)
    with pytest.raises(ValueError):
        angle_congruence_check(p, Configuration([[0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------
# linearization spectra
# ---------------------------------------------------------------------


def test_jacobian_spectrum_leading_zeros(fan5, pentagon):
    T = triangle_formation_set(fan5)
    eig = jacobian_spectrum(pentagon, T)
    assert eig.shape == (10,)
    assert np.all(eig <= 1e-12)  # negative semidefinite
    assert np.sum(np.abs(eig) < 1e-8) == 4
    assert np.all(eig[:-4] < -1e-6)


def test_jacobian_spectrum_maneuver(fan5, pentagon):
    T = triangle_formation_set(fan5)
    L = leader_laplacian(fan5, LeaderPair(3, 4))
    eig = jacobian_spectrum(pentagon, T, maneuver=L)
    assert np.sum(np.abs(eig) < 1e-8) == 2
    assert np.all(eig[:-2] < -1e-6)


def test_jacobian_spectrum_equilibrium_check(fan5, pentagon):
    T = triangle_formation_set(fan5)
    target = angle_rigidity_function(fan5, pentagon, T)
    # at the equilibrium the check passes
    jacobian_spectrum(pentagon, T, target_cosines=target)
    shifted = Configuration(pentagon.pts + np.array([[0.1, 0.0]] + [[0.0, 0.0]] * 4))
    with pytest.raises(NotAnEquilibrium):
        jacobian_spectrum(shifted, T, target_cosines=target)


def test_jacobian_spectrum_scale_family():
    # the same shape at any scale is an equilibrium of the same cosines
    fan = build_laman(fan_construction(5))
    T = triangle_formation_set(fan)
    target = angle_rigidity_function(
        fan, Configuration.regular_polygon(5), T
    )
    big = Configuration.regular_polygon(5, radius=7.0)
    eig = jacobian_spectrum(big, T, target_cosines=target)
    assert np.sum(np.abs(eig) < 1e-8) == 4


@pytest.mark.parametrize(
    "build,name,rows",
    [
        (lambda g, p: distance_rigidity_matrix(g, p), "distance rigidity matrix", 7),
        (lambda g, p: bearing_rigidity_matrix(g, p), "bearing rigidity matrix", 14),
        (
            lambda g, p: angle_rigidity_matrix(g, p, triangle_formation_set(g)),
            "angle rigidity matrix",
            6,
        ),
        (
            lambda g, p: full_angle_set(g),
            "angle source 'full' angle rigidity matrix",
            14,  # C(deg, 2) over fan5's degrees 4, 2, 3, 3, 2
        ),
    ],
    ids=["distance", "bearing", "angle", "full-set"],
)
def test_matrix_size_cap(monkeypatch, fan5, pentagon, build, name, rows):
    # fan5 has m = 7 edges and 2n = 10 columns; the cap is inclusive
    monkeypatch.setattr(rigidity, "MAX_MATRIX_ENTRIES", rows * 10)
    assert len(build(fan5, pentagon)) == rows
    monkeypatch.setattr(rigidity, "MAX_MATRIX_ENTRIES", rows * 10 - 1)
    with pytest.raises(ValidationError, match=f"{name} would be {rows} x 10 "):
        build(fan5, pentagon)
