import numpy as np
import pytest

from angleform.errors import NonUnitVector
from angleform.geometry import (
    UNIT_REJECT,
    angle_terms,
    householder,
    perp,
    projection,
    reflection,
    rotation,
)


def test_rotation_basics():
    R = rotation(np.pi / 2)
    assert np.allclose(R @ [1, 0], [0, 1])
    assert np.allclose(R @ [0, 1], [-1, 0])
    assert abs(np.linalg.det(R) - 1.0) < 1e-15


def test_rotation_composition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        assert np.allclose(rotation(a) @ rotation(b), rotation(a + b))


def test_reflection_determinant_and_involution():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-np.pi, np.pi, 50):
        E = reflection(theta)
        assert abs(np.linalg.det(E) + 1.0) < 1e-14
        assert np.allclose(E @ E, np.eye(2))


def test_reflection_fixes_axis():
    # reflection(theta) fixes the direction at angle theta / 2
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-np.pi, np.pi, 20):
        axis = np.array([np.cos(theta / 2), np.sin(theta / 2)])
        assert np.allclose(reflection(theta) @ axis, axis)


def test_householder_negates_input_fixes_perp():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        H = householder(v)
        assert np.allclose(H @ v, -v)
        assert np.allclose(H @ perp(v), perp(v))
        assert np.allclose(H @ H, np.eye(2))


def test_householder_equals_reflection():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        theta = 2 * np.arctan2(v[1], v[0]) + np.pi
        assert np.allclose(householder(v), reflection(theta))


def test_projection_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        P = projection(v)
        assert np.allclose(P @ v, 0.0)
        assert np.allclose(P @ P, P)
        assert np.allclose(P, P.T)
        # rank one in the plane: image is the perp direction
        assert np.allclose(P @ perp(v), perp(v))


def test_projection_of_second_bearing():
    # P(g_ab) g_ac = g_ac - (g_ab . g_ac) g_ab, the row-assembly identity
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.normal(size=2)
        a /= np.linalg.norm(a)
        b = rng.normal(size=2)
        b /= np.linalg.norm(b)
        assert np.allclose(projection(a) @ b, b - (a @ b) * a)


def test_perp():
    assert np.allclose(perp([1.0, 0.0]), [0.0, 1.0])
    assert np.allclose(perp([3.0, -2.0]), [2.0, 3.0])
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(size=2)
        assert abs(perp(v) @ v) < 1e-15
        assert np.allclose(perp(perp(v)), -v)


def test_unit_rejection():
    with pytest.raises(NonUnitVector):
        householder([1.0, 1.0])
    with pytest.raises(NonUnitVector):
        projection([0.5, 0.0])
    with pytest.raises(NonUnitVector):
        householder([0.0, 0.0])


def test_unit_slack_renormalizes():
    # within the accept band the input is silently renormalized
    eps = UNIT_REJECT / 10
    H = householder([1.0 + eps, 0.0])
    assert np.allclose(H, np.diag([-1.0, 1.0]))
    P = projection([0.0, 1.0 - eps])
    assert np.allclose(P, np.diag([1.0, 0.0]))


# every ordered triple of 5 points, apex first
TRIPLES = np.array(
    [(i, j, k) for i in range(5) for j in range(5) for k in range(5)
     if len({i, j, k}) == 3]
)


def test_angle_terms_batch_equals_snapshots():
    pts = np.random.default_rng(5).uniform(-2, 2, (4, 5, 2))
    batch = angle_terms(pts, TRIPLES)
    for s, snap in enumerate(pts):
        for b, one in zip(batch, angle_terms(snap, TRIPLES)):
            assert np.array_equal(b[s], one)


def test_angle_terms_gradient_matches_finite_differences():
    pts = np.random.default_rng(6).uniform(-2, 2, (5, 2))
    cos, qj, qk, lij, lik = angle_terms(pts, TRIPLES)
    i, j, k = TRIPLES.T
    assert np.allclose(lij, np.linalg.norm(pts[i] - pts[j], axis=1))
    assert np.allclose(lik, np.linalg.norm(pts[i] - pts[k], axis=1))
    grad = np.zeros((len(TRIPLES), 5, 2))
    rows = np.arange(len(TRIPLES))
    grad[rows, i], grad[rows, j], grad[rows, k] = qj + qk, -qj, -qk
    h = 1e-6
    for v in range(5):
        for c in range(2):
            up, down = pts.copy(), pts.copy()
            up[v, c] += h
            down[v, c] -= h
            fd = (angle_terms(up, TRIPLES)[0] - angle_terms(down, TRIPLES)[0]) / (2 * h)
            assert np.max(np.abs(fd - grad[:, v, c])) < 1e-8
