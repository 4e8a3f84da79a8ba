import dataclasses
import json
import mmap
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angleform.errors import (
    CoincidentPoints,
    DegenerateAllCoincident,
    NotAnEdge,
    NotAnEquilibrium,
    ValidationError,
    VertexOutOfRange,
)
from angleform import cli, rigidity
from angleform.geometry import reflection, rotation
from angleform.graph import Graph, LeaderPair, build_laman, leader_laplacian
from angleform.index_sets import (
    algorithm1_set,
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
    PEAK,
    angle_matrix_product,
    bearing_matrix_product,
    disjoint_union,
    fan_construction,
    fd_jacobian,
    generic_points,
    nondegenerate_points,
    pebble_game_rank,
    random_connected_graph,
    random_construction,
    scalar_validate_for,
    triangle_count,
)

RIGHT_TRIANGLE = Configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])


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
    with pytest.raises(AttributeError):
        p.pts = np.zeros((2, 2))
    assert [f.name for f in dataclasses.fields(p)] == ["pts"]
    assert repr(p) == "Configuration(n=2)"


def test_regular_polygon():
    p = Configuration.regular_polygon(4, radius=2.0)
    assert np.allclose(p.point(4), [2.0, 0.0])  # vertex n sits at angle 2 pi
    assert np.allclose(np.linalg.norm(p.pts, axis=1), 2.0)
    side = np.linalg.norm(Configuration.regular_polygon(5).point(1)
                          - Configuration.regular_polygon(5).point(2))
    assert abs(side - 2 * np.sin(np.pi / 5)) < 1e-12


def test_angle_index_set_canonicalization():
    T = AngleIndexSet([(2, 3, 1), (2, 1, 3), (1, 3, 2)])
    assert T.triples == ((1, 2, 3), (2, 1, 3))
    assert len(T) == 2
    arr = T.triple_array
    assert arr.dtype == np.int64
    assert [f.name for f in dataclasses.fields(T)] == ["triple_array"]
    assert np.array_equal(arr, [[0, 1, 2], [1, 0, 2]])
    assert repr(T) == "AngleIndexSet(w=2)"  # its size, not the 0-based store


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(*[st.integers(1, 7)] * 3).filter(lambda t: len(set(t)) == 3),
                     max_size=12))
@example(rows=[])
def test_triple_array_is_the_one_store(rows):
    """The set is its read-only 0-based (w, 3) int64 array: the 1-based
    triples are read from it and build the same set again."""
    T = AngleIndexSet(rows)
    assert AngleIndexSet(T.triples) == T
    a = T.triple_array
    assert a.dtype == np.int64 and a.shape == (len(T), 3)
    assert np.array_equal(a, np.array(T.triples, dtype=np.int64).reshape(-1, 3) - 1)
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0


@pytest.mark.parametrize(
    "triples", [[(1, 2)], [(1, 2, 3), (1, 2, 3, 4)]], ids=["pair", "ragged"]
)
def test_angle_index_set_refuses_a_row_that_is_not_a_triple(triples):
    with pytest.raises(ValueError, match=r"^row \(1, 2(, 3, 4)?\) is not 3 labels$"):
        AngleIndexSet(triples)


def test_angle_index_set_refuses_labels_past_int64():
    """No int64 store holds a label past int64, so the set refuses it at
    construction (VertexOutOfRange), naming its canonical triple; at the
    same triple a label below 1 is named first."""
    rng = np.random.default_rng(18)
    for big in (2**63, 2**63 + 5, 10**400):
        rows = [tuple(int(v) for v in rng.choice(np.arange(1, 8), 3, replace=False))
                for _ in range(4)]
        past = rf"^triple \(1, 2, {big}\) has a vertex label past int64$"
        with pytest.raises(VertexOutOfRange, match=past):
            AngleIndexSet(rows + [(1, big, 2)])
    below = r"^triple \(0, 2, 9223372036854775813\) has a vertex label below 1$"
    with pytest.raises(VertexOutOfRange, match=below):
        AngleIndexSet([(0, 2**63 + 5, 2)])


def test_angle_index_set_validation():
    """AngleIndexSet(triples) canonicalizes: wings into j < k, triples
    sorted, repeats dropped; then it refuses, at the first bad triple in
    that order, a label below 1 before a repeated vertex."""
    assert AngleIndexSet(((1, 3, 2),)).triples == ((1, 2, 3),)  # wings out of order
    assert AngleIndexSet(((2, 1, 3), (1, 2, 3))).triples == ((1, 2, 3), (2, 1, 3))
    assert AngleIndexSet(iter([(1, 2, 3), (1, 3, 2)])) == AngleIndexSet(((1, 2, 3),))
    with pytest.raises(ValueError, match=r"^triple \(1, 2, 2\) repeats a vertex$"):
        AngleIndexSet(((1, 2, 2),))
    # (0, 1, 2) sorts first, so its label 0 is named, not the later repeat
    with pytest.raises(VertexOutOfRange, match=r"^triple \(0, 1, 2\) has a vertex"):
        AngleIndexSet(((3, 3, 4), (0, 2, 1)))
    T = AngleIndexSet([(1, 2, 3)])
    with pytest.raises(NotAnEdge):
        T.validate_for(Graph(3, [(1, 2), (2, 3)]))  # (1,3) absent


@pytest.mark.parametrize("triple", [(1.7, 2, 3), (1, 2, 3.0), (1, 2, float("nan"))])
def test_angle_index_set_refuses_labels_that_are_not_integers(triple):
    label = next(v for v in triple if isinstance(v, float))
    with pytest.raises(ValueError, match=f"^label {label!r} is not an integer$"):
        AngleIndexSet((triple,))


def _outcome(check, T, g):
    try:
        check(T, g)
    except (NotAnEdge, VertexOutOfRange) as exc:
        return type(exc), str(exc)
    return None


def test_validate_for_raises_as_the_scalar_check():
    """The vectorized check names the scalar loop's first offending
    triple with its exception and message: out of range before (i, j),
    (i, j) before (i, k)."""
    rng = np.random.default_rng(18)
    outcomes = set()
    for trial in range(300):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n, int(rng.integers(0, n)))
        rows = []
        for _ in range(int(rng.integers(0, 6))):
            top = n + (2 if trial % 3 == 0 else 0)
            rows.append(tuple(int(v) for v in rng.choice(np.arange(1, top + 1), 3,
                                                         replace=False)))
        T = AngleIndexSet(rows)
        want = _outcome(scalar_validate_for, T, g)
        assert _outcome(AngleIndexSet.validate_for, T, g) == want, (g, T)
        outcomes.add(None if want is None else (want[0], want[1].split()[-2]))
    assert None in outcomes
    assert any(kind is VertexOutOfRange for kind, _ in outcomes - {None})
    assert any(kind is NotAnEdge for kind, _ in outcomes - {None})


def test_validate_for_checks_a_graph_once(monkeypatch):
    checks = []
    real = AngleIndexSet._check
    monkeypatch.setattr(AngleIndexSet, "_check",
                        lambda T, g: checks.append(g) or real(T, g))
    T = AngleIndexSet([(1, 2, 3)])
    g = K3
    T.validate_for(g)
    T.validate_for(g)
    assert checks == [g]
    path = Graph(3, [(1, 2), (2, 3)])
    with pytest.raises(NotAnEdge):  # another graph is checked afresh
        T.validate_for(path)
    with pytest.raises(NotAnEdge):  # and a failed check is not kept
        T.validate_for(path)
    assert checks == [g, path, path]
    assert T == AngleIndexSet([(1, 2, 3)])


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


def test_bearing_is_a_row_of_the_bearing_function(fan5, pentagon):
    """bearing(p, i, j) is edge (i, j)'s row of bearing_rigidity_function
    bit for bit, and its negation when i > j."""
    for g, p, _ in _frameworks(fan5, pentagon):
        rows = bearing_rigidity_function(g, p).reshape(-1, 2)
        for r, (i, j) in enumerate(g.edges):
            for got, want in ((bearing(p, i, j), rows[r]), (bearing(p, j, i), -rows[r])):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
    for i, j in ((0, 1), (1, 6), (6, 1), (-1, 2)):
        with pytest.raises(ValueError, match="outside 1..5"):
            bearing(pentagon, i, j)


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
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    vals = angle_rigidity_function(g, line, full_angle_set(g))
    assert np.all(vals <= 1.0) and np.all(vals >= -1.0)
    assert set(np.round(vals, 12)) <= {1.0, -1.0}


# ---------------------------------------------------------------------
# matrices are the gradients of their functions
# ---------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(5))
def test_matrices_match_finite_differences(trial):
    # the distance matrix; the bearing and angle matrices are selftest's
    # bearing_matrix_gradient and angle_matrix_gradient
    rng = np.random.default_rng(100 + trial)
    g = build_laman(random_construction(rng, 6))
    p = nondegenerate_points(rng, g)
    J = fd_jacobian(
        lambda v: distance_rigidity_function(g, Configuration.from_vec(v)),
        p.vec.copy(),
    )
    assert np.max(np.abs(J - distance_rigidity_matrix(g, p))) < 1e-5


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
        T = AngleIndexSet(triples)
        assert _coincident_pair(angle_rigidity_matrix, fan5, p, T) == pair
        assert _coincident_pair(angle_matrix_product, fan5, p, T) == pair
    # the function and the spectrum look only at the triples' own edges
    for p, triples, pair in cases[:3]:
        T = AngleIndexSet(triples)
        assert _coincident_pair(angle_rigidity_function, fan5, p, T) == pair
        assert _coincident_pair(jacobian_spectrum, p, T) == pair


def test_angle_index_set_refuses_labels_below_one():
    # label 0 would become index -1, which numpy wraps to the last point
    for triples in (((0, 1, 2),), ((1, 2, 3), (2, -1, 3))):
        with pytest.raises(VertexOutOfRange):
            AngleIndexSet(triples)


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
    assert info.verdict is None
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
    square = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    p = Configuration([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert not is_infinitesimally_distance_rigid(square, p).verdict
    assert not is_infinitesimally_bearing_rigid(square, p).verdict
    assert not is_infinitesimally_angle_rigid(
        square, p, full_angle_set(square)
    ).verdict


def _bearing_case(rng, case):
    n = int(rng.integers(6, 16))
    if case == "sparse":  # n - 1 <= m <= 2n - 5
        return random_connected_graph(rng, n, int(rng.integers(0, n - 3)))
    if case == "laman":  # m = 2n - 3
        return build_laman(random_construction(rng, n))
    if case == "dense":  # m = 2n + 1 to 3n - 2: no structural zero
        return random_connected_graph(rng, n, int(rng.integers(n + 2, 2 * n)))
    # two Laman components: each adds its own translations and scaling
    k = n // 2
    return disjoint_union(
        build_laman(random_construction(rng, k)),
        build_laman(random_construction(rng, n - k)),
    )


@pytest.mark.parametrize("case", ["sparse", "laman", "dense", "disconnected"])
def test_bearing_report_matches_jacobian_svd(case):
    # the report comes from the half-size m x 2n matrix; it must read as
    # the SVD of the 2m x 2n bearing rigidity matrix itself
    rng = np.random.default_rng({"sparse": 41, "laman": 42, "dense": 43}.get(case, 44))
    verdicts = set()
    for _ in range(10):
        g = _bearing_case(rng, case)
        p = generic_points(rng, g.n)
        rep = is_infinitesimally_bearing_rigid(g, p)
        R = bearing_rigidity_matrix(g, p)
        ref = numerical_rank(R)
        assert (rep.rank, rep.nullspace_dim) == (ref.rank, ref.nullspace_dim)
        assert rep.nullspace_dim == 2 * g.n - rep.rank
        assert rep.verdict == (ref.rank == 2 * g.n - 3)
        smax = ref.singular_values[0]
        assert abs(rep.tol - ref.tol) <= 1e-14 * smax
        sv = np.array(rep.singular_values)
        assert sv.shape == ref.singular_values.shape
        assert np.max(np.abs(sv - ref.singular_values)) <= 1e-14 * smax
        # below row m the Jacobian's values are structural zeros
        assert np.all(sv[g.m:] == 0.0)
        assert (sv[g.m:].size > 0) == (g.m < 2 * g.n)
        verdicts.add(rep.verdict)
    assert verdicts == {case in ("laman", "dense")}


K33 = Graph(6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
PRISM = Graph(
    6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
)


def test_rank_verdicts_match_the_pebble_game():
    """Laman's theorem, by the pebble game, is a truth that shares no
    code with the verdicts: at generic points the distance and bearing
    ranks are its count of independent edges, and the full-set angle
    verdict holds exactly when that count is 2n - 3. K3,3 and the prism
    are rigid but lie outside the vertex-insertion class."""
    rng = np.random.default_rng(47)
    graphs = [K33, PRISM]
    for k in range(60):  # sparse and dense draws in turn
        n = int(rng.integers(4, 10))
        extra = int(rng.integers(0, n) if k % 2 else rng.integers(n, 3 * n))
        graphs.append(random_connected_graph(rng, n, extra))
    ranks = set()
    for g in graphs:
        p = generic_points(rng, g.n)
        count = pebble_game_rank(g)
        assert is_infinitesimally_distance_rigid(g, p).rank == count
        assert is_infinitesimally_bearing_rigid(g, p).rank == count
        rigid = is_infinitesimally_angle_rigid(g, p, full_angle_set(g)).verdict
        assert rigid == (count == 2 * g.n - 3)
        ranks.add((count == 2 * g.n - 3, count == g.m))
    # rigid and flexible graphs, with and without redundant edges
    assert ranks == {(True, True), (True, False), (False, True), (False, False)}


def test_strong_nondegeneracy():
    g = Graph(3, [(1, 2), (1, 3), (2, 3)])
    good = is_strongly_nondegenerate(g, RIGHT_TRIANGLE)
    assert good.ok and good.witness is None
    bad = is_strongly_nondegenerate(
        g, Configuration([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    )
    assert not bad.ok and bad.witness == (1, 2, 3)
    # collinear points on a triangle-free graph are fine
    path = Graph(3, [(1, 2), (2, 3)])
    assert is_strongly_nondegenerate(
        path, Configuration([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    ).ok


def _sorted_triangles(g):
    """The graph triangles a < b < c in sorted order, by brute force."""
    return [t for t in combinations(range(1, g.n + 1), 3)
            if g.has_edge(*t[:2]) and g.has_edge(*t[1:]) and g.has_edge(*t[::2])]


def _scalar_nondegenerate(g, p):
    """The nondegeneracy test one triangle at a time, with bearing()."""
    for a, b, c in _sorted_triangles(g):
        gab, gac = bearing(p, b, a), bearing(p, c, a)
        # the cross product as two products, never a BLAS dot product
        if abs(gab[0] * gac[1] - gab[1] * gac[0]) <= rigidity.COLLINEAR_EPS:
            return rigidity.NondegeneracyReport(False, (a, b, c))
    return rigidity.NondegeneracyReport(True, None)


K7 = Graph(7, [(i, j) for i in range(1, 8) for j in range(i + 1, 8)])


def _k7_points(on_line_12=()):
    """Generic points, with the listed vertices moved onto the line
    through points 1 and 2."""
    pts = generic_points(np.random.default_rng(35), 7).pts.copy()
    for r, v in enumerate(on_line_12):
        pts[v - 1] = pts[0] + (2.5 + r) * (pts[1] - pts[0])
    return pts


@pytest.mark.parametrize("chunk", [1, 2, 7, rigidity.TRIANGLE_CHUNK])
def test_nondegenerate_witness_is_the_first_collinear_triangle(monkeypatch, chunk):
    monkeypatch.setattr(rigidity, "TRIANGLE_CHUNK", chunk)
    assert is_strongly_nondegenerate(K7, Configuration(_k7_points())).ok
    # (1, 2, 5) is the first of the collinear (1, 2, 5), (1, 2, 7), (2, 5, 7)...
    p = Configuration(_k7_points(on_line_12=(7, 5)))
    assert is_strongly_nondegenerate(K7, p) == (False, (1, 2, 5))
    assert _scalar_nondegenerate(K7, p) == (False, (1, 2, 5))
    rng = np.random.default_rng(33)
    for _ in range(20):
        g = random_connected_graph(rng, 9, int(rng.integers(6, 20)))
        # points on a coarse grid make collinear triangles common
        p = Configuration(np.round(rng.uniform(-2.0, 2.0, (9, 2))))
        try:
            want = _scalar_nondegenerate(g, p)
        except CoincidentPoints as exc:
            with pytest.raises(CoincidentPoints) as got:
                is_strongly_nondegenerate(g, p)
            assert got.value.pair == exc.pair
            continue
        assert is_strongly_nondegenerate(g, p) == want


@pytest.mark.parametrize("chunk", [1, 4, rigidity.TRIANGLE_CHUNK])
@pytest.mark.parametrize(
    "moved, onto, on_line_12, want",
    [
        (2, 1, (), (2, 1)),  # (1, 2, 3) has p_b = p_a
        (5, 1, (), (5, 1)),  # (1, 2, 5) has p_c = p_a
        (3, 1, (5,), (3, 1)),  # (1, 2, 3) comes before the collinear (1, 2, 5)
        (7, 1, (3,), (1, 2, 3)),  # the collinear (1, 2, 3) comes first
        (7, 6, (), (1, 6, 7)),  # p_b = p_c is collinear, not coincident
    ],
)
def test_nondegenerate_names_the_coincident_pair(monkeypatch, chunk, moved, onto,
                                                 on_line_12, want):
    """The first triangle with p_b or p_c on p_a raises for (b, a), else
    (c, a), as bearing() does, unless a collinear triangle comes first."""
    monkeypatch.setattr(rigidity, "TRIANGLE_CHUNK", chunk)
    pts = _k7_points(on_line_12)
    pts[moved - 1] = pts[onto - 1]
    p = Configuration(pts)
    for check in (is_strongly_nondegenerate, _scalar_nondegenerate):
        if len(want) == 3:
            assert check(K7, p) == (False, want)
            continue
        with pytest.raises(CoincidentPoints) as got:
            check(K7, p)
        assert got.value.pair == want


def test_triangle_count_matches_the_listing(monkeypatch):
    """Listed in sorted order in blocks of at most TRIANGLE_CHUNK
    candidates (or one edge's), and counted alike, whatever the chunk."""
    rng = np.random.default_rng(34)
    graphs = [K7, Graph(4, []), Graph(1, [])]
    for n in (3, 5, 8, 12):
        for extra in (0, n, 3 * n):
            graphs.append(
                random_connected_graph(rng, n, min(extra, n * (n - 1) // 2 - n + 1))
            )
    for chunk in (1, 4, rigidity.TRIANGLE_CHUNK):
        monkeypatch.setattr(rigidity, "TRIANGLE_CHUNK", chunk)
        for g in graphs:
            blocks = list(rigidity._triangles(g))
            assert all(b.dtype == np.int64 and len(b) <= max(chunk, g.n)
                       for b in blocks)
            listed = [tuple(t) for b in blocks for t in b.tolist()]
            assert listed == _sorted_triangles(g)
            assert triangle_count(g) == len(listed)
    assert triangle_count(K7) == 35


# ---------------------------------------------------------------------
# shape classes and congruence
# ---------------------------------------------------------------------


def test_shape_class_negative():
    rng = np.random.default_rng(13)
    p = generic_points(rng, 6)
    q = Configuration(p.pts + rng.uniform(-0.5, 0.5, size=(6, 2)))
    assert not shape_class_membership(p, q).member
    # but passes at a huge tolerance
    assert shape_class_membership(p, q, tol=10.0).member


def _procrustes(p, q):
    """(scale, residual, det R) of the SVD similarity fit of q to p: each
    orthogonal branch fitted through the SVD of b^T a, the rotation kept
    on a tie."""
    a, b = p.pts - p.pts.mean(axis=0), q.pts - q.pts.mean(axis=0)
    U, _, Vt = np.linalg.svd(b.T @ a)
    flip = np.sign(np.linalg.det(U @ Vt)) or 1.0
    fits = []
    for branch in (1.0, -1.0):
        R = U @ np.diag([1.0, branch * flip]) @ Vt
        c = np.sum(b * (a @ R.T)) / np.sum(a * a)
        fits.append((c, np.linalg.norm(b - c * (a @ R.T)) / np.linalg.norm(a), branch))
    return fits[1] if fits[1][1] < fits[0][1] else fits[0]


def test_shape_class_fit_is_the_svd_procrustes_fit():
    """The closed-form fit gives the SVD fit's scale and residual (to
    1e-12) and its branch, on rotated, reflected, scaled and translated
    copies, exact or disturbed; for a collinear p the two branches tie
    and the rotation is kept."""
    rng = np.random.default_rng(15)
    for k in range(40):
        p = generic_points(rng, 3 + k % 6)
        turn = (rotation if k % 2 else reflection)(rng.uniform(-np.pi, np.pi))
        pts = rng.uniform(0.2, 5.0) * (p.pts @ turn.T) + rng.uniform(-3.0, 3.0, 2)
        q = Configuration(pts + (k % 4 > 1) * rng.normal(0.0, 0.1, pts.shape))
        rep = shape_class_membership(p, q)
        c, res, branch = _procrustes(p, q)
        assert abs(rep.transform.scale - c) < 1e-12
        assert abs(rep.residual - res) < 1e-12
        assert np.sign(np.linalg.det(rep.transform.rotation)) == branch
    line = Configuration([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0], [4.0, 0.0]])
    q = Configuration(rng.uniform(-2.0, 2.0, size=(4, 2)))
    assert np.linalg.det(shape_class_membership(line, q).transform.rotation) > 0
    assert _procrustes(line, q)[2] == 1.0


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


FAN5_TRIANGLE_SET = laman_minimal_set(fan_construction(5))


@pytest.mark.parametrize(
    "build,name,rows",
    [
        (lambda g, p: distance_rigidity_matrix(g, p), "distance rigidity matrix", 7),
        (lambda g, p: bearing_rigidity_matrix(g, p), "bearing rigidity matrix", 14),
        (
            # a set built beforehand: the triangle set's own cap is
            # test_index_sets.py's
            lambda g, p: angle_rigidity_matrix(g, p, FAN5_TRIANGLE_SET),
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


@pytest.mark.parametrize(
    "verdict,name,rows",
    [
        (is_infinitesimally_distance_rigid, "distance rigidity matrix", 7),
        (is_infinitesimally_bearing_rigid, "half-size bearing matrix", 7),
        (
            lambda g, p: is_infinitesimally_angle_rigid(g, p, triangle_formation_set(g)),
            "angle rigidity matrix",
            6,
        ),
        (algorithm1_set, "half-size bearing matrix", 7),  # its bearing precheck
    ],
    ids=["distance", "bearing", "angle", "algorithm1"],
)
def test_svd_work_cap(monkeypatch, fan5, pentagon, verdict, name, rows):
    # fan5's matrices have 10 columns, so an SVD takes rows^2 x 10; the
    # cap is inclusive
    work = rows * rows * 10
    monkeypatch.setattr(rigidity, "MAX_SVD_WORK", work)
    verdict(fan5, pentagon)
    monkeypatch.setattr(rigidity, "MAX_SVD_WORK", work - 1)

    def assembled(*args):
        raise AssertionError("a matrix was assembled")

    monkeypatch.setattr(rigidity, "_block_rows", assembled)
    with pytest.raises(
        ValidationError,
        match=f"{name} would be {rows} x 10, whose SVD takes {rows}\\^2 x 10 = {work} ",
    ):
        verdict(fan5, pentagon)
    # a set or matrix that no verdict factors is not bounded by SVD work
    assert len(triangle_formation_set(fan5)) == 6


# ---------------------------------------------------------------------
# the SVD: numpy's own dgesdd, factoring in place the matrix a verdict
# builds
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape",
    [(7, 12), (12, 7), (9, 9), (1, 6), (0, 4), (4, 0)],
    ids=["wide", "tall", "square", "one-row", "empty-rows", "empty-cols"],
)
def test_svd_values_are_numpys(shape):
    assert rigidity._gesdd() is not None  # else both sides run np.linalg.svd
    M = np.random.default_rng(sum(shape)).standard_normal(shape)
    ref = np.linalg.svd(M, compute_uv=False).tobytes()
    assert numerical_rank(M).singular_values.tobytes() == ref
    F = np.array(M, order="F")
    assert numerical_rank(F, _overwrite=True).singular_values.tobytes() == ref


@pytest.mark.parametrize("n", [5, 50, 200])
def test_verdict_values_are_numpys_on_assembled_matrices(n):
    rng = np.random.default_rng(n)
    c = random_construction(rng, n)
    g, T = build_laman(c), laman_minimal_set(c)
    p = nondegenerate_points(rng, g)
    for M, report in (
        (distance_rigidity_matrix(g, p), is_infinitesimally_distance_rigid(g, p)),
        (rigidity._bearing_half_matrix(g, p), is_infinitesimally_bearing_rigid(g, p)),
        (angle_rigidity_matrix(g, p, T), is_infinitesimally_angle_rigid(g, p, T)),
    ):
        assert M.flags.f_contiguous  # the layout LAPACK factors, not copied
        ref = np.linalg.svd(M, compute_uv=False)
        assert numerical_rank(M).singular_values.tobytes() == ref.tobytes()
        # the verdict factored its own matrix in place; the half-size
        # bearing values are padded with the Jacobian's zeros
        assert report.singular_values[: ref.size].tobytes() == ref.tobytes()


def test_numerical_rank_leaves_the_callers_matrix(fan5, pentagon):
    for M in (distance_rigidity_matrix(fan5, pentagon), np.diag([3.0, 2.0, 1.0])):
        before = M.copy()
        numerical_rank(M)
        assert np.array_equal(M, before)


@pytest.mark.parametrize("overwrite", [False, True], ids=["copied", "in-place"])
def test_svd_of_nan_raises_as_numpy(overwrite):
    M = np.ones((4, 6), order="F")
    M[2, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.linalg.svd(M, compute_uv=False)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        numerical_rank(M, _overwrite=overwrite)


def _laman_scenario(path, seed, n):
    """A scenario file at path: a random Laman framework on n vertices
    with its construction and laman_minimal angle set."""
    rng = np.random.default_rng(seed)
    c = random_construction(rng, n)
    g = build_laman(c)
    doc = {
        "schema": 1,
        "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
        "configuration": {"points": nondegenerate_points(rng, g).pts.tolist()},
        "angles": {"source": "laman_minimal"},
        "construction": {"steps": [list(s) for s in c.steps]},
    }
    path.write_text(json.dumps(doc))
    return path


def test_analyze_without_the_lapack_symbol_writes_the_same_report(
    tmp_path, monkeypatch, capsys
):
    laman = _laman_scenario(tmp_path / "laman60.json", 60, 60)
    shipped = Path(__file__).resolve().parent.parent / "scenarios"
    scenarios = sorted(shipped.glob("example*.json")) + [laman]

    def reports(tag):
        for sc in scenarios:
            out = tmp_path / tag / sc.stem
            assert cli.main(["analyze", "--scenario", str(sc), "--out", str(out)]) == 0
        capsys.readouterr()
        return [(tmp_path / tag / sc.stem / "report.txt").read_bytes() for sc in scenarios]

    direct = reports("gesdd")
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(rigidity, "_gesdd", lambda: None)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert reports("numpy") == direct
    assert len(calls) == 3 * len(scenarios)


def test_analyze_report_is_independent_of_the_blas_thread_count(tmp_path, capsys):
    """At n = 400 the singular values' last bits differ between one and
    two OpenBLAS threads; every SVD runs at rigidity.SVD_THREADS."""
    laman = _laman_scenario(tmp_path / "laman400.json", 400, 400)
    _, get_threads, set_threads = rigidity._gesdd()
    default = get_threads()

    def report(threads):
        set_threads(threads)
        try:
            assert cli.main(["analyze", "--scenario", str(laman)]) == 0
        finally:
            set_threads(default)
        return capsys.readouterr().out

    assert report(1) == report(default)
    assert get_threads() == default


# the child's resident memory after the three verdicts at n = 300, in
# n = 300 matrices, and its peak rise over those and the three at
# n = 600, in n = 600 matrices
_VERDICT_ROUNDS = PEAK + """
import resource
import numpy as np
from angleform.graph import build_laman
from angleform.index_sets import laman_minimal_set
from angleform.rigidity import (
    is_infinitesimally_angle_rigid, is_infinitesimally_bearing_rigid,
    is_infinitesimally_distance_rigid, numerical_rank,
)
from angleform.selftest import generic_points, random_construction

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()

rng = np.random.default_rng(5)
rounds = []
for n in (300, 600):
    c = random_construction(rng, n)
    rounds.append((build_laman(c), laman_minimal_set(c), generic_points(rng, n)))
numerical_rank(np.eye(2))  # resolves the LAPACK routine
start = resident()
before = peak()
for g, T, p in rounds:
    is_infinitesimally_distance_rigid(g, p)
    is_infinitesimally_bearing_rigid(g, p)
    is_infinitesimally_angle_rigid(g, p, T)
    if g.n == 300:
        print((resident() - start) / (g.m * 2 * g.n * 8))
rise = peak() - before
print(rise * 1024 / (g.m * 2 * g.n * 8))
"""


def test_verdicts_leave_no_matrix_resident():
    """Each verdict factors its matrix where it was built, and every
    matrix from n = 300 (597 x 600, 2.87 MB) up has a mapping of its
    own, unmapped when its verdict is done. Carved from the heap under
    glibc's raised mmap threshold, the smaller angle matrix stayed
    resident: 1.43 n = 300 matrices after the first round, against 0.55,
    and a peak rise of 1.44 n = 600 matrices over both, against 1.26. A
    copy into LAPACK's layout would put one verdict's rise at 2.2."""
    env = {**os.environ, "PYTHONPATH": str(Path(rigidity.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _VERDICT_ROUNDS],
        capture_output=True, text=True, env=env, check=True,
    )
    held, rise = map(float, proc.stdout.split())
    assert held <= 0.8
    assert rise <= 1.36


def test_a_large_matrix_is_the_zeros_construction_in_a_private_mapping(monkeypatch):
    """From MAPPED_BYTES up, _block_rows fills a page-aligned mapping of
    its own with the bits of the np.zeros construction, -0.0 included,
    and the mapping is private: a shared one (shmem) gets no huge pages."""
    n, k = 300, 600
    rng = np.random.default_rng(9)
    at = rng.integers(n, size=(2, k))
    row = rng.standard_normal((k, 2))
    row[rng.random((k, 2)) < 0.3] = -0.0
    M = rigidity._block_rows(n, at, (row, -row))
    assert M.nbytes >= rigidity.MAPPED_BYTES
    monkeypatch.setattr(rigidity, "MAPPED_BYTES", float("inf"))
    ref = rigidity._block_rows(n, at, (row, -row))
    assert np.array_equal(M.view(np.uint64), ref.view(np.uint64))
    assert M.flags.f_contiguous and M.flags.writeable
    addr = M.ctypes.data
    assert addr % mmap.PAGESIZE == 0  # np.zeros data sits past malloc's header
    with open("/proc/self/maps") as fh:
        spans = [line.split() for line in fh]
    (perms,) = [
        s[1] for s in spans
        if int(s[0].split("-")[0], 16) <= addr < int(s[0].split("-")[1], 16)
    ]
    assert perms == "rw-p"
