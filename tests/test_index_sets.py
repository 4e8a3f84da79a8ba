import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleform import cli, index_sets, rigidity
from angleform.errors import (
    CoincidentPoints,
    NotInfinitesimallyAngleRigid,
    ValidationError,
)
from angleform.formation import IntegratorConfig
from angleform.graph import (
    Graph,
    LamanConstruction,
    build_laman,
    neighbors,
)
from angleform.index_sets import (
    algorithm1_set,
    full_angle_set,
    laman_global_set,
    laman_minimal_set,
    triangle_formation_set,
)
from angleform.rigidity import (
    Configuration,
    bearing,
    collinear,
    is_infinitesimally_angle_rigid,
    is_infinitesimally_bearing_rigid,
    is_strongly_nondegenerate,
)
from helpers import (
    angle_rank_mod_p,
    disjoint_union,
    equivalence_frameworks,
    fan_construction,
    generic_points,
    nondegenerate_points,
    random_connected_graph,
    random_construction,
    triangle_count,
    two_pass_triangle_formation_set,
)

K3 = Graph(3, [(1, 2), (1, 3), (2, 3)])


def test_full_set_k3():
    T = full_angle_set(K3)
    assert T.triples == ((1, 2, 3), (2, 1, 3), (3, 1, 2))


def test_full_set_star():
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    T = full_angle_set(star)
    assert T.triples == ((1, 2, 3), (1, 2, 4), (1, 3, 4))


def test_triangle_set_k3():
    T = triangle_formation_set(K3)
    assert T.triples == ((1, 2, 3), (2, 1, 3))


def test_fan_lists_match_known_values(fan5):
    # the documented minimal and global sets of the 5-vertex fan
    c = fan_construction(5)
    assert build_laman(c).edges == fan5.edges
    assert laman_minimal_set(c).triples == (
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 1, 3), (3, 1, 4), (4, 1, 5),
    )
    assert laman_global_set(c).triples == (
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (1, 4, 5),
        (2, 1, 3), (3, 1, 4), (4, 1, 5),
    )
    assert triangle_formation_set(fan5).triples == laman_minimal_set(c).triples


@pytest.mark.parametrize("n", range(3, 12))
def test_counts(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(5):
        c = random_construction(rng, n)
        assert len(laman_minimal_set(c)) == 2 * n - 4
        want = 3 * n - 7 if n >= 4 else 2 * n - 4
        assert len(laman_global_set(c)) == want
        # global extends minimal
        assert set(laman_minimal_set(c).triples) <= set(
            laman_global_set(c).triples
        )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_laman_sets_from_steps_equal_the_listed_triangles(seed, n):
    """The Laman sets read off the steps equal those built from the
    graph: the two-apex triples of every listed triangle, and for each
    step after the first the smallest common neighbor of its attachment
    pair among the vertices inserted before it. Labels are inserted out
    of order."""
    rng = np.random.default_rng(seed)
    perm = [1, 2, *(int(v) for v in rng.permutation(np.arange(3, n + 1)))]
    steps = tuple(
        tuple(perm[x - 1] for x in step) for step in random_construction(rng, n).steps
    )
    c = LamanConstruction(steps)
    g = build_laman(c)
    tstar = sorted(
        t
        for block in rigidity._triangles(g)
        for a, b, d in block.tolist()
        for t in ((a, b, d), (b, a, d))
    )
    assert laman_minimal_set(c).triples == tuple(tstar)
    extra = []
    for r, (v, i, j) in enumerate(steps[1:], 1):
        present = {1, 2} | {step[0] for step in steps[:r]}
        k = min(x for x in present if g.has_edge(i, x) and g.has_edge(j, x))
        extra.append((min(i, j), min(k, v), max(k, v)))
    assert laman_global_set(c).triples == tuple(sorted(tstar + extra))


def test_minimal_set_is_rigid_generic():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        c = random_construction(rng, n)
        g = build_laman(c)
        p = nondegenerate_points(rng, g)
        assert is_infinitesimally_angle_rigid(g, p, laman_minimal_set(c)).verdict


def test_algorithm1_fan(fan5, pentagon):
    T = algorithm1_set(fan5, pentagon)
    assert len(T) == 2 * fan5.m - fan5.n  # 9 on the fan
    assert set(T.triples) <= set(full_angle_set(fan5).triples)
    assert is_infinitesimally_angle_rigid(fan5, pentagon, T).verdict


def test_algorithm1_deterministic_and_seeded(fan5, pentagon):
    assert algorithm1_set(fan5, pentagon).triples == algorithm1_set(
        fan5, pentagon
    ).triples
    a = algorithm1_set(fan5, pentagon, seed=5)
    b = algorithm1_set(fan5, pentagon, seed=5)
    assert a.triples == b.triples
    assert len(a) == 2 * fan5.m - fan5.n


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize(
    "pts, pair",
    [
        # points 3 and 4 coincide, and so do 4 and 5: edge (3, 4) comes first
        ([[0, 0], [1, 0], [1, 1], [1, 1], [1, 1]], (3, 4)),
        # edge (1, 5) comes before edge (2, 3), the smaller label first
        ([[0, 0], [1, 0], [1, 0], [0, 1], [0, 0]], (1, 5)),
    ],
)
def test_algorithm1_names_the_first_coincident_edge(fan5, seed, pts, pair):
    with pytest.raises(CoincidentPoints) as err:
        algorithm1_set(fan5, Configuration(pts), seed)
    assert err.value.pair == pair


def _scalar_algorithm1(g, p, seed):
    """algorithm1_set's cover of a bearing rigid framework, one neighbor
    at a time, with bearing()."""
    rng = None if seed is None else np.random.default_rng(seed)

    def pick(seq):
        return seq[0] if rng is None else seq[int(rng.integers(len(seq)))]

    triples = []
    for i in range(1, g.n + 1):
        nb = neighbors(g, i)
        j_ref = pick(nb)
        cls = [k for k in nb if k != j_ref
               and collinear(bearing(p, i, j_ref), bearing(p, i, k))]
        rest = [k for k in nb if k != j_ref and k not in cls]
        triples += [(i, *sorted((j_ref, k))) for k in rest]
        if cls:
            k_pair = pick(rest)
            triples += [(i, *sorted((j, k_pair))) for j in cls]
    return tuple(sorted(triples))


def test_algorithm1_matches_the_scalar_cover():
    """Bearings from one vectorized call give the cover of the loop over
    neighbors, collinear classes included."""
    rng = np.random.default_rng(36)
    tried = 0
    while tried < 30:
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n, int(rng.integers(n - 2, (n - 1) * (n - 2) // 2 + 1)))
        # distinct points on a coarse grid make collinear classes common
        cells = rng.choice(25, n, replace=False)
        p = Configuration(np.column_stack([cells % 5, cells // 5]) - 2.0)
        if not is_infinitesimally_bearing_rigid(g, p).verdict:
            continue
        tried += 1
        for seed in (None, tried):
            assert algorithm1_set(g, p, seed).triples == _scalar_algorithm1(g, p, seed)


SQUARE = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
UNIT_SQUARE = Configuration([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _algorithm1_accepts(g, p) -> bool:
    try:
        algorithm1_set(g, p)
    except NotInfinitesimallyAngleRigid as exc:
        assert str(exc).startswith("not infinitesimally bearing rigid")
        return False
    return True


def test_algorithm1_rejects_flexible():
    with pytest.raises(NotInfinitesimallyAngleRigid) as err:
        algorithm1_set(SQUARE, UNIT_SQUARE)
    assert str(err.value) == (
        "not infinitesimally bearing rigid (nullspace dimension 4 != 3)"
    )
    # two rigid triangles: each component adds two translations and a
    # scaling to the bearing nullspace, and a rotation to the angle one
    two = disjoint_union(K3, K3)
    p = Configuration([[0, 0], [1, 0], [0, 1], [3, 0], [4, 0], [3, 1]])
    with pytest.raises(NotInfinitesimallyAngleRigid) as err:
        algorithm1_set(two, p)
    assert str(err.value).endswith("(nullspace dimension 6 != 3)")
    assert is_infinitesimally_angle_rigid(two, p, full_angle_set(two)).nullspace_dim == 8


def test_algorithm1_precheck_matches_full_set_angle_verdict():
    # the bearing precheck must accept exactly the frameworks that the
    # full-set angle rigidity test accepts
    verdicts = []
    for g, p in list(equivalence_frameworks()) + [(SQUARE, UNIT_SQUARE)]:
        angle = is_infinitesimally_angle_rigid(g, p, full_angle_set(g)).verdict
        assert _algorithm1_accepts(g, p) == angle
        verdicts.append(angle)
    assert any(verdicts) and not all(verdicts)


def test_algorithm1_collinear_bearings():
    # vertex 1 sees vertices 2 and 3 in exactly opposite directions;
    # the collinear class must pair them through a non-collinear neighbor
    g = Graph(
        4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    p = Configuration([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.3, 1.1]])
    T = algorithm1_set(g, p)
    assert len(T) == 2 * g.m - g.n
    assert is_infinitesimally_angle_rigid(g, p, T).verdict
    # no triple at apex 1 pairs the two collinear neighbors 2 and 3
    assert (1, 2, 3) not in T.triples


K4 = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])


# apex 1 sees 2 and 3 on nearly opposite rays, |g_12 x g_13| within 3e-17
# of COLLINEAR_EPS: there a BLAS dot product g_12 . perp(g_13) and the two
# products of the cross product can round to opposite sides of it
@pytest.mark.parametrize(
    "pts",
    [
        [[0.275, -0.538], [-0.9823739506623467, -0.7480246456599926],
         [0.9398829725097045, -0.4269417014783186], [0.575, 0.562]],
        [[0.229, -0.282], [0.5881036096945899, -1.149317058369055],
         [-0.1696241809034704, 0.6807682419896544], [0.529, 0.8180000000000001]],
    ],
)
def test_algorithm1_classes_agree_with_the_nondegeneracy_test(pts):
    p = Configuration(pts)
    nd = is_strongly_nondegenerate(K4, p)
    assert nd.witness in (None, (1, 2, 3))
    # 3 joins the class of the reference neighbor 2 (and is paired with
    # 4, not 2) exactly when the triangle (1, 2, 3) is collinear
    assert ((1, 2, 3) in algorithm1_set(K4, p).triples) == nd.ok


def test_index_sets_validate_against_graph(fan5, pentagon):
    for T in (
        full_angle_set(fan5),
        triangle_formation_set(fan5),
        algorithm1_set(fan5, pentagon),
    ):
        T.validate_for(fan5)  # must not raise


def test_triangle_set_is_refused_before_it_is_listed(monkeypatch):
    def listing(triples):
        raise AssertionError("the triples were listed")

    k6 = Graph(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
    monkeypatch.setattr(index_sets, "AngleIndexSet", listing)
    # 20 triangles: 40 triples x 12 columns
    monkeypatch.setattr(rigidity, "MAX_MATRIX_ENTRIES", 479)
    with pytest.raises(
        ValidationError, match="'triangle_formation'.* at least 40 x 12 = 480"
    ):
        triangle_formation_set(k6)


def _set_or_refusal(build, g):
    try:
        return build(g)
    except ValidationError as exc:
        return str(exc)


def _refused_rows(message, least):
    """The row count of a triangle-set refusal, its columns, its entries
    and its cap, the count said to be a lower bound exactly when least."""
    head = "angle source 'triangle_formation' angle rigidity matrix would be "
    head += "at least " if least else ""
    assert message.startswith(head), message
    rows, _, cols, _, entries, *_, cap = message[len(head) :].split()
    return int(rows), int(cols), int(entries), int(cap)


@pytest.mark.parametrize("chunk", [3, rigidity.TRIANGLE_CHUNK])
def test_triangle_set_in_one_pass_matches_two_passes(monkeypatch, chunk):
    """The one-pass build gives the set of counting first and listing
    after, and refuses exactly where that refuses, with a lower bound
    between the cap and the exact size, at caps below, at and above each
    graph's size, whatever the chunking."""
    monkeypatch.setattr(rigidity, "TRIANGLE_CHUNK", chunk)
    rng = np.random.default_rng(19)
    graphs = [Graph(n, [(i, j) for i in range(1, n + 1)
                                   for j in range(i + 1, n + 1)]) for n in (1, 3, 6, 9)]
    for n in (4, 7, 12):
        for extra in (0, n, 3 * n):
            graphs.append(
                random_connected_graph(rng, n, min(extra, n * (n - 1) // 2 - n + 1))
            )
    refused = kept = 0
    for g in graphs:
        size = 2 * triangle_count(g) * 2 * g.n
        for cap in sorted({0, size // 3, size - 1, size, size + 1, 10**8}):
            monkeypatch.setattr(rigidity, "MAX_MATRIX_ENTRIES", max(cap, 0))
            got = _set_or_refusal(triangle_formation_set, g)
            want = _set_or_refusal(two_pass_triangle_formation_set, g)
            assert isinstance(got, str) == isinstance(want, str)
            if isinstance(got, str):
                rows, cols, entries, limit = _refused_rows(got, least=True)
                exact = _refused_rows(want, least=False)[0]
                assert (cols, limit) == (2 * g.n, max(cap, 0))
                assert rows % 2 == 0 and rows * cols == entries
                assert limit < entries and rows <= exact
            else:
                assert got == want
            refused += isinstance(got, str)
            kept += not isinstance(got, str)
    assert refused and kept


def _explicit_set(g, p, rows):
    """The angle set that the scenario source 'explicit' makes of rows."""
    sc = cli.Scenario(
        path="", digest="", graph=g, base=p, perturbation=None,
        angle_source="explicit", explicit_triples=tuple(rows), construction=None,
        maneuver=None, integrator=IntegratorConfig(),
    )
    return cli.resolve_angle_set(sc)


def test_angle_ranks_are_the_exact_generic_ranks():
    """Every set constructor's angle rank at generic float points is the
    generic rank in exact arithmetic (helpers.angle_rank_mod_p): on Laman
    frameworks, for all six sources (the explicit one a random half of
    the full set, wings in either order), and on sparser graphs, whose
    full and triangle sets are mostly flexible."""
    rng = np.random.default_rng(28)
    verdicts = set()
    for _ in range(25):
        n = int(rng.integers(4, 30))
        c = random_construction(rng, n)
        g = build_laman(c)
        p = nondegenerate_points(rng, g)
        full = full_angle_set(g)
        half = [t for t in full.triples if rng.random() < 0.5]
        rows = [[i, *rng.permutation([j, k]).tolist()] for i, j, k in half]
        sparse = random_connected_graph(rng, n, int(rng.integers(0, n - 2)))
        q = generic_points(rng, n)
        for h, x, T in (
            (g, p, full),
            (g, p, triangle_formation_set(g)),
            (g, p, laman_minimal_set(c)),
            (g, p, laman_global_set(c)),
            (g, p, algorithm1_set(g, p)),
            (g, p, _explicit_set(g, p, rows)),
            (sparse, q, full_angle_set(sparse)),
            (sparse, q, triangle_formation_set(sparse)),
        ):
            report = is_infinitesimally_angle_rigid(h, x, T)
            rank = angle_rank_mod_p(n, T.triples, rng)
            assert (report.rank, report.verdict) == (rank, rank == 2 * n - 4), (h, T)
            verdicts.add(report.verdict)
    assert verdicts == {True, False}
