import numpy as np
import pytest

from angleform.errors import InvalidStep, NotAnEdge, VertexOutOfRange
from angleform.graph import (
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
from helpers import (
    fan_construction,
    random_connected_graph,
    random_construction,
    relabeled,
    sort_peel_recognition,
)


def test_graph_canonical_validation():
    Graph(3, ((1, 2), (1, 3), (2, 3)))
    with pytest.raises(ValueError):
        Graph(3, ((2, 1),))  # endpoints out of order
    with pytest.raises(ValueError):
        Graph(3, ((1, 3), (1, 2)))  # not sorted
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (1, 2)))  # duplicate
    with pytest.raises(ValueError):
        Graph(2, ((1, 3),))  # vertex out of range
    with pytest.raises(ValueError):
        Graph(0, ())


def test_from_edges_canonicalizes():
    g = Graph.from_edges(4, [(3, 1), (2, 1), (1, 3), (4, 2)])
    assert g.edges == ((1, 2), (1, 3), (2, 4))
    assert g.m == 3
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(2, 2)])


def test_has_edge_and_neighbors():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (2, 4)])
    assert g.has_edge(3, 2) and g.has_edge(2, 3)
    assert not g.has_edge(1, 4)
    assert neighbors(g, 2) == (1, 3, 4)
    assert neighbors(g, 4) == (2,)
    with pytest.raises(VertexOutOfRange):
        neighbors(g, 5)


def test_edge_index_matches_order():
    g = Graph.from_edges(4, [(1, 2), (1, 4), (3, 4)])
    idx = g.edge_index()
    assert [idx[e] for e in g.edges] == [0, 1, 2]


def test_incidence_matrix():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    H = incidence_matrix(g)
    assert H.shape == (2, 3)
    assert np.array_equal(H, [[1, -1, 0], [0, 1, -1]])
    assert np.array_equal(expanded_incidence(g), np.kron(H, np.eye(2)))


def test_expanded_incidence_differences():
    rng = np.random.default_rng(8)
    g = Graph.from_edges(5, [(1, 2), (1, 3), (2, 5), (3, 4), (4, 5)])
    p = rng.normal(size=(5, 2))
    stacked = expanded_incidence(g) @ p.reshape(-1)
    for r, (i, j) in enumerate(g.edges):
        assert np.allclose(stacked[2 * r : 2 * r + 2], p[i - 1] - p[j - 1])


def test_construction_label_validation():
    LamanConstruction(((3, 1, 2),))
    with pytest.raises(ValueError):
        LamanConstruction(((4, 1, 2),))  # labels must be exactly 3..n
    with pytest.raises(ValueError):
        LamanConstruction(((3, 1, 2), (3, 1, 3)))
    with pytest.raises(ValueError):
        LamanConstruction(((3, 2, 2),))  # degenerate attachment


def test_edge_array_is_the_edges_zero_based_once():
    g = build_laman(fan_construction(5))
    e = g.edge_array
    assert e.dtype == np.int64 and e.shape == (g.m, 2) and not e.flags.writeable
    assert [tuple(r) for r in (e + 1).tolist()] == list(g.edges)
    assert g.edge_array is e
    assert Graph.from_edges(3, []).edge_array.shape == (0, 2)


def test_build_laman_fan():
    g = build_laman(fan_construction(5))
    assert g.edges == (
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5),
    )
    assert g.m == 2 * g.n - 3


def test_build_laman_rejects_missing_edge():
    with pytest.raises(InvalidStep):
        build_laman(LamanConstruction(((3, 1, 2), (4, 2, 3), (5, 1, 4))))
    # (1, 4) never built: 4 attached to (2, 3)


def test_build_laman_out_of_order_labels():
    # 4 inserted on the base edge first, then 3 on (1, 4)
    c = LamanConstruction(((4, 1, 2), (3, 1, 4)))
    g = build_laman(c)
    assert g.edges == ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4))


def test_recognize_fan_and_kite():
    fan = build_laman(fan_construction(6))
    c = recognize_triangulated_laman(fan)
    assert c is not None
    assert build_laman(c).edges == fan.edges

    kite = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    c = recognize_triangulated_laman(kite)
    assert c is not None
    assert build_laman(c).edges == kite.edges


def test_recognize_rejects_non_laman():
    assert recognize_triangulated_laman(
        Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    ) is None  # wrong edge count
    # right edge count, no triangulated build (4-cycle plus chord gives
    # one, so use a 5-cycle with two chords from one vertex: that IS
    # triangulated; take instead K4 minus an edge relabeled so the peel
    # cannot end at (1, 2))
    g = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert recognize_triangulated_laman(g) is None  # (1, 2) missing
    assert recognize_triangulated_laman(
        Graph.from_edges(2, [(1, 2)])
    ).steps == ()


def _steps(c):
    return None if c is None else c.steps


def test_recognition_matches_sort_peel():
    # the heap peel must pick the same vertex as a full re-sort at every
    # step: on triangulated Laman graphs, on the same graphs relabeled at
    # random (most then fail) or with 1 and 2 swapped, and on non-Laman
    # graphs with m = 2n - 3
    rng = np.random.default_rng(31)
    found = {True: 0, False: 0}
    for _ in range(40):
        n = int(rng.integers(3, 40))
        g = build_laman(random_construction(rng, n))
        perm = [int(v) for v in rng.permutation(np.arange(1, n + 1))]
        swap12 = [2, 1] + list(range(3, n + 1))
        other = random_connected_graph(rng, n, n - 2)  # m = 2n - 3
        assert other.m == 2 * n - 3
        for h in (g, relabeled(g, perm), relabeled(g, swap12), other):
            want = _steps(sort_peel_recognition(h))
            assert _steps(recognize_triangulated_laman(h)) == want
            found[want is not None] += 1
    assert found[True] > 40 and found[False] > 40


def test_leader_pair():
    with pytest.raises(ValueError):
        LeaderPair(2, 2)


def test_leader_laplacian():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    L = leader_laplacian(g, LeaderPair(2, 3))
    assert L.shape == (6, 6)
    # quadratic form measures the leader gap only
    p = np.array([5.0, 1.0, 2.0, -1.0, 2.0, -1.0])
    assert abs(p @ L @ p) < 1e-15
    with pytest.raises(NotAnEdge):
        leader_laplacian(g, LeaderPair(1, 3))
    with pytest.raises(VertexOutOfRange):
        leader_laplacian(g, LeaderPair(1, 7))
