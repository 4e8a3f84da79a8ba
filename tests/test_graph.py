import re

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
    loop_canonical_edges,
    random_connected_graph,
    random_construction,
    relabeled,
    sort_peel_recognition,
)


def test_graph_canonical_validation():
    """Graph(n, edges) canonicalizes: endpoints into i < j, edges sorted,
    repeats dropped; it refuses n < 1 and an edge outside 1..n."""
    assert Graph(3, ((1, 2), (1, 3), (2, 3))).edges == ((1, 2), (1, 3), (2, 3))
    assert Graph(3, ((2, 1),)).edges == ((1, 2),)  # endpoints out of order
    assert Graph(3, ((1, 3), (1, 2))).edges == ((1, 2), (1, 3))  # not sorted
    assert Graph(3, ((1, 2), (1, 2))).edges == ((1, 2),)  # a repeat
    with pytest.raises(ValueError, match=r"edge \(1, 3\) violates 1 <= i < j <= 2"):
        Graph(2, ((1, 3),))  # vertex out of range
    with pytest.raises(ValueError, match="need at least one vertex, got n=0"):
        Graph(0, ())


def test_from_edges_canonicalizes():
    """The canonicalization the removed Graph.from_edges gave, now given
    by Graph(n, edges): any order, swapped pairs and repeats build the
    same graph; a self-loop is refused."""
    g = Graph(4, [(3, 1), (2, 1), (1, 3), (4, 2)])
    assert g.edges == ((1, 2), (1, 3), (2, 4)) and g.m == 3
    assert g == Graph(4, iter([(2, 4), (1, 3), (1, 2)]))
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph(3, [(2, 2)])


def test_labels_past_int64_are_out_of_range():
    """A label numpy cannot hold as int64 is refused as any other label
    outside 1..n, with a ValueError, not an OverflowError."""
    for label in (2**63, 10**400, -(2**63) - 1):
        with pytest.raises(ValueError, match="violates 1 <= i < j <= 3"):
            Graph(3, [(1, label)])


@pytest.mark.parametrize(
    "edges,label",
    [
        ([(1.5, 2)], "1.5"),
        ([(1, 2.9)], "2.9"),
        ([(1, 2), (2.0, 3)], "2.0"),
        ([(1, 2), (1, float("nan"))], "nan"),
        ([(1, 2**63), (1, 1.5)], "1.5"),
        (np.array([[1.0, 2.0]]), "1.0"),
        ([("1", 2)], "'1'"),
    ],
    ids=["float", "float-wing", "integral-float", "nan", "past-int64", "array", "str"],
)
def test_graph_refuses_labels_that_are_not_integers(edges, label):
    with pytest.raises(ValueError, match=f"^label {re.escape(label)} is not an integer$"):
        Graph(3, edges)


@pytest.mark.parametrize(
    "edges,row",
    [
        ([(1, 2, 3)], "(1, 2, 3)"),
        ([(1, 2), (2, 3, 1), (3,)], "(2, 3, 1)"),
        ([(1, 2), "12"], "'12'"),
        ([1, 2], "1"),
    ],
    ids=["triple", "ragged", "string", "flat"],
)
def test_graph_refuses_a_row_that_is_not_a_pair(edges, row):
    with pytest.raises(ValueError, match=f"^row {re.escape(row)} is not 2 labels$"):
        Graph(3, edges)


@pytest.mark.parametrize("n", [3.5, 3.0, True, "3", None])
def test_graph_refuses_an_n_that_is_not_an_integer(n):
    """A float or a string n is refused by name, not by numpy's
    UFuncTypeError, and a bool n builds no graph."""
    with pytest.raises(ValueError, match=f"^n={re.escape(repr(n))} is not an integer$"):
        Graph(n, [(1, 2)])


def _outcome(edges_of, n, edges):
    try:
        return edges_of(n, edges)
    except ValueError as exc:
        return type(exc), str(exc)


def test_array_checks_agree_with_the_edge_loop():
    """Graph(n, edges) gives the edges, or the exception and message, of
    the per-edge loop it replaced, on edge lists with swapped pairs,
    repeats, self-loops, labels outside 1..n or past int64, and canonical
    edges out of order."""
    rng = np.random.default_rng(26)
    for _ in range(400):
        n = int(rng.integers(0, 7))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        take = rng.permutation(len(pairs))[: rng.integers(0, len(pairs) + 1)]
        edges = [pairs[k] for k in sorted(take)]
        for _ in range(rng.integers(0, 3)):
            k = int(rng.integers(len(edges) + 1))
            kind = int(rng.integers(6))
            if kind == 0 and edges:  # swapped pair
                edges[k - 1] = edges[k - 1][::-1]
            elif kind == 1 and edges:  # repeat beside the original
                edges.insert(k, edges[k - 1])
            elif kind == 2:  # self-loop
                v = int(rng.integers(0, n + 2))
                edges.insert(k, (v, v))
            elif kind == 3:  # a label outside 1..n
                v = int(rng.choice([-1, 0, n + 1, n + 5, 2**63, 10**30]))
                edges.insert(k, (1, v) if rng.random() < 0.5 else (v, 1))
            elif kind == 4 and len(edges) > 1:  # two canonical edges swapped
                edges[k - 2], edges[k - 1] = edges[k - 1], edges[k - 2]
            elif kind == 5 and edges:  # a repeat elsewhere
                edges.insert(k, edges[int(rng.integers(len(edges)))])
        want = _outcome(loop_canonical_edges, n, tuple(edges))
        got = _outcome(lambda n, e: Graph(n, e).edges, n, tuple(edges))
        assert got == want, (n, edges)


def test_has_edge_and_neighbors():
    g = Graph(4, [(1, 2), (2, 3), (2, 4)])
    assert g.has_edge(3, 2) and g.has_edge(2, 3)
    assert not g.has_edge(1, 4)
    # (1, 5) would have the 0-based key 0 * 4 + 4 of the arc (2, 1)
    assert not g.has_edge(1, 5) and not g.has_edge(5, 1)
    assert neighbors(g, 2) == (1, 3, 4)
    assert neighbors(g, 4) == (2,)
    with pytest.raises(VertexOutOfRange):
        neighbors(g, 5)


def test_incidence_matrix():
    g = Graph(3, [(1, 2), (2, 3)])
    H = incidence_matrix(g)
    assert H.shape == (2, 3)
    assert np.array_equal(H, [[1, -1, 0], [0, 1, -1]])
    assert np.array_equal(expanded_incidence(g), np.kron(H, np.eye(2)))


def test_expanded_incidence_differences():
    rng = np.random.default_rng(8)
    g = Graph(5, [(1, 2), (1, 3), (2, 5), (3, 4), (4, 5)])
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
    assert Graph(3, []).edge_array.shape == (0, 2)


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

    kite = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    c = recognize_triangulated_laman(kite)
    assert c is not None
    assert build_laman(c).edges == kite.edges


def test_recognize_rejects_non_laman():
    assert recognize_triangulated_laman(
        Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    ) is None  # wrong edge count
    # right edge count, no triangulated build (4-cycle plus chord gives
    # one, so use a 5-cycle with two chords from one vertex: that IS
    # triangulated; take instead K4 minus an edge relabeled so the peel
    # cannot end at (1, 2))
    g = Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert recognize_triangulated_laman(g) is None  # (1, 2) missing
    assert recognize_triangulated_laman(
        Graph(2, [(1, 2)])
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
    g = Graph(3, [(1, 2), (2, 3)])
    L = leader_laplacian(g, LeaderPair(2, 3))
    assert L.shape == (6, 6)
    # quadratic form measures the leader gap only
    p = np.array([5.0, 1.0, 2.0, -1.0, 2.0, -1.0])
    assert abs(p @ L @ p) < 1e-15
    with pytest.raises(NotAnEdge):
        leader_laplacian(g, LeaderPair(1, 3))
    with pytest.raises(VertexOutOfRange):
        leader_laplacian(g, LeaderPair(1, 7))
