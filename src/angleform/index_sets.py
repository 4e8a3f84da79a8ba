"""Constructors for angle index sets.

Five constructors with distinct provenance tags:

* full_angle_set: every angle at every vertex (both incident edges).
* triangle_formation_set: for each graph triangle a < b < c, the two
  triples (a, b, c) and (b, a, c), apexes at the two smaller labels.
* laman_minimal_set: the triangle set of a triangulated Laman graph,
  which has exactly 2n - 4 triples (n - 2 triangles, two apexes each).
* laman_global_set: the minimal set plus one disambiguating triple per
  insertion after the first, 3n - 7 triples total for n >= 4.
* algorithm1_set: a per-vertex greedy cover that handles collinear
  bearing classes, 2m - n triples on a framework with m edges.
"""

from itertools import combinations
from typing import Optional

import numpy as np

from .errors import NotInfinitesimallyAngleRigid
from .geometry import perp
from .graph import Graph, LamanConstruction, build_laman, neighbors
from .rigidity import (
    COLLINEAR_EPS,
    AngleIndexSet,
    Configuration,
    _triangles,
    bearing,
    check_matrix_size,
    is_infinitesimally_angle_rigid,
)


def full_angle_set(g: Graph) -> AngleIndexSet:
    """All triples (i, j, k) with j < k both adjacent to apex i.

    The set has sum C(deg, 2) triples; it is refused (ValidationError)
    before it is built when its angle rigidity matrix would be too large.
    """
    deg = np.bincount(np.asarray(g.edges, dtype=np.int64).ravel(), minlength=g.n + 1)
    w = int(np.sum(deg * (deg - 1) // 2))
    check_matrix_size("angle source 'full' angle rigidity matrix", w, 2 * g.n)
    triples = (
        (i, j, k)
        for i in range(1, g.n + 1)
        for j, k in combinations(neighbors(g, i), 2)
    )
    return AngleIndexSet(tuple(triples), "full")


def _two_apex_triples(g: Graph) -> list:
    return sorted(
        t for a, b, c in _triangles(g) for t in ((a, b, c), (b, a, c))
    )


def triangle_formation_set(g: Graph) -> AngleIndexSet:
    """Two angle triples per graph triangle, apexes at the two smaller
    labels."""
    return AngleIndexSet(tuple(_two_apex_triples(g)), "triangle_formation")


def laman_minimal_set(construction: LamanConstruction) -> AngleIndexSet:
    """Triangle set of the built graph; 2n - 4 triples."""
    g = build_laman(construction)
    return AngleIndexSet(tuple(_two_apex_triples(g)), "laman_minimal")


def laman_global_set(construction: LamanConstruction) -> AngleIndexSet:
    """Minimal set plus one extra triple per insertion after the first.

    For a step inserting v on the edge (i, j) with i < j, the extra triple
    is (i, k, v) reordered canonically, where k is the smallest common
    neighbor of i and j among vertices already present. The base triangle
    contributes no extra triple; 3n - 7 triples total for n >= 4.
    """
    g = build_laman(construction)
    triples = set(_two_apex_triples(g))
    adj = {v: set() for v in (1, 2)}
    adj[1].add(2)
    adj[2].add(1)
    for step_no, (v, i, j) in enumerate(construction.steps):
        if step_no > 0:
            a, b = (i, j) if i < j else (j, i)
            common = sorted(adj[a] & adj[b])
            # a common neighbor always exists: the edge (a, b) was created
            # by an earlier insertion or carries the base triangle
            k = common[0]
            triples.add((a, min(k, v), max(k, v)))
        adj[v] = {i, j}
        adj[i].add(v)
        adj[j].add(v)
    return AngleIndexSet(tuple(sorted(triples)), "laman_global")


def algorithm1_set(
    g: Graph, p: Configuration, seed: Optional[int] = None
) -> AngleIndexSet:
    """Per-vertex greedy angle cover of an infinitesimally angle rigid
    framework.

    At each vertex a reference neighbor is selected, neighbors whose
    bearings are collinear with the reference form one class, and every
    angle pairs the reference (or a collinear classmate) with a
    non-collinear neighbor. Selection is smallest-index when seed is
    None, otherwise seeded-uniform. Output size is 2m - n.

    Raises NotInfinitesimallyAngleRigid when the framework fails the
    full-set rigidity test.
    """
    report = is_infinitesimally_angle_rigid(g, p, full_angle_set(g))
    if not report.verdict:
        raise NotInfinitesimallyAngleRigid(
            f"nullspace dimension {report.nullspace_dim} != 4"
        )
    rng = np.random.default_rng(seed) if seed is not None else None

    def pick(seq):
        if rng is None:
            return seq[0]
        return int(seq[int(rng.integers(len(seq)))])

    triples = []
    for i in range(1, g.n + 1):
        nb = list(neighbors(g, i))
        if len(nb) < 2:
            raise NotInfinitesimallyAngleRigid(
                f"vertex {i} has fewer than two neighbors"
            )
        j_ref = pick(nb)
        g_ref = bearing(p, i, j_ref)
        cls = []  # bearings collinear with the reference, reference first
        rest = []
        for k in nb:
            if k == j_ref:
                continue
            if abs(g_ref @ perp(bearing(p, i, k))) <= COLLINEAR_EPS:
                cls.append(k)
            else:
                rest.append(k)
        if not rest:
            raise NotInfinitesimallyAngleRigid(
                f"all bearings at vertex {i} are collinear"
            )
        for k in rest:
            triples.append((i, min(j_ref, k), max(j_ref, k)))
        if cls:
            k_pair = pick(rest)
            for j in cls:
                triples.append((i, min(j, k_pair), max(j, k_pair)))
    return AngleIndexSet(tuple(sorted(triples)), "algorithm1")
