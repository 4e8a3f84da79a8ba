"""Constructors for angle index sets.

Five constructors:

* full_angle_set: every angle at every vertex (both incident edges).
* triangle_formation_set: for each graph triangle a < b < c, the two
  triples (a, b, c) and (b, a, c), apexes at the two smaller labels.
* laman_minimal_set: the triangle set of a triangulated Laman graph,
  which has exactly 2n - 4 triples (n - 2 triangles, two apexes each).
* laman_global_set: the minimal set plus one disambiguating triple per
  insertion after the first, 3n - 7 triples total for n >= 4.
* algorithm1_set: a per-vertex greedy cover that handles collinear
  bearing classes (rigidity.collinear), 2m - n triples on a framework
  with m edges. It first requires the framework to be infinitesimally
  bearing rigid, which in the plane is equivalent to infinitesimal angle
  rigidity under the full angle set, and costs one SVD of an m x 2n
  matrix instead of one of the full set's sum C(deg, 2) x 2n.

Each hands its triples to AngleIndexSet, which canonicalizes them into
its one (w, 3) int64 store; triangle_formation_set hands over its
triangles as the int64 blocks rigidity._triangles yields.
"""

from itertools import combinations
from typing import Optional

import numpy as np

from .errors import NotInfinitesimallyAngleRigid
from .graph import Graph, LamanConstruction, neighbors, replay
from .rigidity import (
    AngleIndexSet,
    Configuration,
    _bearing_terms,
    _triangles,
    check_matrix_size,
    collinear,
    is_infinitesimally_bearing_rigid,
)


def full_angle_set(g: Graph) -> AngleIndexSet:
    """All triples (i, j, k) with j < k both adjacent to apex i.

    The set has sum C(deg, 2) triples; it is refused (ValidationError)
    before it is built when its angle rigidity matrix would be too large.
    """
    deg = np.bincount(g.edge_array.ravel(), minlength=g.n)
    w = int(np.sum(deg * (deg - 1) // 2))
    check_matrix_size("angle source 'full' angle rigidity matrix", w, 2 * g.n)
    triples = (
        (i, j, k)
        for i in range(1, g.n + 1)
        for j, k in combinations(neighbors(g, i), 2)
    )
    return AngleIndexSet(tuple(triples))


def _two_apex(a: int, b: int, c: int) -> tuple:
    """The triples of triangle a < b < c with apexes at a and b."""
    return (a, b, c), (b, a, c)


def triangle_formation_set(g: Graph) -> AngleIndexSet:
    """Two angle triples per graph triangle, apexes at the two smaller
    labels.

    The triangles are kept block by block (rigidity._triangles), and
    the first block that takes their angle rigidity matrix past
    rigidity.MAX_MATRIX_ENTRIES refuses the set (ValidationError) with a
    lower bound on its size, unlisted.
    """
    what = "angle source 'triangle_formation' angle rigidity matrix"
    count, blocks = 0, [np.empty((0, 3), dtype=np.int64)]
    for block in _triangles(g):
        count += len(block)
        check_matrix_size(what, 2 * count, 2 * g.n, least=True)
        blocks += block, block[:, [1, 0, 2]]  # apexes at a and at b
    return AngleIndexSet(np.concatenate(blocks))


def laman_minimal_set(construction: LamanConstruction) -> AngleIndexSet:
    """The two-apex triples of each step's triangle: each step closes one
    triangle and no other exists, so none is listed; 2n - 4 triples."""
    steps = (sorted(step) for step, _ in replay(construction))
    return AngleIndexSet([t for abc in steps for t in _two_apex(*abc)])


def laman_global_set(construction: LamanConstruction) -> AngleIndexSet:
    """Minimal set plus one extra triple per insertion after the first.

    For a step inserting v on the edge (i, j) with i < j, the extra triple
    is (i, k, v) reordered canonically, where k is the smallest common
    neighbor of i and j among vertices already present. The base triangle
    contributes no extra triple; 3n - 7 triples total for n >= 4.
    """
    triples = []
    for (v, i, j), adj in replay(construction):
        triples += _two_apex(*sorted((v, i, j)))
        # empty only at the first step: a later (i, j) is in a triangle
        common = adj[i] & adj[j]
        if common:
            triples.append((min(i, j), min(common), v))
    return AngleIndexSet(triples)


def algorithm1_set(
    g: Graph, p: Configuration, seed: Optional[int] = None, bearing=None
) -> AngleIndexSet:
    """Per-vertex greedy angle cover of an infinitesimally angle rigid
    framework.

    At each vertex a reference neighbor is selected, neighbors whose
    bearings are collinear with the reference form one class, and every
    angle pairs the reference (or a collinear classmate) with a
    non-collinear neighbor. Selection is smallest-index when seed is
    None, otherwise seeded-uniform. Output size is 2m - n.

    Raises NotInfinitesimallyAngleRigid when the framework is not
    infinitesimally bearing rigid: in the plane that is the full-set
    angle rigidity test, decided from the smaller bearing matrix unless
    the caller hands that verdict's RigidityReport over as `bearing`.
    """
    report = is_infinitesimally_bearing_rigid(g, p) if bearing is None else bearing
    if not report.verdict:
        raise NotInfinitesimallyAngleRigid(
            "not infinitesimally bearing rigid "
            f"(nullspace dimension {report.nullspace_dim} != 3)"
        )
    rng = np.random.default_rng(seed) if seed is not None else None

    def pick(seq):
        if rng is None:
            return seq[0]
        return int(seq[int(rng.integers(len(seq)))])

    # each vertex's bearings toward its sorted neighbors, in one call
    arcs = g.arcs
    tail = np.repeat(np.arange(g.n), np.diff(arcs.first))
    gx = _bearing_terms(p, tail, arcs.head)[0]
    triples = []
    for i in range(1, g.n + 1):
        at = slice(arcs.first[i - 1], arcs.first[i])
        nb = (arcs.head[at] + 1).tolist()
        if len(nb) < 2:
            raise NotInfinitesimallyAngleRigid(
                f"vertex {i} has fewer than two neighbors"
            )
        j_ref = pick(nb)
        flat = collinear(gx[at][nb.index(j_ref)], gx[at]).tolist()
        # bearings collinear with the reference's, and the others
        cls = [k for k, f in zip(nb, flat) if f and k != j_ref]
        rest = [k for k, f in zip(nb, flat) if not f]
        if not rest:
            raise NotInfinitesimallyAngleRigid(
                f"all bearings at vertex {i} are collinear"
            )
        for k in rest:
            triples.append((i, j_ref, k))
        if cls:
            k_pair = pick(rest)
            for j in cls:
                triples.append((i, j, k_pair))
    return AngleIndexSet(triples)
