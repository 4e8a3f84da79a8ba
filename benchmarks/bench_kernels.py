"""Compare the C kernel backend with the pure-numpy one.

Times single control evaluations and full fixed-step integrations on a
small pentagon formation and on a larger random triangulated framework.
Run from the repo root:

    python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from angleform import _kernels
from angleform.formation import FormationSpec, IntegratorConfig, PerturbationSpec
from angleform.graph import Graph, LamanConstruction, build_laman
from angleform.index_sets import laman_minimal_set, triangle_formation_set
from angleform.rigidity import Configuration

EDGE_EPS = 1e-9


def _random_laman(rng, n):
    steps = []
    edges = [(1, 2)]
    for v in range(3, n + 1):
        i, j = edges[int(rng.integers(len(edges)))]
        steps.append((v, i, j))
        edges.append((min(v, i), max(v, i)))
        edges.append((min(v, j), max(v, j)))
    return LamanConstruction(tuple(steps))


def _cases():
    fan = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)])
    pent = Configuration.regular_polygon(5)
    spec_small = FormationSpec(fan, pent, triangle_formation_set(fan))

    rng = np.random.default_rng(0)
    n = 40
    cons = _random_laman(rng, n)
    g = build_laman(cons)
    # spread the target so no triangle of the random construction is
    # near-collinear: unit circle with jitter
    ang = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    pts += rng.uniform(-0.05, 0.05, size=pts.shape)
    spec_large = FormationSpec(g, Configuration(pts), laman_minimal_set(cons))
    return [("pentagon n=5 w=6", spec_small), (f"random Laman n={n} w={2*n-4}", spec_large)]


def _bench_control(backend, spec, pos, repeats):
    args = (pos, spec._tri, spec.target_cosines, -1, -1, 0.0, 0.0, EDGE_EPS)
    backend.eval_control(*args)  # warm (library load)
    t0 = time.perf_counter()
    for _ in range(repeats):
        backend.eval_control(*args)
    return (time.perf_counter() - t0) / repeats


def _bench_integrate(backend, spec, pos, config):
    args = (
        pos,
        spec._tri,
        spec.target_cosines,
        spec._edges,
        config.h,
        config.n_steps,
        config.record_every,
        -1,
        -1,
        0.0,
        0.0,
        1e9,
        EDGE_EPS,
        config.cost_tol,
        config.grad_tol,
    )
    backend.integrate(*args)  # warm
    t0 = time.perf_counter()
    times, traj, n_rec, status, t_stop = backend.integrate(*args)
    return time.perf_counter() - t0, n_rec, status


def main():
    backends = [_kernels.make_numpy_backend()]
    try:
        backends.append(_kernels.make_c_backend())
    except (OSError, RuntimeError) as exc:
        print(f"skipping the C backend: {exc}")

    config = IntegratorConfig(t_final=5.0)
    print(f"fixed-step integration: h={config.h}, t_final={config.t_final} "
          f"({config.n_steps} steps)")
    header = f"{'case':<28}{'metric':<16}" + "".join(
        f"{b.name:>12}" for b in backends
    )
    print(header)
    print("-" * len(header))

    for label, spec in _cases():
        pos = PerturbationSpec(0.2, 1).sample(spec.target).pts
        ctrl = [
            _bench_control(b, spec, pos, repeats=2000) for b in backends
        ]
        row = f"{label:<28}{'control (us)':<16}"
        row += "".join(f"{1e6 * t:>12.2f}" for t in ctrl)
        print(row)

        integ = [_bench_integrate(b, spec, pos, config)[0] for b in backends]
        row = f"{'':<28}{'integrate (s)':<16}"
        row += "".join(f"{t:>12.4f}" for t in integ)
        print(row)
        if len(backends) > 1:
            row = f"{'':<28}{'speedup':<16}{'':>12}"
            row += "".join(f"{integ[0] / t:>11.1f}x" for t in integ[1:])
            print(row)


if __name__ == "__main__":
    main()
