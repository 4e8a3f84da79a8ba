"""Seeded scenario generation for the three benchmark workloads.

Every input is derived from the workload seed; the program sees only the
scenario JSON files written here.

fan5-cli
    The shipped scenarios example1-3 (n=5) with graph, target, angle
    source, maneuver, h and record_stride unchanged. Only the
    perturbation seed (drawn from the workload seed) and t_final (cut to
    5, so 5 000 RK4 steps each) change; the shipped horizons cost 15-90 s
    per file on the numpy backend. A pass runs simulate, analyze and
    indexset on each file, so the small-n kernel is bound by per-call
    overhead and the maneuver branch and the CSV/report path are covered.
laman-flow
    CLI simulate on two random triangulated Laman formations (n=100 and
    n=200) with the laman_minimal angle set and the construction block.
    The same kernel, but bound by per-triple arithmetic, and CSVs large
    enough that series post-processing and CSV emission show.
laman-analyze
    CLI analyze on random triangulated Laman frameworks without a
    construction block (so the graph is recognized) at n = 50..1000, and
    CLI indexset with source algorithm1 at n = 100..400, which builds the
    tall full-set rigidity matrix. No kernel work at all.

Random frameworks grow from the edge (1, 2) by vertex insertion on a
uniformly chosen edge. The new vertex sits at the apex of a
near-equilateral triangle on its attachment edge (angle 50-70 degrees at
the first endpoint, side 0.8-1.2 times the edge), so no triangle is near
collinear.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from angleform import cli
from angleform.rigidity import is_strongly_nondegenerate

WORKLOADS = ("fan5-cli", "laman-flow", "laman-analyze")
# workloads whose times are scaled by the calibration loop (calibration.py):
# they run small numpy arrays from Python, as the loop does
CALIBRATED = ("fan5-cli", "laman-flow")

# sizes per scale; "small" is the self-check's reduced run
FAN5_T_FINAL = {"full": 5.0, "small": 0.2}
FLOW_SIZES = {"full": (100, 200), "small": (20, 40)}
FLOW_T_FINAL = {"full": 2.0, "small": 0.1}
ANALYZE_SIZES = {"full": (50, 100, 200, 400, 1000), "small": (50, 100)}
ALGORITHM1_SIZES = {"full": (100, 200, 400), "small": (100,)}
# every size that can carry a per-size metric suffix
SUFFIX_SIZES = ANALYZE_SIZES["full"]

FLOW_AMPLITUDE = 0.1
FLOW_H = 1e-3
FLOW_STRIDE = 0.01


@dataclass
class Call:
    """One CLI invocation plus what its output must satisfy."""

    verb: str
    scenario: Path
    out: Path
    n: int
    expect: dict = field(default_factory=dict)  # report key -> required text

    def argv(self):
        return [self.verb, "--scenario", str(self.scenario), "--out", str(self.out)]


def random_laman(rng, n):
    """(steps, edges, points) of a random near-equilateral Laman framework."""
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    edges = [(1, 2)]
    steps = []
    for v in range(3, n + 1):
        i, j = edges[int(rng.integers(len(edges)))]
        a, b = pts[i - 1], pts[j - 1]
        base = b - a
        length = math.hypot(base[0], base[1])
        along = base / length
        normal = np.array([-along[1], along[0]]) * (1.0 if rng.random() < 0.5 else -1.0)
        theta = math.radians(rng.uniform(50.0, 70.0))
        side = length * rng.uniform(0.8, 1.2)
        pts.append(a + side * (math.cos(theta) * along + math.sin(theta) * normal))
        steps.append((v, i, j))
        edges += [(min(v, i), max(v, i)), (min(v, j), max(v, j))]
    return steps, sorted(edges), np.array(pts)


def _write_checked(path, doc):
    """Write a scenario and require it to load and be strongly nondegenerate."""
    path.write_text(json.dumps(doc))
    sc = cli.load_scenario(path)
    if not is_strongly_nondegenerate(sc.graph, sc.base).ok:
        raise RuntimeError(f"generated framework {path.name} is degenerate")
    return sc


def _expected_samples(doc):
    """Recorded samples the scenario asks for: t_final / record_stride + 1."""
    integ = doc["integrator"]
    return str(round(integ["t_final"] / integ["record_stride"]) + 1)


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _fan5(rng, root, inp, out, scale):
    calls, warmup = [], []
    for k in (1, 2, 3):
        doc = json.loads((root / "scenarios" / f"example{k}.json").read_text())
        doc["configuration"]["perturbation"]["seed"] = _seed(rng)
        doc["integrator"]["t_final"] = FAN5_T_FINAL[scale]
        path = inp / f"example{k}.json"
        sc = _write_checked(path, doc)
        for verb in ("simulate", "analyze", "indexset"):
            call = Call(verb, path, out / f"{verb}-{k}", sc.graph.n)
            if verb == "simulate":
                call.expect["samples"] = _expected_samples(doc)
            calls.append(call)
            if k == 1:
                warmup.append(call)
    return calls, warmup


def _laman_doc(steps, edges, pts, source, with_construction):
    doc = {
        "schema": 1,
        "graph": {"n": len(pts), "edges": [list(e) for e in edges]},
        "configuration": {"points": pts.tolist()},
        "angles": {"source": source},
    }
    if with_construction:
        doc["construction"] = {"steps": [list(s) for s in steps]}
    return doc


def _laman_flow(rng, root, inp, out, scale):
    calls = []
    for n in FLOW_SIZES[scale]:
        steps, edges, pts = random_laman(rng, n)
        doc = _laman_doc(steps, edges, pts, "laman_minimal", True)
        doc["configuration"]["perturbation"] = {
            "amplitude": FLOW_AMPLITUDE,
            "seed": _seed(rng),
        }
        doc["integrator"] = {
            "h": FLOW_H,
            "t_final": FLOW_T_FINAL[scale],
            "record_stride": FLOW_STRIDE,
        }
        path = inp / f"laman{n}.json"
        _write_checked(path, doc)
        call = Call("simulate", path, out / f"simulate-{n}", n)
        call.expect["samples"] = _expected_samples(doc)
        calls.append(call)
    return calls, calls[:1]


def _laman_analyze(rng, root, inp, out, scale):
    calls = []
    for n in ANALYZE_SIZES[scale]:
        steps, edges, pts = random_laman(rng, n)
        path = inp / f"laman{n}.json"
        _write_checked(path, _laman_doc(steps, edges, pts, "laman_minimal", False))
        call = Call("analyze", path, out / f"analyze-{n}", n)
        call.expect.update(angle_rigid="true", angle_nullspace_dim="4", witness_satisfied="true")
        calls.append(call)
        if n in ALGORITHM1_SIZES[scale]:
            a1 = inp / f"laman{n}-algorithm1.json"
            _write_checked(a1, _laman_doc(steps, edges, pts, "algorithm1", False))
            call = Call("indexset", a1, out / f"indexset-{n}", n)
            call.expect["size"] = str(2 * len(edges) - n)
            calls.append(call)
    warmup = [next(c for c in calls if c.verb == verb) for verb in ("analyze", "indexset")]
    return calls, warmup


_GENERATORS = {"fan5-cli": _fan5, "laman-flow": _laman_flow, "laman-analyze": _laman_analyze}


def build(workload, seed, scale, root, work):
    """Write the workload's scenarios to work/in; return (calls, warm-up calls).

    The calls write their outputs under work/out.
    """
    inp = work / "in"
    inp.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](np.random.default_rng(seed), root, inp, work / "out", scale)
