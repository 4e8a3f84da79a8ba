"""Scenario-driven command line front end.

Verbs: analyze (rigidity verdicts for a framework), indexset (emit an
angle index set), simulate (integrate the gradient flow and write CSV
series), selftest (run the embedded property suites).

Scenario files are JSON with this shape (all vertex ids 1-based):

    {
      "schema": 1,
      "graph": {"n": 5, "edges": [[1, 2], [1, 3], ...]},
      "configuration": {
        "points": [[x, y], ...],                   # exactly one of
        "generator": {"kind": "regular_polygon",   # points/generator
                      "n": 5, "radius": 1.0},
        "perturbation": {"amplitude": 0.5, "seed": 2}   # optional
      },
      "angles": {"source": "triangle_formation"},
      "construction": {"steps": [[3, 1, 2], [4, 1, 3], ...]},  # optional
      "maneuver": {"leaders": [3, 4], "displacement": [-0.5, 0.0]},
      "integrator": {"h": 1e-3, "t_final": 50.0, "record_stride": 0.1}
    }

Angle sources: full, triangle_formation, laman_minimal, laman_global,
algorithm1, explicit (the last requires "triples": [[i, j, k], ...]).
The laman_* sources use the construction block when present, otherwise
the graph must be recognizably triangulated Laman.

Reports are key=value text, one pair per line, deterministic for a fixed
scenario, seed, and version. CSVs carry full double precision (repr).
Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 parse
error. A --batch run processes scenarios sequentially in argument order,
writing each one's files under a subdirectory named by scenario stem.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .errors import (
    AngleformError,
    BlowUp,
    NonPositiveSeries,
    NotAnEquilibrium,
    NotInfinitesimallyAngleRigid,
    ParseError,
    ValidationError,
)
from .formation import (
    FormationSpec,
    IntegratorConfig,
    Maneuver,
    PerturbationSpec,
    simulate,
)
from .graph import (
    Graph,
    LamanConstruction,
    LeaderPair,
    build_laman,
    recognize_triangulated_laman,
)
from .index_sets import (
    algorithm1_set,
    full_angle_set,
    laman_global_set,
    laman_minimal_set,
    triangle_formation_set,
)
from .rigidity import (
    AngleIndexSet,
    Configuration,
    is_infinitesimally_angle_rigid,
    is_infinitesimally_bearing_rigid,
    is_infinitesimally_distance_rigid,
    is_strongly_nondegenerate,
)

SCHEMA_VERSION = 1
ANGLE_SOURCES = (
    "full",
    "triangle_formation",
    "laman_minimal",
    "laman_global",
    "algorithm1",
    "explicit",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_PARSE = 4

# failures of numerical preconditions or of the flow itself
_NUMERICAL_ERRORS = (
    BlowUp,
    NotInfinitesimallyAngleRigid,
    NotAnEquilibrium,
    NonPositiveSeries,
)


# ---------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------


@dataclass
class Scenario:
    """Parsed scenario file plus its provenance digest."""

    path: str
    digest: str
    graph: Graph
    base: Configuration
    perturbation: Optional[PerturbationSpec]
    angle_source: str
    explicit_triples: Optional[tuple]
    construction: Optional[LamanConstruction]
    maneuver: Optional[Maneuver]
    integrator: IntegratorConfig

    def initial_configuration(self, seed_override: Optional[int] = None):
        """The simulation start: base, perturbed when the block exists."""
        if self.perturbation is None:
            return self.base
        pert = self.perturbation
        if seed_override is not None:
            pert = PerturbationSpec(pert.amplitude, seed_override)
        return pert.sample(self.base)


# the two kinds of scenario number; _typed checks exact types, so JSON
# true and false are neither
_INTEGER = (int,)
_NUMBER = (int, float)


def _typed(val, kinds, where: str):
    """val itself when its type is one of kinds, else ParseError."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if type(val) in kinds:
        return val
    names = "/".join(k.__name__ for k in kinds)
    raise ParseError(f"{where}: expected {names}, got {type(val).__name__}")


def _expect(block: dict, key: str, kinds, where: str, required=True, default=None):
    if key not in block:
        if required:
            raise ParseError(f"{where}: missing field {key!r}")
        return default
    return _typed(block[key], kinds, f"{where}.{key}")


def _row(item, kinds, size: int, where: str, shape: str) -> tuple:
    """A JSON list of exactly size values, each of one of kinds."""
    if not isinstance(item, list) or len(item) != size:
        raise ParseError(f"{where}: expected {shape}")
    for k, val in enumerate(item):
        if type(val) not in kinds:  # label built only for the error
            _typed(val, kinds, f"{where}[{k}]")
    return tuple(item)


def _rows(raw, kinds, size: int, where: str, shape: str) -> list:
    return [
        _row(item, kinds, size, f"{where}[{idx}]", shape)
        for idx, item in enumerate(raw)
    ]


def _reject_unknown(block: dict, allowed, where: str) -> None:
    extra = sorted(set(block) - set(allowed))
    if extra:
        raise ParseError(f"{where}: unknown field(s) {', '.join(extra)}")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Structural problems (bad JSON, missing/unknown fields, wrong types)
    raise ParseError; semantic problems (out-of-range vertices, vertex
    count mismatches) raise ValidationError or a more specific subclass.
    """
    p = Path(path)
    try:
        raw_bytes = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    digest = hashlib.sha256(raw_bytes).hexdigest()
    try:
        doc = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    _reject_unknown(
        doc,
        (
            "schema",
            "graph",
            "configuration",
            "angles",
            "construction",
            "maneuver",
            "integrator",
        ),
        path,
    )

    schema = _expect(doc, "schema", int, str(path))
    if schema != SCHEMA_VERSION:
        raise ParseError(f"{path}.schema: unrecognized version {schema}")

    gblock = _expect(doc, "graph", dict, str(path))
    _reject_unknown(gblock, ("n", "edges"), "graph")
    n = _expect(gblock, "n", int, "graph")
    if n < 1:
        raise ValidationError(f"graph.n must be positive, got {n}")
    edges_raw = _expect(gblock, "edges", list, "graph")
    graph = Graph.from_edges(
        n, _rows(edges_raw, _INTEGER, 2, "graph.edges", "a pair [i, j]")
    )

    cblock = _expect(doc, "configuration", dict, str(path))
    _reject_unknown(cblock, ("points", "generator", "perturbation"), "configuration")
    has_points = "points" in cblock
    has_gen = "generator" in cblock
    if has_points == has_gen:
        raise ParseError(
            "configuration: exactly one of 'points'/'generator' is required"
        )
    if has_points:
        pts = _expect(cblock, "points", list, "configuration")
        base = Configuration(
            _rows(pts, _NUMBER, 2, "configuration.points", "a pair [x, y]")
        )
        if base.n != graph.n:
            raise ValidationError(
                f"configuration has {base.n} points, graph has {graph.n} vertices"
            )
    else:
        gen = _expect(cblock, "generator", dict, "configuration")
        _reject_unknown(gen, ("kind", "n", "radius"), "configuration.generator")
        kind = _expect(gen, "kind", str, "configuration.generator")
        if kind != "regular_polygon":
            raise ParseError(
                f"configuration.generator.kind: unknown generator {kind!r}"
            )
        gn = _expect(gen, "n", int, "configuration.generator")
        if gn != graph.n:  # checked first: gn sizes the polygon
            raise ValidationError(
                f"configuration has {gn} points, graph has {graph.n} vertices"
            )
        radius = float(
            _expect(
                gen, "radius", _NUMBER, "configuration.generator",
                required=False, default=1.0,
            )
        )
        base = Configuration.regular_polygon(gn, radius)

    perturbation = None
    if "perturbation" in cblock:
        pblock = _expect(cblock, "perturbation", dict, "configuration")
        _reject_unknown(pblock, ("amplitude", "seed"), "configuration.perturbation")
        amp = float(
            _expect(pblock, "amplitude", _NUMBER, "configuration.perturbation")
        )
        seed = _expect(pblock, "seed", int, "configuration.perturbation")
        perturbation = PerturbationSpec(amp, seed)

    ablock = _expect(doc, "angles", dict, str(path))
    _reject_unknown(ablock, ("source", "triples"), "angles")
    source = _expect(ablock, "source", str, "angles")
    if source not in ANGLE_SOURCES:
        raise ParseError(
            f"angles.source: {source!r} is not one of {', '.join(ANGLE_SOURCES)}"
        )
    explicit = None
    if source == "explicit":
        triples_raw = _expect(ablock, "triples", list, "angles")
        explicit = tuple(
            _rows(triples_raw, _INTEGER, 3, "angles.triples", "[i, j, k]")
        )
    elif "triples" in ablock:
        raise ParseError("angles.triples: only valid with source 'explicit'")

    construction = None
    if "construction" in doc:
        wblock = _expect(doc, "construction", dict, str(path))
        _reject_unknown(wblock, ("steps",), "construction")
        steps_raw = _expect(wblock, "steps", list, "construction")
        steps = _rows(
            steps_raw, _INTEGER, 3, "construction.steps", "[new_vertex, i, j]"
        )
        construction = LamanConstruction(tuple(steps))

    maneuver = None
    if "maneuver" in doc:
        mblock = _expect(doc, "maneuver", dict, str(path))
        _reject_unknown(mblock, ("leaders", "displacement"), "maneuver")
        leaders = _row(
            _expect(mblock, "leaders", list, "maneuver"),
            _INTEGER, 2, "maneuver.leaders", "a pair [l1, l2]",
        )
        displacement = _row(
            _expect(mblock, "displacement", list, "maneuver"),
            _NUMBER, 2, "maneuver.displacement", "a pair [dx, dy]",
        )
        maneuver = Maneuver(LeaderPair(*leaders), tuple(map(float, displacement)))

    integ = IntegratorConfig()
    if "integrator" in doc:
        iblock = _expect(doc, "integrator", dict, str(path))
        _reject_unknown(
            iblock,
            ("h", "t_final", "record_stride", "cost_tol", "grad_tol", "method"),
            "integrator",
        )
        kwargs = {}
        for key in ("h", "t_final", "record_stride", "cost_tol", "grad_tol"):
            if key in iblock:
                kwargs[key] = float(_expect(iblock, key, _NUMBER, "integrator"))
        if "method" in iblock:
            kwargs["method"] = _expect(iblock, "method", str, "integrator")
        integ = IntegratorConfig(**kwargs)

    return Scenario(
        path=str(path),
        digest=digest,
        graph=graph,
        base=base,
        perturbation=perturbation,
        angle_source=source,
        explicit_triples=explicit,
        construction=construction,
        maneuver=maneuver,
        integrator=integ,
    )


def resolve_angle_set(
    scenario: Scenario, seed: Optional[int] = None
) -> AngleIndexSet:
    """Materialize the scenario's angle set at its base configuration."""
    g = scenario.graph
    source = scenario.angle_source
    if source == "full":
        return full_angle_set(g)
    if source == "triangle_formation":
        return triangle_formation_set(g)
    if source == "explicit":
        T = AngleIndexSet.from_triples(scenario.explicit_triples)
        T.validate_for(g)
        return T
    if source == "algorithm1":
        return algorithm1_set(g, scenario.base, seed=seed)
    construction = scenario.construction
    if construction is None:
        construction = recognize_triangulated_laman(g)
        if construction is None:
            raise ValidationError(
                f"angle source {source!r} needs a triangulated Laman graph "
                "or an explicit construction block"
            )
    else:
        built = build_laman(construction)
        if built.n != g.n or set(built.edges) != set(g.edges):
            raise ValidationError(
                "construction block does not build the scenario graph"
            )
    if source == "laman_minimal":
        return laman_minimal_set(construction)
    return laman_global_set(construction)


# ---------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------


class RunReport:
    """Ordered key=value pairs plus the emitted file list.

    Rendering is deterministic: insertion order, repr for floats. The
    emitted-series paths are part of the report under output_* keys.
    """

    def __init__(self, command: str, scenario: Optional[Scenario]):
        self.pairs: List[Tuple[str, str]] = []
        self.outputs: List[str] = []
        self.add("command", command)
        self.add("version", __version__)
        if scenario is not None:
            self.add("scenario", Path(scenario.path).name)
            self.add("scenario_sha256", scenario.digest)

    def add(self, key: str, value) -> None:
        if isinstance(value, (bool, np.bool_)):
            text = "true" if value else "false"
        elif isinstance(value, (float, np.floating)):
            text = repr(float(value))
        elif value is None:
            text = "none"
        else:
            text = str(value)
        self.pairs.append((key, text))

    def add_output(self, path: Path) -> None:
        self.outputs.append(str(path))
        self.add(f"output_{len(self.outputs)}", path.name)

    def render(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.pairs)


def _emit(report: RunReport, out_dir: Optional[Path], stream) -> None:
    text = report.render()
    stream.write(text)
    if out_dir is not None:
        (out_dir / "report.txt").write_text(text)


def _sigma_tail(values, k: int = 6) -> str:
    vals = np.asarray(values, dtype=float)
    tail = vals[-k:] if vals.size > k else vals
    return ";".join(repr(float(s)) for s in tail)


def _triple_text(T: AngleIndexSet) -> str:
    return "".join(f"{i},{j},{k}\n" for i, j, k in T.triples)


# ---------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------


def _trajectory_csv(result, stream) -> None:
    """t, p1x, p1y, ..., pnx, pny with full double precision."""
    n = result.positions.shape[1]
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"p{i}x", f"p{i}y"]
    stream.write(",".join(header) + "\n")
    for t, snap in zip(result.times, result.positions):
        row = [repr(float(t))]
        row += [repr(float(v)) for v in snap.reshape(-1)]
        stream.write(",".join(row) + "\n")


def _cost_csv(result, stream) -> None:
    """t, V_F, V_M, V, centroid_x, centroid_y, scale (V_M zero without a
    maneuver, keeping the column order fixed)."""
    stream.write("t,V_F,V_M,V,centroid_x,centroid_y,scale\n")
    vm = result.vm if result.vm is not None else np.zeros_like(result.vf)
    for idx, t in enumerate(result.times):
        row = [
            repr(float(t)),
            repr(float(result.vf[idx])),
            repr(float(vm[idx])),
            repr(float(result.vf[idx] + vm[idx])),
            repr(float(result.centroid[idx, 0])),
            repr(float(result.centroid[idx, 1])),
            repr(float(result.scale[idx])),
        ]
        stream.write(",".join(row) + "\n")


_PLOT_STUB = """# gnuplot script stub for the emitted series
set datafile separator ','
set key autotitle columnhead
set logscale y
plot 'cost.csv' using 1:2 with lines, \\
     'cost.csv' using 1:4 with lines
pause -1
"""


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------


def cmd_analyze(scenario_path, out_dir=None, stream=sys.stdout) -> RunReport:
    """Rigidity analysis of the scenario's framework at its base points."""
    sc = load_scenario(scenario_path)
    T = resolve_angle_set(sc)
    g, p = sc.graph, sc.base

    rep = RunReport("analyze", sc)
    rep.add("graph_n", g.n)
    rep.add("graph_m", g.m)
    rep.add("angle_source", sc.angle_source)
    rep.add("angle_set_size", len(T))

    dist = is_infinitesimally_distance_rigid(g, p)
    bear = is_infinitesimally_bearing_rigid(g, p)
    ang = is_infinitesimally_angle_rigid(g, p, T)
    for name, r in (("distance", dist), ("bearing", bear), ("angle", ang)):
        rep.add(f"{name}_rigid", r.verdict)
        rep.add(f"{name}_rank", r.rank)
        rep.add(f"{name}_nullspace_dim", r.nullspace_dim)
        rep.add(f"{name}_sigma_tail", _sigma_tail(r.singular_values))

    nd = is_strongly_nondegenerate(g, p)
    rep.add("strongly_nondegenerate", nd.ok)
    if not nd.ok:
        rep.add("degenerate_triangle", "{},{},{}".format(*nd.witness))

    # framework admissibility: a valid triangulated-Laman construction
    # (given or recognized) plus strong nondegeneracy at the base points
    construction = sc.construction
    if construction is not None:
        built = build_laman(construction)
        witness_ok = built.n == g.n and set(built.edges) == set(g.edges)
        rep.add("witness_source", "scenario")
    else:
        construction = recognize_triangulated_laman(g)
        witness_ok = construction is not None
        rep.add("witness_source", "recognized" if witness_ok else "none")
    if witness_ok:
        steps = ";".join(
            "{},{},{}".format(*step) for step in construction.steps
        )
        rep.add("witness_steps", steps if steps else "(base edge only)")
    rep.add("witness_triangulated_laman", witness_ok)
    rep.add("witness_strongly_nondegenerate", nd.ok)
    rep.add("witness_satisfied", bool(witness_ok and nd.ok))

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    _emit(rep, out_dir, stream)
    return rep


def cmd_indexset(
    scenario_path, out_dir=None, seed_override=None, stream=sys.stdout
) -> RunReport:
    """Emit the scenario's angle set as a canonical triple list."""
    sc = load_scenario(scenario_path)
    seed = seed_override if sc.angle_source == "algorithm1" else None
    T = resolve_angle_set(sc, seed=seed)
    n, m = sc.graph.n, sc.graph.m

    rep = RunReport("indexset", sc)
    rep.add("angle_source", sc.angle_source)
    rep.add("size", len(T))
    if sc.angle_source in ("laman_minimal", "triangle_formation"):
        rep.add("expected_size", 2 * n - 4)
    elif sc.angle_source == "laman_global":
        rep.add("expected_size", (3 * n - 7) if n >= 4 else 2 * n - 4)
    elif sc.angle_source == "algorithm1":
        rep.add("expected_size", 2 * m - n)
    rep.add("triples", ";".join("{},{},{}".format(*t) for t in T.triples))

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        triples_path = out_dir / "triples.txt"
        triples_path.write_text(_triple_text(T))
        rep.add_output(triples_path)
    _emit(rep, out_dir, stream)
    return rep


def cmd_simulate(
    scenario_path, out_dir, seed_override=None, stream=sys.stdout
) -> RunReport:
    """Integrate the scenario's flow; write trajectory/cost series."""
    sc = load_scenario(scenario_path)
    seed = seed_override if sc.angle_source == "algorithm1" else None
    if seed_override is not None and sc.perturbation is None and seed is None:
        raise ValidationError(
            "seed override given but the scenario has no seeded randomness"
        )
    T = resolve_angle_set(sc, seed=seed)
    spec = FormationSpec(
        sc.graph, sc.base, T, maneuver=sc.maneuver, witness=sc.construction
    )
    p0 = sc.initial_configuration(seed_override)
    result = simulate(spec, p0, sc.integrator)

    rep = RunReport("simulate", sc)
    rep.add("backend", result.backend)
    rep.add("angle_source", sc.angle_source)
    rep.add("angle_set_size", len(T))
    if sc.perturbation is not None:
        used = seed_override if seed_override is not None else sc.perturbation.seed
        rep.add("perturbation_amplitude", float(sc.perturbation.amplitude))
        rep.add("perturbation_seed", used)
    rep.add("samples", len(result.times))
    rep.add("t_end", float(result.t_end))
    rep.add("converged", result.converged)
    rep.add("vf_initial", float(result.vf[0]))
    rep.add("vf_final", float(result.vf[-1]))
    rep.add("v_initial", float(result.v[0]))
    rep.add("v_final", float(result.v[-1]))
    rep.add("decay_rate", float(result.decay_rate))
    rep.add("in_constraint_set", result.in_constraint_set)
    rep.add("in_shape_class", result.in_shape_class)
    if sc.maneuver is not None:
        rep.add("maneuver_error", float(result.maneuver_error))
        rep.add("in_translation_family", result.in_translation_family)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "trajectory.csv"
    with traj_path.open("w") as fh:
        _trajectory_csv(result, fh)
    cost_path = out_dir / "cost.csv"
    with cost_path.open("w") as fh:
        _cost_csv(result, fh)
    plot_path = out_dir / "plot.gp"
    plot_path.write_text(_PLOT_STUB)
    rep.add_output(traj_path)
    rep.add_output(cost_path)
    rep.add_output(plot_path)
    _emit(rep, out_dir, stream)
    return rep


def cmd_selftest(stream=sys.stdout) -> int:
    """Run the embedded property suites; returns the failure count."""
    from . import selftest as st

    rows = st.run_all()
    failures = 0
    for name, passed, detail in rows:
        mark = "PASS" if passed else "FAIL"
        stream.write(f"{mark} {name}: {detail}\n")
        failures += 0 if passed else 1
    stream.write(f"{len(rows) - failures}/{len(rows)} checks passed\n")
    return failures


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="angleform",
        description="planar angle rigidity analysis and formation simulation",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(one):
        one.add_argument(
            "--scenario",
            action="append",
            required=True,
            help="scenario JSON path (repeatable with --batch)",
        )
        one.add_argument("--out", help="output directory")
        one.add_argument(
            "--seed-override",
            type=int,
            default=None,
            help="replace the scenario's seed",
        )
        one.add_argument(
            "--batch",
            action="store_true",
            help="process several scenarios into per-scenario subdirectories",
        )

    common(sub.add_parser("analyze", help="rigidity verdicts for a framework"))
    common(sub.add_parser("indexset", help="emit an angle index set"))
    common(sub.add_parser("simulate", help="integrate the gradient flow"))
    sub.add_parser("selftest", help="run the embedded property suites")
    return ap


def _classify(exc: Exception) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, _NUMERICAL_ERRORS):
        return EXIT_NUMERICAL
    return EXIT_VALIDATION


def _run_one(verb, scenario, out_dir, seed_override, stream) -> int:
    try:
        if verb == "analyze":
            cmd_analyze(scenario, out_dir, stream=stream)
        elif verb == "indexset":
            cmd_indexset(scenario, out_dir, seed_override, stream=stream)
        else:
            if out_dir is None:
                raise ValidationError("simulate requires --out")
            cmd_simulate(scenario, out_dir, seed_override, stream=stream)
        return EXIT_OK
    except AngleformError as exc:
        code = _classify(exc)
        kind = {
            EXIT_PARSE: "parse error",
            EXIT_NUMERICAL: "numerical failure",
        }.get(code, "validation error")
        stream.write(f"{kind}: {exc}\n")
        return code
    except ArithmeticError as exc:
        stream.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        stream.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stream = sys.stdout

    if args.verb == "selftest":
        t0 = time.perf_counter()
        failures = cmd_selftest(stream)
        sys.stderr.write(f"selftest took {time.perf_counter() - t0:.1f}s\n")
        return EXIT_OK if failures == 0 else EXIT_NUMERICAL

    scenarios = args.scenario
    if len(scenarios) > 1 and not args.batch:
        stream.write("validation error: multiple scenarios need --batch\n")
        return EXIT_VALIDATION
    if args.batch:
        stems = [Path(s).stem for s in scenarios]
        if len(set(stems)) != len(stems):
            stream.write(
                "validation error: batch scenarios must have distinct names\n"
            )
            return EXIT_VALIDATION

    worst = EXIT_OK
    for sc_path in scenarios:
        if args.out is None:
            out_dir = None
        elif args.batch:
            out_dir = Path(args.out) / Path(sc_path).stem
        else:
            out_dir = Path(args.out)
        code = _run_one(args.verb, sc_path, out_dir, args.seed_override, stream)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
