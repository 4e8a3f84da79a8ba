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
from functools import cached_property
from pathlib import Path
from typing import Optional

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

# most agents a scenario may declare: 10x the largest benchmarked
# framework (n = 1000), refused before anything n-sized is allocated
MAX_AGENTS = 10_000

# exit-code policy: (exception types, exit code, message prefix); the
# first row the exception matches wins, so the numerical library errors,
# all ValueErrors, come before the validation row
_EXIT_POLICY = (
    (ParseError, EXIT_PARSE, "parse error"),
    (
        (
            BlowUp,
            NotInfinitesimallyAngleRigid,
            NotAnEquilibrium,
            NonPositiveSeries,
            ArithmeticError,
        ),
        EXIT_NUMERICAL,
        "numerical failure",
    ),
    ((AngleformError, ValueError), EXIT_VALIDATION, "validation error"),
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

    @cached_property
    def laman_witness(self) -> tuple:
        """(construction, origin): the triangulated-Laman witness, or None.
        origin is "scenario" when the construction block is given, whether
        it builds the graph or not, else "recognized" or "none". Decided
        once: analyze asks for it twice, and recognition costs O(n^2 log n)."""
        g = self.graph
        if self.construction is None:
            found = recognize_triangulated_laman(g)
            return found, "none" if found is None else "recognized"
        built = build_laman(self.construction)
        if built.n == g.n and set(built.edges) == set(g.edges):
            return self.construction, "scenario"
        return None, "scenario"


# the two kinds of scenario number; _typed checks exact types, so JSON
# true and false are neither
_INTEGER = (int,)
_NUMBER = (int, float)


def _typed(val, kinds, where: str):
    """val when its type is one of kinds, as a float when kinds is
    _NUMBER; else ParseError."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if type(val) not in kinds:
        names = "/".join(k.__name__ for k in kinds)
        raise ParseError(f"{where}: expected {names}, got {type(val).__name__}")
    try:
        return float(val) if kinds is _NUMBER else val
    except OverflowError:  # an integer literal beyond the double range
        raise ParseError(f"{where}: integer too large for a float") from None


def _expect(block: dict, key: str, kinds, where: str, required=True, default=None):
    if key not in block:
        if required:
            raise ParseError(f"{where}: missing field {key!r}")
        return default
    return _typed(block[key], kinds, f"{where}.{key}")


def _row(item, kinds, size: int, where: str, shape: str) -> tuple:
    """A JSON list of exactly size values, each of one of kinds, as
    floats when kinds is _NUMBER."""
    if not isinstance(item, list) or len(item) != size:
        raise ParseError(f"{where}: expected {shape}")
    for val in item:
        if type(val) not in kinds:
            break
    else:
        try:
            return tuple(map(float, item) if kinds is _NUMBER else item)
        except OverflowError:
            pass
    # the error path, where _typed names the offending index
    return tuple(_typed(val, kinds, f"{where}[{k}]") for k, val in enumerate(item))


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
    if n > MAX_AGENTS:
        raise ValidationError(f"graph.n {n} is over the limit of {MAX_AGENTS}")
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
        radius = _expect(
            gen, "radius", _NUMBER, "configuration.generator",
            required=False, default=1.0,
        )
        base = Configuration.regular_polygon(gn, radius)

    perturbation = None
    if "perturbation" in cblock:
        pblock = _expect(cblock, "perturbation", dict, "configuration")
        _reject_unknown(pblock, ("amplitude", "seed"), "configuration.perturbation")
        amp = _expect(pblock, "amplitude", _NUMBER, "configuration.perturbation")
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
        maneuver = Maneuver(LeaderPair(*leaders), displacement)
        if not maneuver.leaders.spans_edge(graph):
            raise ValidationError(
                f"maneuver.leaders: ({leaders[0]}, {leaders[1]}) is not an edge "
                f"of the graph on vertices 1..{graph.n}"
            )

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
                kwargs[key] = _expect(iblock, key, _NUMBER, "integrator")
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
    construction, origin = scenario.laman_witness
    if construction is None:
        raise ValidationError(
            "construction block does not build the scenario graph"
            if origin == "scenario"
            else f"angle source {source!r} needs a triangulated Laman graph "
            "or an explicit construction block"
        )
    if source == "laman_minimal":
        return laman_minimal_set(construction)
    return laman_global_set(construction)


# ---------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------


def _text(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "none" if value is None else str(value)


def _render(report: dict) -> str:
    """key=value lines in insertion order, repr for floats."""
    return "".join(f"{k}={_text(v)}\n" for k, v in report.items())


def _sigma_tail(values, k: int = 6) -> str:
    vals = np.asarray(values, dtype=float)
    tail = vals[-k:] if vals.size > k else vals
    return ";".join(repr(float(s)) for s in tail)


# ---------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------


def _write_table(stream, header, columns) -> None:
    """A CSV of the header and the float columns side by side, each an
    (s,) or (s, k) array, every value written with repr (full double
    precision, byte-stable across reruns)."""
    stream.write(",".join(header) + "\n")
    for row in np.column_stack(columns):
        stream.write(",".join(map(repr, row.tolist())) + "\n")


def _trajectory_csv(result, stream) -> None:
    """t, p1x, p1y, ..., pnx, pny."""
    s, n, _ = result.positions.shape
    header = ["t"] + [f"p{i}{axis}" for i in range(1, n + 1) for axis in "xy"]
    _write_table(stream, header, (result.times, result.positions.reshape(s, -1)))


def _cost_csv(result, stream) -> None:
    """t, V_F, V_M, V, centroid_x, centroid_y, scale (V_M zero without a
    maneuver, keeping the column order fixed)."""
    vm = result.vm if result.vm is not None else np.zeros_like(result.vf)
    _write_table(
        stream,
        ("t", "V_F", "V_M", "V", "centroid_x", "centroid_y", "scale"),
        (result.times, result.vf, vm, result.v, result.centroid, result.scale),
    )


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


def _analyze(sc: Scenario, T: AngleIndexSet, report: dict) -> list:
    """Rigidity analysis of the scenario's framework at its base points."""
    g, p = sc.graph, sc.base
    report.update(
        graph_n=g.n, graph_m=g.m, angle_source=sc.angle_source, angle_set_size=len(T)
    )
    for name, r in (
        ("distance", is_infinitesimally_distance_rigid(g, p)),
        ("bearing", is_infinitesimally_bearing_rigid(g, p)),
        ("angle", is_infinitesimally_angle_rigid(g, p, T)),
    ):
        report[f"{name}_rigid"] = r.verdict
        report[f"{name}_rank"] = r.rank
        report[f"{name}_nullspace_dim"] = r.nullspace_dim
        report[f"{name}_sigma_tail"] = _sigma_tail(r.singular_values)

    nd = is_strongly_nondegenerate(g, p)
    report["strongly_nondegenerate"] = nd.ok
    if not nd.ok:
        report["degenerate_triangle"] = "{},{},{}".format(*nd.witness)

    # framework admissibility: a valid triangulated-Laman construction
    # (given or recognized) plus strong nondegeneracy at the base points
    construction, origin = sc.laman_witness
    witness_ok = construction is not None
    report["witness_source"] = origin
    if witness_ok:
        steps = ";".join("{},{},{}".format(*step) for step in construction.steps)
        report["witness_steps"] = steps if steps else "(base edge only)"
    report.update(
        witness_triangulated_laman=witness_ok,
        witness_strongly_nondegenerate=nd.ok,
        witness_satisfied=witness_ok and nd.ok,
    )
    return []


def _indexset(sc: Scenario, T: AngleIndexSet, report: dict) -> list:
    """The scenario's angle set as a canonical triple list."""
    n, m, source = sc.graph.n, sc.graph.m, sc.angle_source
    report.update(angle_source=source, size=len(T))
    if source in ("laman_minimal", "triangle_formation"):
        report["expected_size"] = 2 * n - 4
    elif source == "laman_global":
        report["expected_size"] = (3 * n - 7) if n >= 4 else 2 * n - 4
    elif source == "algorithm1":
        report["expected_size"] = 2 * m - n
    cells = ["{},{},{}".format(*t) for t in T.triples]
    report["triples"] = ";".join(cells)
    return [("triples.txt", lambda fh: fh.writelines(c + "\n" for c in cells))]


def _simulate(sc: Scenario, T: AngleIndexSet, report: dict) -> list:
    """Integrate the scenario's flow; the trajectory and cost series."""
    spec = FormationSpec(
        sc.graph, sc.base, T, maneuver=sc.maneuver, witness=sc.construction
    )
    result = simulate(spec, sc.initial_configuration(), sc.integrator)
    report.update(
        backend=result.backend, angle_source=sc.angle_source, angle_set_size=len(T)
    )
    if sc.perturbation is not None:
        report["perturbation_amplitude"] = sc.perturbation.amplitude
        report["perturbation_seed"] = sc.perturbation.seed
    report.update(
        samples=len(result.times),
        t_end=result.t_end,
        converged=result.converged,
        vf_initial=result.vf[0],
        vf_final=result.vf[-1],
        v_initial=result.v[0],
        v_final=result.v[-1],
        decay_rate=result.decay_rate,
        in_constraint_set=result.in_constraint_set,
        in_shape_class=result.in_shape_class,
    )
    if sc.maneuver is not None:
        report["maneuver_error"] = result.maneuver_error
        report["in_translation_family"] = result.in_translation_family
    return [
        ("trajectory.csv", lambda fh: _trajectory_csv(result, fh)),
        ("cost.csv", lambda fh: _cost_csv(result, fh)),
        ("plot.gp", lambda fh: fh.write(_PLOT_STUB)),
    ]


# the verb bodies: each adds its lines to the report and returns the
# files it writes into --out as (name, writer) pairs, writer(stream)
_VERBS = {"analyze": _analyze, "indexset": _indexset, "simulate": _simulate}


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


def _run_one(verb, scenario_path, out_dir, seed_override, stream) -> int:
    """One verb on one scenario: load it, apply the seed policy, resolve
    the angle set, run the verb body and write its outputs; the exit
    code."""
    try:
        if verb == "simulate" and out_dir is None:
            raise ValidationError("simulate requires --out")
        sc = load_scenario(scenario_path)
        # the override seeds algorithm1's selection in every verb and the
        # perturbation in simulate, and is refused where it seeds nothing
        if seed_override is not None:
            perturbed = verb == "simulate" and sc.perturbation is not None
            if not (perturbed or sc.angle_source == "algorithm1"):
                raise ValidationError(
                    "seed override given but the scenario has no seeded randomness"
                )
            if perturbed:
                sc.perturbation = PerturbationSpec(
                    sc.perturbation.amplitude, seed_override
                )
        T = resolve_angle_set(sc, seed=seed_override)
        report = {
            "command": verb,
            "version": __version__,
            "scenario": Path(sc.path).name,
            "scenario_sha256": sc.digest,
        }
        files = _VERBS[verb](sc, T, report)
        if out_dir is not None:
            for k, (name, _) in enumerate(files, 1):
                report[f"output_{k}"] = name
        text = _render(report)
        if out_dir is not None:
            files.append(("report.txt", lambda fh: fh.write(text)))
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
                for name, write in files:
                    with (out_dir / name).open("w") as fh:
                        write(fh)
            except OSError as exc:
                raise ValidationError(
                    f"--out {out_dir}: {exc.strerror or exc}"
                ) from exc
        stream.write(text)
        return EXIT_OK
    except (AngleformError, ArithmeticError, ValueError) as exc:
        code, kind = next(row[1:] for row in _EXIT_POLICY if isinstance(exc, row[0]))
        stream.write(f"{kind}: {exc}\n")
        return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stream = sys.stdout

    if args.verb == "selftest":
        t0 = time.perf_counter()
        failures = cmd_selftest(stream)
        sys.stderr.write(f"selftest took {time.perf_counter() - t0:.1f}s\n")
        return EXIT_OK if failures == 0 else EXIT_NUMERICAL

    if args.seed_override is not None and args.seed_override < 0:
        stream.write(
            "validation error: --seed-override must be nonnegative, "
            f"got {args.seed_override}\n"
        )
        return EXIT_VALIDATION
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
