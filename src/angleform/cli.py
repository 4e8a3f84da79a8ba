"""Scenario-driven command line front end.

Verbs: analyze (rigidity verdicts for a framework), indexset (emit an
angle index set), simulate (integrate the gradient flow and write CSV
series), selftest (run the embedded property suites).

A scenario file is one JSON object: the framework (graph, configuration),
the angle index set (angles), and optionally a vertex-insertion
construction, a leader maneuver and integrator settings. _FIELDS lists
every field with its type, and README "Scenario files" shows a file.
Vertex ids are 1-based. The whole structure is checked against _FIELDS
before any meaning, so a file with both a parse fault and a validation
fault reports the parse fault.

Angle sources: full, triangle_formation, laman_minimal, laman_global,
algorithm1, explicit (the last requires "triples": [[i, j, k], ...]).
The laman_* sources use the construction block when present, otherwise
the graph must be recognizably triangulated Laman.

Reports are key=value text, one pair per line, deterministic for a fixed
scenario, seed, and version. CSV cells are repr's bytes (full double
precision) on either kernel backend.
Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 parse
error. A --batch run processes scenarios sequentially in argument order,
writing each one's files under a subdirectory named by scenario stem.
"""

import argparse
import errno
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import cache, cached_property, partial
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__, _kernels
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
    BLOWUP_LIMIT,
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

# most bytes a scenario file may hold, checked before it is parsed: 2.7x
# the 5.9 MB file of the complete graph K1000
MAX_SCENARIO_BYTES = 16_000_000

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

    def initial_configuration(self) -> Configuration:
        """The simulation start: base, perturbed when the block exists."""
        if self.perturbation is None:
            return self.base
        return self.perturbation.sample(self.base)

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
        if self.construction.graph == g:
            return self.construction, "scenario"
        return None, "scenario"

    @cached_property
    def bearing(self):
        """The bearing verdict at the base points, decided once: the
        algorithm1 precheck and analyze both read it."""
        return is_infinitesimally_bearing_rigid(self.graph, self.base)


# the JSON value types of a scenario field; _typed checks exact types, so
# JSON true and false are neither integer nor number
_INTEGER = (int,)
_NUMBER = (int, float)
_TEXT = (str,)


class _Rows(NamedTuple):
    """A field of rows, each a list of size values of one of kinds; shape
    describes a row in errors. many: a list of rows, else one row."""

    size: int
    kinds: tuple
    shape: str
    many: bool = True


# every scenario field, block -> field -> (kind, required); a kind is a
# tuple of JSON types, a nested block or a _Rows. load_scenario reads the
# file through it, and the scenario fuzzer draws its paths from it.
_FIELDS = {
    "schema": (_INTEGER, True),
    "graph": (
        {"n": (_INTEGER, True), "edges": (_Rows(2, _INTEGER, "a pair [i, j]"), True)},
        True,
    ),
    "configuration": (
        {
            "points": (_Rows(2, _NUMBER, "a pair [x, y]"), False),
            "generator": (
                {
                    "kind": (_TEXT, True),
                    "n": (_INTEGER, True),
                    "radius": (_NUMBER, False),
                },
                False,
            ),
            "perturbation": (
                {"amplitude": (_NUMBER, True), "seed": (_INTEGER, True)},
                False,
            ),
        },
        True,
    ),
    "angles": (
        {"source": (_TEXT, True), "triples": (_Rows(3, _INTEGER, "[i, j, k]"), False)},
        True,
    ),
    "construction": (
        {"steps": (_Rows(3, _INTEGER, "[new_vertex, i, j]"), True)},
        False,
    ),
    "maneuver": (
        {
            "leaders": (_Rows(2, _INTEGER, "a pair [l1, l2]", many=False), True),
            "displacement": (_Rows(2, _NUMBER, "a pair [dx, dy]", many=False), True),
        },
        False,
    ),
    "integrator": (
        {
            "h": (_NUMBER, False),
            "t_final": (_NUMBER, False),
            "record_stride": (_NUMBER, False),
            "cost_tol": (_NUMBER, False),
            "grad_tol": (_NUMBER, False),
            "method": (_TEXT, False),
        },
        False,
    ),
}


def _typed(val, kinds: tuple, where: str):
    """val when its type is one of kinds, as a float when kinds is
    _NUMBER; else ParseError."""
    if type(val) not in kinds:
        names = "/".join(k.__name__ for k in kinds)
        raise ParseError(f"{where}: expected {names}, got {type(val).__name__}")
    try:
        return float(val) if kinds is _NUMBER else val
    except OverflowError:  # an integer literal beyond the double range
        raise ParseError(f"{where}: integer too large for a float") from None


def _row(item, rows: _Rows, path: str, k=None) -> tuple:
    """A JSON list of exactly rows.size values, each of one of rows.kinds,
    as floats when those are _NUMBER. Errors name it path, or path[k]
    when it is row k of a list."""
    kinds = rows.kinds
    if isinstance(item, list) and len(item) == rows.size:
        for val in item:
            if type(val) not in kinds:
                break
        else:
            try:
                return tuple(map(float, item) if kinds is _NUMBER else item)
            except OverflowError:
                pass
    # the error path, where _typed names the offending index
    where = path if k is None else f"{path}[{k}]"
    if not isinstance(item, list) or len(item) != rows.size:
        raise ParseError(f"{where}: expected {rows.shape}")
    return tuple(_typed(val, kinds, f"{where}[{j}]") for j, val in enumerate(item))


def _walk(block: dict, fields: dict, where: str, prefix: str = "") -> dict:
    """block's fields, typed, in table order (absent optional ones left
    out): ParseError for an unknown field, a missing required one or a
    value of the wrong type. Errors name a field where.field, and its
    rows and nested blocks by their path from the top, prefix + field
    (at the top, where is the file's path and prefix is "")."""
    extra = block.keys() - fields.keys()
    if extra:
        raise ParseError(f"{where}: unknown field(s) {', '.join(sorted(extra))}")
    typed = {}
    for key, (kind, required) in fields.items():
        if key not in block:
            if required:
                raise ParseError(f"{where}: missing field {key!r}")
            continue
        val, at, path = block[key], f"{where}.{key}", prefix + key
        if type(kind) is dict:
            val = _walk(_typed(val, (dict,), at), kind, path, path + ".")
        elif type(kind) is not _Rows:
            val = _typed(val, kind, at)
        elif kind.many:
            rows = _typed(val, (list,), at)
            val = [_row(item, kind, path, k) for k, item in enumerate(rows)]
        else:
            val = _row(_typed(val, (list,), at), kind, path)
        typed[key] = val
    return typed


def _refuse_repeat(rows, key, where: str) -> None:
    """ValidationError naming the first of rows whose key repeats an
    earlier row's; called once a count has shown that one does."""
    seen = {}
    for k, row in enumerate(rows):
        first = seen.setdefault(key(row), k)
        if first != k:
            raise ValidationError(f"{where}[{k}]: {row} repeats {where}[{first}]")


def _unique_keys(path, pairs) -> dict:
    """A JSON object's pairs as a dict, json.loads's object_pairs_hook:
    ParseError naming a key the object repeats, where json keeps the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for k, key in enumerate(keys) if key in keys[:k])
        raise ParseError(f"{path}: repeated key {key!r}")
    return obj


def _far(where: str, text: str) -> ValidationError:
    """ValidationError naming the field where, whose text is over BLOWUP_LIMIT."""
    return ValidationError(
        f"{where}: {text} is over the coordinate limit of {BLOWUP_LIMIT:g}"
    )


def _built(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), a model object; a ValueError it raises
    comes out as a ValidationError naming the field where."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    The whole structure is checked first: bad JSON, missing, unknown or
    mistyped fields (_FIELDS) and unknown names raise ParseError. Then
    the meaning: out-of-range vertices, repeated edges and vertex count
    mismatches raise ValidationError or a more specific subclass.
    """
    try:
        with open(path, "rb") as fh:
            # at most one byte past the cap; a regular file's own size
            # sizes the buffer, as a cap-sized one costs ~90 us a load
            size = os.fstat(fh.fileno()).st_size or MAX_SCENARIO_BYTES
            raw_bytes = fh.read(min(size, MAX_SCENARIO_BYTES) + 1)
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    if len(raw_bytes) > MAX_SCENARIO_BYTES:
        raise ValidationError(
            f"scenario {path} is over the limit of {MAX_SCENARIO_BYTES} bytes"
        )
    digest = hashlib.sha256(raw_bytes).hexdigest()
    try:
        doc = json.loads(raw_bytes, object_pairs_hook=partial(_unique_keys, path))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    doc = _walk(doc, _FIELDS, str(path))
    # the structure that spans fields, also checked before any meaning
    config, source = doc["configuration"], doc["angles"]["source"]
    gen, triples = config.get("generator"), doc["angles"].get("triples")
    if doc["schema"] != SCHEMA_VERSION:
        raise ParseError(f"{path}.schema: unrecognized version {doc['schema']}")
    if ("points" in config) == (gen is not None):
        raise ParseError(
            "configuration: exactly one of 'points'/'generator' is required"
        )
    if gen is not None and gen["kind"] != "regular_polygon":
        raise ParseError(
            f"configuration.generator.kind: unknown generator {gen['kind']!r}"
        )
    if source not in ANGLE_SOURCES:
        raise ParseError(
            f"angles.source: {source!r} is not one of {', '.join(ANGLE_SOURCES)}"
        )
    if source == "explicit" and triples is None:
        raise ParseError("angles: missing field 'triples'")
    if source != "explicit" and triples is not None:
        raise ParseError("angles.triples: only valid with source 'explicit'")

    n, edges = doc["graph"]["n"], doc["graph"]["edges"]
    if n < 1:
        raise ValidationError(f"graph.n must be positive, got {n}")
    if n > MAX_AGENTS:
        raise ValidationError(f"graph.n {n} is over the limit of {MAX_AGENTS}")
    graph = _built("graph.edges", Graph.from_edges, n, edges)
    if graph.m != len(edges):
        _refuse_repeat(edges, frozenset, "graph.edges")

    # each field below, then the perturbation's reach, stays within
    # BLOWUP_LIMIT, so every coordinate a verb uses stays within a small
    # multiple of it, far below the 1.3e154 where a squared length
    # overflows; the raw values are checked, so NaN is refused here too
    if gen is None:
        vec = np.asarray(config["points"], dtype=float).reshape(-1)
        far = np.flatnonzero(~(np.abs(vec) <= BLOWUP_LIMIT))
        if far.size:
            k = int(far[0])
            where = f"configuration.points[{k // 2}][{k % 2}]"
            raise _far(where, repr(float(vec[k])))
    elif not abs(gen.get("radius", 1.0)) <= BLOWUP_LIMIT:
        raise _far("configuration.generator.radius", repr(gen.get("radius", 1.0)))
    for c, value in enumerate(doc.get("maneuver", {}).get("displacement", ())):
        if not abs(value) <= BLOWUP_LIMIT:
            raise _far(f"maneuver.displacement[{c}]", repr(value))

    if gen is None:
        base = _built("configuration.points", Configuration, config["points"])
    count = base.n if gen is None else gen["n"]
    if count != graph.n:  # checked first: a generator's n sizes the polygon
        raise ValidationError(
            f"configuration has {count} points, graph has {graph.n} vertices"
        )
    if gen is not None:
        polygon = Configuration.regular_polygon
        base = _built("configuration.generator", polygon, count, gen.get("radius", 1.0))
    pert = config.get("perturbation")
    perturbation = None
    if pert is not None:
        perturbation = _built("configuration.perturbation", PerturbationSpec, **pert)
    construction = maneuver = None
    if "construction" in doc:
        steps = tuple(doc["construction"]["steps"])
        construction = _built("construction.steps", LamanConstruction, steps)
    if "maneuver" in doc:
        leaders = doc["maneuver"]["leaders"]
        pair = _built("maneuver.leaders", LeaderPair, *leaders)
        displacement = doc["maneuver"]["displacement"]
        maneuver = _built("maneuver.displacement", Maneuver, pair, displacement)
        if not maneuver.leaders.spans_edge(graph):
            raise ValidationError(
                f"maneuver.leaders: {leaders} is not an edge of the graph on "
                f"vertices 1..{graph.n}"
            )
    if perturbation is not None:
        reach = float(np.max(np.abs(base.pts))) + perturbation.amplitude
        if reach > BLOWUP_LIMIT:
            raise _far(
                "configuration.perturbation.amplitude",
                f"{perturbation.amplitude!r} takes coordinates to {reach!r}, which",
            )

    return Scenario(
        path=str(path),
        digest=digest,
        graph=graph,
        base=base,
        perturbation=perturbation,
        angle_source=source,
        explicit_triples=None if triples is None else tuple(triples),
        construction=construction,
        maneuver=maneuver,
        integrator=_built("integrator", IntegratorConfig, **doc.get("integrator", {})),
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
        rows = scenario.explicit_triples
        T = AngleIndexSet.from_triples(rows)
        if len(T) != len(rows):  # two rows name one angle
            _refuse_repeat(rows, lambda t: (t[0], *sorted(t[1:])), "angles.triples")
        T.validate_for(g)
        return T
    if source == "algorithm1":
        return algorithm1_set(g, scenario.base, seed=seed, bearing=scenario.bearing)
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


def _sigma_tail(values: np.ndarray, k: int = 6) -> str:
    return ";".join(repr(float(s)) for s in values[-k:])


# ---------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------


def _trajectory_csv(result, stream) -> None:
    """t, p1x, p1y, ..., pnx, pny: the recorded table as it is."""
    n = result.positions.shape[1]
    header = "t" + "".join(f",p{i}x,p{i}y" for i in range(1, n + 1))
    stream.write((header + "\n").encode("ascii"))
    _kernels.write_rows(stream, result.table)


def _cost_csv(result, stream) -> None:
    """t, V_F, V_M, V, centroid_x, centroid_y, scale (V_M zero without a
    maneuver, keeping the column order fixed)."""
    vm = result.vm if result.vm is not None else np.zeros_like(result.vf)
    columns = (result.times, result.vf, vm, result.v, result.centroid, result.scale)
    stream.write(b"t,V_F,V_M,V,centroid_x,centroid_y,scale\n")
    _kernels.write_rows(stream, np.column_stack(columns))


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
        ("bearing", sc.bearing),
        ("angle", is_infinitesimally_angle_rigid(g, p, T)),
    ):
        report[f"{name}_rigid"] = r.verdict
        report[f"{name}_rank"] = r.rank
        report[f"{name}_nullspace_dim"] = r.nullspace_dim
        report[f"{name}_sigma_tail"] = _sigma_tail(r.singular_values)
        report[f"{name}_tol"] = r.tol  # the verdict's cutoff for sigma

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
    # the triangle set has 2n - 4 triples only on triangulated Laman graphs
    laman = source == "triangle_formation" and sc.laman_witness[0] is not None
    if source == "laman_minimal" or laman:
        report["expected_size"] = 2 * n - 4
    elif source == "laman_global":
        report["expected_size"] = (3 * n - 7) if n >= 4 else 2 * n - 4
    elif source == "algorithm1":
        report["expected_size"] = 2 * m - n
    cells = ["{},{},{}".format(*t) for t in T.triples]
    report["triples"] = ";".join(cells)
    lines = "".join(c + "\n" for c in cells).encode()
    return [("triples.txt", lambda fh: fh.write(lines))]


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
        ("plot.gp", lambda fh: fh.write(_PLOT_STUB.encode())),
    ]


# the verb bodies: each adds its lines to the report and returns the
# files it writes into --out as (name, writer) pairs, writer(stream) of
# a binary stream; text goes out as UTF-8
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


# built on first use, not at import; each parse fills a fresh namespace
@cache
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


def _check_out(out_dir) -> None:
    """Refuse, without creating anything, an --out that cannot become a
    directory, with the message the write block would give: it exists
    and is not a directory, or so is its nearest existing ancestor."""
    probe = out_dir
    try:
        while not probe.exists() and probe != probe.parent:
            probe = probe.parent
        if not probe.is_dir():
            err = errno.EEXIST if probe == out_dir else errno.ENOTDIR
            raise OSError(err, os.strerror(err))
    except OSError as exc:  # also a stat that is refused, e.g. EACCES
        raise ValidationError(f"--out {out_dir}: {exc.strerror}") from exc


def _failed(exc, stream) -> int:
    """Write exc under its _EXIT_POLICY prefix; its exit code."""
    code, kind = next(row[1:] for row in _EXIT_POLICY if isinstance(exc, row[0]))
    stream.write(f"{kind}: {exc}\n")
    return code


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
                    f"--seed-override seeds nothing in {verb} for this scenario"
                )
            if perturbed:
                sc.perturbation = PerturbationSpec(
                    sc.perturbation.amplitude, seed_override
                )
        T = resolve_angle_set(sc, seed=seed_override)
        if out_dir is not None:  # before the run, which may take minutes
            _check_out(out_dir)
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
            files.append(("report.txt", lambda fh: fh.write(text.encode())))
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
                for name, write in files:
                    with (out_dir / name).open("wb") as fh:
                        write(fh)
            except OSError as exc:
                raise ValidationError(
                    f"--out {out_dir}: {exc.strerror or exc}"
                ) from exc
        stream.write(text)
        return EXIT_OK
    except (AngleformError, ArithmeticError, ValueError) as exc:
        return _failed(exc, stream)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stream = sys.stdout

    if args.verb == "selftest":
        t0 = time.perf_counter()
        failures = cmd_selftest(stream)
        sys.stderr.write(f"selftest took {time.perf_counter() - t0:.1f}s\n")
        return EXIT_OK if failures == 0 else EXIT_NUMERICAL

    stems = [Path(s).stem for s in args.scenario]
    try:
        if args.seed_override is not None and args.seed_override < 0:
            raise ValidationError(
                f"--seed-override must be nonnegative, got {args.seed_override}"
            )
        if len(args.scenario) > 1 and not args.batch:
            raise ValidationError("multiple scenarios need --batch")
        if args.batch and len(set(stems)) != len(stems):
            raise ValidationError("batch scenarios must have distinct names")
    except ValidationError as exc:
        return _failed(exc, stream)

    worst = EXIT_OK
    for sc_path, stem in zip(args.scenario, stems):
        out_dir = None if args.out is None else Path(args.out)
        if args.batch and out_dir is not None:
            out_dir = out_dir / stem
        code = _run_one(args.verb, sc_path, out_dir, args.seed_override, stream)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
