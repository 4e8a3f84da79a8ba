import argparse
import contextlib
import errno
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleform import _kernels, cli, graph, rigidity
from angleform.errors import ParseError, ValidationError
from angleform.formation import FormationSpec, IntegratorConfig, simulate
from angleform.geometry import angle_terms
from angleform.graph import Graph, build_laman
from angleform.index_sets import laman_minimal_set
from angleform.rigidity import AngleIndexSet, Configuration
from helpers import nondegenerate_points, random_construction

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _write(tmp_path, doc, name="s.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _base_doc():
    return {
        "schema": 1,
        "graph": {
            "n": 5,
            "edges": [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [3, 4], [4, 5]],
        },
        "configuration": {
            "generator": {"kind": "regular_polygon", "n": 5, "radius": 1.0},
            "perturbation": {"amplitude": 0.3, "seed": 4},
        },
        "angles": {"source": "triangle_formation"},
        "integrator": {"t_final": 1.0},
    }


def _table(fields=cli._FIELDS, path=()):
    """(key path, kind, required) of every field and block of the
    scenario table."""
    for key, (kind, required) in fields.items():
        yield path + (key,), kind, required
        if isinstance(kind, dict):
            yield from _table(kind, path + (key,))


_TABLE_PATHS = [".".join(path) for path, _, _ in _table()]


def _names_a_field(message, scenario):
    """Whether a parse or validation error message starts with a table
    path (indices aside) or with the scenario's path."""
    field = message.split(": ")[0]
    named = re.sub(r"\[\d+\]", "", field)
    return named in _TABLE_PATHS or field.startswith(str(scenario))


# ---------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------


def test_load_scenario_roundtrip(tmp_path):
    sc = cli.load_scenario(_write(tmp_path, _base_doc()))
    assert sc.graph.n == 5 and sc.graph.m == 7
    assert sc.base.n == 5
    assert sc.perturbation.seed == 4
    assert sc.angle_source == "triangle_formation"
    assert sc.maneuver is None
    assert sc.integrator.t_final == 1.0
    assert len(sc.digest) == 64


def test_load_scenario_points(tmp_path):
    doc = _base_doc()
    doc["configuration"] = {"points": [[0, 0], [1, 0], [2, 1], [0, 2], [-1, 1]]}
    sc = cli.load_scenario(_write(tmp_path, doc))
    assert np.array_equal(sc.base.point(3), [2.0, 1.0])
    assert sc.perturbation is None
    assert sc.initial_configuration().pts is sc.base.pts


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("schema"), "schema"),
        (lambda d: d.update(schema=99), "version"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d["graph"].pop("edges"), "edges"),
        (lambda d: d["graph"].update(edges=[[1]]), "pair"),
        (lambda d: d["configuration"].pop("generator"), "exactly one"),
        (
            lambda d: d["configuration"].update(points=[[0, 0]] * 5),
            "exactly one",
        ),
        (lambda d: d["angles"].update(source="bogus"), "bogus"),
        (lambda d: d["angles"].update(triples=[[1, 2, 3]]), "explicit"),
        (
            lambda d: d["configuration"]["generator"].update(kind="spiral"),
            "spiral",
        ),
        (lambda d: d.update(maneuver={"leaders": [3, 4]}), "displacement"),
    ],
)
def test_load_scenario_parse_errors(tmp_path, mutate, needle):
    doc = _base_doc()
    mutate(doc)
    sc = _write(tmp_path, doc)
    with pytest.raises(ParseError) as err:
        cli.load_scenario(sc)
    assert needle in str(err.value)
    assert _names_a_field(str(err.value), sc)


def _full_doc():
    """_base_doc with every optional block of the table present."""
    doc = _base_doc()
    doc["construction"] = {"steps": [[3, 1, 2], [4, 1, 3], [5, 1, 4]]}
    doc["maneuver"] = {"leaders": [3, 4], "displacement": [-0.5, 0.0]}
    return doc


@pytest.mark.parametrize(
    "path,kind,required", [pytest.param(*f, id=".".join(f[0])) for f in _table()]
)
def test_every_table_field_is_typed_and_named(tmp_path, path, kind, required):
    """A mistyped field, an unknown field in a block and a missing
    required field are each a parse error that names the field."""
    *parents, key = path
    where = ".".join(parents) if parents else str(tmp_path / "s.json")

    def refused(mutate):
        doc = _full_doc()
        mutate(doc)
        with pytest.raises(ParseError) as err:
            cli.load_scenario(_write(tmp_path, doc))
        return str(err.value)

    wrong = "x" if isinstance(kind, (dict, cli._Rows)) else {}
    assert refused(_set(path, wrong)).startswith(f"{where}.{key}: expected ")
    if isinstance(kind, dict):
        unknown = refused(_set(path + ("zz",), 1))
        assert unknown == f"{'.'.join(path)}: unknown field(s) zz"
    if required:
        missing = refused(lambda doc: functools.reduce(dict.get, parents, doc).pop(key))
        assert missing == f"{where}: missing field {key!r}"


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"schema": 1, "graph": }')
    with pytest.raises(ParseError) as err:
        cli.load_scenario(p)
    assert "line 1" in str(err.value)


def test_load_scenario_semantic_errors(tmp_path):
    doc = _base_doc()
    doc["graph"]["edges"][0] = [0, 7]
    with pytest.raises(Exception) as err:
        cli.load_scenario(_write(tmp_path, doc))
    assert "(0, 7)" in str(err.value)

    doc = _base_doc()
    doc["configuration"] = {"points": [[0, 0], [1, 0]]}
    with pytest.raises(ValidationError):
        cli.load_scenario(_write(tmp_path, doc))


def test_repeated_edge_rows_are_refused(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "example1.json").read_text())
    doc["graph"]["edges"].append([2, 1])  # row 0 is [1, 2]
    assert cli.main(["analyze", "--scenario", str(_write(tmp_path, doc))]) == 2
    assert capsys.readouterr().out == (
        "validation error: graph.edges[7]: (2, 1) repeats graph.edges[0]\n"
    )
    assert Graph(5, [[1, 2], [2, 1]]).m == 1  # the library merges them


def test_repeated_explicit_triples_are_refused(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "example2.json").read_text())
    doc["angles"]["triples"] = [[1, 2, 3], [1, 3, 2], [1, 2, 3]]
    assert cli.main(["indexset", "--scenario", str(_write(tmp_path, doc))]) == 2
    assert capsys.readouterr().out == (
        "validation error: angles.triples[1]: (1, 3, 2) repeats angles.triples[0]\n"
    )
    assert len(AngleIndexSet(doc["angles"]["triples"])) == 1


def test_shipped_scenarios_never_search_for_repeats(monkeypatch):
    """The repeat search runs only once a count shows a repeat."""

    def searched(*args):
        raise AssertionError("searched for a repeat")

    monkeypatch.setattr(cli, "_refuse_repeat", searched)
    for name in ("example1.json", "example2.json", "example3.json"):
        cli.resolve_angle_set(cli.load_scenario(SCENARIOS / name))


@pytest.mark.parametrize(
    "angles,message",
    [
        ({}, "angles: missing field 'source'"),
        ({"source": "bogus"}, "angles.source: 'bogus' is not one of"),
    ],
    ids=["missing-source", "unknown-source"],
)
def test_structure_is_checked_before_meaning(tmp_path, capsys, angles, message):
    doc = _base_doc()
    doc["graph"]["n"] = 0  # a validation fault, found only after the parse fault
    doc["angles"] = angles
    assert cli.main(["analyze", "--scenario", str(_write(tmp_path, doc))]) == 4
    assert capsys.readouterr().out.startswith(f"parse error: {message}")


def test_resolve_angle_set_needs_witness_or_laman(tmp_path):
    doc = _base_doc()
    doc["graph"] = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}
    doc["configuration"] = {"points": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    doc["angles"] = {"source": "laman_minimal"}
    sc = cli.load_scenario(_write(tmp_path, doc))
    with pytest.raises(ValidationError, match="'laman_minimal' needs a triangulated"):
        cli.resolve_angle_set(sc)


def test_resolve_angle_set_checks_witness_graph(tmp_path):
    doc = _base_doc()
    doc["angles"] = {"source": "laman_minimal"}
    doc["construction"] = {"steps": [[3, 1, 2], [4, 1, 2], [5, 1, 2]]}
    sc = cli.load_scenario(_write(tmp_path, doc))
    with pytest.raises(ValidationError, match="does not build the scenario graph"):
        cli.resolve_angle_set(sc)  # builds a different edge set


# ---------------------------------------------------------------------
# commands through main(): exit codes and artifacts
# ---------------------------------------------------------------------


def test_main_analyze_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, _base_doc(), "ok.json")
    assert cli.main(["analyze", "--scenario", str(ok)]) == 0
    out = capsys.readouterr().out
    assert "angle_rigid=true" in out
    assert "witness_satisfied=true" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["analyze", "--scenario", str(bad)]) == 4

    doc = _base_doc()
    doc["graph"]["edges"][0] = [0, 7]
    assert cli.main(
        ["analyze", "--scenario", str(_write(tmp_path, doc, "edge.json"))]
    ) == 2


def test_main_indexset_writes_triples(tmp_path, capsys):
    sc = _write(tmp_path, _base_doc())
    out_dir = tmp_path / "out"
    assert cli.main(
        ["indexset", "--scenario", str(sc), "--out", str(out_dir)]
    ) == 0
    lines = (out_dir / "triples.txt").read_text().strip().splitlines()
    assert lines == ["1,2,3", "1,3,4", "1,4,5", "2,1,3", "3,1,4", "4,1,5"]
    report = (out_dir / "report.txt").read_text()
    assert "size=6" in report and "expected_size=6" in report


K4_EDGES = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]


@pytest.mark.parametrize(
    "edges, want",
    [(None, ["size=6", "expected_size=6"]), (K4_EDGES, ["size=8"])],
    ids=["fan", "K4"],
)
def test_indexset_expects_2n_minus_4_triangle_triples_on_laman_graphs_only(
    tmp_path, capsys, edges, want
):
    """2n - 4 counts the triangle set of a triangulated Laman graph; K4
    has four triangles, eight triples, and no such bound."""
    doc = _base_doc()
    if edges is not None:
        doc["graph"] = {"n": 4, "edges": edges}
        doc["configuration"]["generator"]["n"] = 4
    assert cli.main(["indexset", "--scenario", str(_write(tmp_path, doc))]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r for r in rows if r.startswith(("size=", "expected_size="))] == want


def test_laman_global_source_end_to_end(tmp_path, capsys):
    """The recognized fan's global set: 3n - 7 triples, as indexset
    expects, and angle rigid at the pentagon."""
    doc = _base_doc()
    doc["angles"] = {"source": "laman_global"}
    sc = str(_write(tmp_path, doc))
    assert cli.main(["indexset", "--scenario", sc]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r for r in rows if r.startswith(("size=", "expected_size="))] == [
        "size=8", "expected_size=8",
    ]
    assert "triples=1,2,3;1,2,4;1,3,4;1,3,5;1,4,5;2,1,3;3,1,4;4,1,5" in rows
    assert cli.main(["analyze", "--scenario", sc]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert {"angle_source=laman_global", "angle_set_size=8", "angle_rigid=true",
            "witness_source=recognized"} <= set(rows)


def test_analyze_names_the_degenerate_triangle(tmp_path, capsys):
    doc = _base_doc()
    # (1, 2, 3) lies on the x axis, the first triangle and the only flat one
    doc["configuration"] = {"points": [[0, 0], [1, 0], [2, 0], [1, 1], [0, 1]]}
    assert cli.main(["analyze", "--scenario", str(_write(tmp_path, doc))]) == 0
    rows = capsys.readouterr().out.splitlines()
    at = rows.index("strongly_nondegenerate=false")
    assert rows[at + 1] == "degenerate_triangle=1,2,3"
    assert {"witness_strongly_nondegenerate=false", "witness_satisfied=false"} <= set(
        rows
    )


def test_simulate_far_from_the_origin_exits_3(tmp_path, capsys):
    """Every agent starts 9e8 from the origin, within the blow-up limit
    of 1e9 that the loader admits, and the maneuver stretches the leader
    edge toward 1e9: the check after the step that passes the limit
    stops the run."""
    doc = _base_doc()
    pts = Configuration.regular_polygon(5).pts + 9e8
    doc["configuration"]["points"] = pts.tolist()
    del doc["configuration"]["generator"]
    doc["maneuver"] = {"leaders": [1, 2], "displacement": [1e9, 0.0]}
    sc = str(_write(tmp_path, doc))
    assert cli.main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().out == (
        "numerical failure: simulation aborted at t=0.112000: "
        "coordinate magnitude exceeded 1e+09\n"
    )


def test_simulate_refuses_a_witness_off_the_graph(tmp_path, capsys):
    """The construction block builds a graph the fan does not contain;
    the triangle angle source does not need it, simulate checks it."""
    doc = _base_doc()
    doc["construction"] = {"steps": [[3, 1, 2], [4, 1, 2], [5, 1, 2]]}
    sc = str(_write(tmp_path, doc))
    assert cli.main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out == (
        "validation error: construction: witness edges [(2, 4), (2, 5)] absent "
        "from graph\n"
    )


def test_simulate_builds_the_construction_and_checks_the_angle_set_once(
    tmp_path, monkeypatch
):
    """laman_witness and the formation spec share one build, and only the
    spec checks the angle set against the graph."""
    calls = {"build_laman": 0, "validate_for": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(graph, "build_laman", counted("build_laman", graph.build_laman))
    monkeypatch.setattr(
        AngleIndexSet, "validate_for", counted("validate_for", AngleIndexSet.validate_for)
    )
    doc = _shipped("example1.json")
    doc["angles"]["source"] = "laman_minimal"
    sc = str(_write(tmp_path, doc))
    assert cli.main(["simulate", "--scenario", sc, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"build_laman": 1, "validate_for": 1}


@pytest.mark.parametrize("verb", ["analyze", "indexset", "simulate"])
def test_each_verb_checks_an_explicit_angle_set_once(tmp_path, monkeypatch, verb):
    """resolve_angle_set checks example2's explicit set; the formation
    spec and the angle matrix find it checked for that graph."""
    checks = []
    real = AngleIndexSet._check
    monkeypatch.setattr(AngleIndexSet, "_check", lambda T, g: checks.append(g) or real(T, g))
    sc = str(SCENARIOS / "example2.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([verb, "--scenario", sc, "--out", str(tmp_path / "o")]) == 0
    assert len(checks) == 1


def test_main_indexset_numerical_exit(tmp_path):
    doc = _base_doc()
    doc["graph"] = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}
    doc["configuration"] = {"points": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    doc["angles"] = {"source": "algorithm1"}
    assert cli.main(
        ["indexset", "--scenario", str(_write(tmp_path, doc))]
    ) == 3


def test_main_simulate_outputs(tmp_path, capsys):
    sc = _write(tmp_path, _base_doc())
    out_dir = tmp_path / "run"
    assert cli.main(
        ["simulate", "--scenario", str(sc), "--out", str(out_dir)]
    ) == 0
    traj = (out_dir / "trajectory.csv").read_text().splitlines()
    cost = (out_dir / "cost.csv").read_text().splitlines()
    assert traj[0] == "t,p1x,p1y,p2x,p2y,p3x,p3y,p4x,p4y,p5x,p5y"
    assert cost[0] == "t,V_F,V_M,V,centroid_x,centroid_y,scale"
    assert len(traj) == len(cost) == 12  # header + 11 samples in [0, 1]
    report = (out_dir / "report.txt").read_text()
    assert "converged=false" in report
    assert "output_1=trajectory.csv" in report
    assert (out_dir / "plot.gp").exists()


def test_main_simulate_requires_out(tmp_path):
    sc = _write(tmp_path, _base_doc())
    assert cli.main(["simulate", "--scenario", str(sc)]) == 2


@pytest.mark.parametrize(
    "field,literal",
    [
        ("record_stride", "NaN"),
        ("t_final", "1e400"),
        ("record_stride", "Infinity"),
        ("h", "Infinity"),
        ("cost_tol", "NaN"),
        ("grad_tol", "-Infinity"),
    ],
)
def test_main_rejects_non_finite_integrator_field(tmp_path, capsys, field, literal):
    doc = _base_doc()
    doc["integrator"][field] = "@"
    sc = tmp_path / "s.json"
    sc.write_text(json.dumps(doc).replace('"@"', literal))
    code = cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"integrator: {field} must be finite" in capsys.readouterr().out
    assert not (tmp_path / "run").exists()


def _set(path, value):
    """A mutation of the scenario document that sets one nested field,
    creating the blocks on its path that are absent."""

    def mutate(doc):
        *parents, last = path
        for key in parents:  # an absent block is created
            doc = doc.setdefault(key, {}) if isinstance(doc, dict) else doc[key]
        doc[last] = value

    return mutate


def _points(doc):
    doc["configuration"].pop("generator")
    doc["configuration"]["points"] = [["0.5", 0], [1, 0], [1, 1], [0, 1], [0, 2]]


def _many_agents(doc):
    doc["graph"]["n"] = doc["configuration"]["generator"]["n"] = 10**13


def _explicit(triple):
    """A mutation to the explicit angle source with the one triple."""
    return _set(("angles",), {"source": "explicit", "triples": [triple]})


HUGE = 10**400  # a JSON integer beyond the double range
# the regular pentagon at radius 1e160, given point by point
FAR = Configuration.regular_polygon(5, 1e160).pts.tolist()


def _far_points(doc):
    doc["configuration"] = {"points": FAR}


def _nan_point(doc):
    points = Configuration.regular_polygon(5).pts.tolist()
    points[2][0] = math.nan
    doc["configuration"] = {"points": points}


def _twice(block, key_value):
    """A mutation that json.dumps cannot make: the file text with
    key_value put first into block, which then gives that key twice;
    the test writes the text it returns."""
    head = f'"{block}": {{'
    return lambda doc: json.dumps(doc).replace(head, f"{head}{key_value}, ", 1)


@pytest.mark.parametrize(
    "mutate,code,needle",
    [
        (
            _set(("graph", "edges", 0), [1.7, 2]),
            4,
            "graph.edges[0][0]: expected int, got float",
        ),
        (
            _set(("construction", "steps", 0), [3.9, 1, 2]),
            4,
            "construction.steps[0][0]: expected int, got float",
        ),
        (
            _set(("graph", "edges", 0), [True, 2]),
            4,
            "graph.edges[0][0]: expected int, got bool",
        ),
        (
            _set(("configuration", "perturbation", "seed"), True),
            4,
            "configuration.perturbation.seed: expected int, got bool",
        ),
        (
            _set(("configuration", "generator", "radius"), True),
            4,
            "configuration.generator.radius: expected int/float, got bool",
        ),
        (
            _set(("integrator", "h"), True),
            4,
            "integrator.h: expected int/float, got bool",
        ),
        (_set(("graph", "n"), True), 4, "graph.n: expected int, got bool"),
        (
            _set(("graph", "edges", 0), ["x", 2]),
            4,
            "graph.edges[0][0]: expected int, got str",
        ),
        (_points, 4, "configuration.points[0][0]: expected int/float, got str"),
        (
            _set(("configuration", "perturbation", "amplitude"), math.nan),
            2,
            "configuration.perturbation: amplitude must be finite",
        ),
        (
            _set(("configuration", "generator", "radius"), HUGE),
            4,
            "configuration.generator.radius: integer too large for a float",
        ),
        (
            _set(("configuration",), {"points": [[0, HUGE]] + [[1, 0]] * 4}),
            4,
            "configuration.points[0][1]: integer too large for a float",
        ),
        (
            _set(("maneuver",), {"leaders": [1, 2], "displacement": [1, HUGE]}),
            4,
            "maneuver.displacement[1]: integer too large for a float",
        ),
        (
            _set(("configuration", "perturbation", "amplitude"), HUGE),
            4,
            "configuration.perturbation.amplitude: integer too large for a float",
        ),
        (_set(("integrator", "t_final"), HUGE), 4, "integrator.t_final: integer too"),
        (
            _set(("integrator", "h"), 1e-9),
            2,
            "integrator: t_final 50.0 at h 1e-09 needs 5e+10 RK4",
        ),
        (
            _set(("integrator",), {"h": 1e-300, "t_final": 1e300}),
            2,
            "integrator: t_final 1e+300 at h 1e-300 needs inf RK4 steps, over the limit",
        ),
        (_many_agents, 2, "graph.n: 10000000000000 is over the limit of 10000"),
        (
            _set(("configuration", "perturbation", "seed"), -1),
            2,
            "configuration.perturbation: seed must be nonnegative, got -1",
        ),
        (
            _set(("configuration", "perturbation", "amplitude"), 1e308),
            2,
            "configuration.perturbation: amplitude must be finite and nonnegative "
            "(2 * amplitude too), got 1e+308",
        ),
        (
            _far_points,
            2,
            f"configuration.points[0][0]: {FAR[0][0]!r} is over the coordinate "
            "limit of 1e+09",
        ),
        (
            _set(("configuration", "generator", "radius"), 1e160),
            2,
            "configuration.generator.radius: 1e+160 is over the coordinate limit "
            "of 1e+09",
        ),
        (
            _set(("configuration", "perturbation", "amplitude"), 1e9),
            2,
            "configuration.perturbation.amplitude: 1000000000.0 takes coordinates "
            "to 1000000001.0, which is over the coordinate limit of 1e+09",
        ),
        (
            _set(("maneuver",), {"leaders": [1, 2], "displacement": [1, -2e9]}),
            2,
            "maneuver.displacement[1]: -2000000000.0 is over the coordinate limit "
            "of 1e+09",
        ),
        (
            _nan_point,
            2,
            "configuration.points[2][0]: nan is over the coordinate limit of 1e+09",
        ),
        (
            _set(("configuration", "generator", "radius"), math.nan),
            2,
            "configuration.generator.radius: nan is over the coordinate limit of "
            "1e+09",
        ),
        (
            _set(("maneuver",), {"leaders": [1, 2], "displacement": [math.nan, 1]}),
            2,
            "maneuver.displacement[0]: nan is over the coordinate limit of 1e+09",
        ),
        (_twice("integrator", '"h": 0.5'), 4, "s.json: repeated key 'h'"),
        (_twice("generator", '"radius": NaN'), 4, "s.json: repeated key 'radius'"),
        (_set(("graph", "edges", 0), [3, 3]), 2, "graph.edges: self-loop at vertex 3"),
        (
            _set(("graph", "edges", 0), [3, 9]),
            2,
            "graph.edges: edge (3, 9) violates 1 <= i < j <= 5",
        ),
        (
            _set(("graph", "edges", 0), [1, 2**63]),
            2,
            f"graph.edges: edge (1, {2**63}) violates 1 <= i < j <= 5",
        ),
        (
            _set(("graph", "edges", 0), [1, HUGE]),
            2,
            f"graph.edges: edge (1, {HUGE}) violates 1 <= i < j <= 5",
        ),
        (
            _set(("configuration",), {"points": [[0, 0]]}),
            2,
            "configuration.points: need at least two points",
        ),
        (
            _set(("maneuver",), {"leaders": [1, 1], "displacement": [1, 0]}),
            2,
            "maneuver.leaders: leader vertices must differ",
        ),
        (
            _set(("maneuver",), {"leaders": [1, 2], "displacement": [0, 0]}),
            2,
            "maneuver.displacement: displacement must be nonzero",
        ),
        (
            _set(("integrator", "method"), "euler"),
            2,
            "integrator: unsupported method 'euler'",
        ),
        (
            _set(("construction", "steps", 2), [4, 1, 3]),
            2,
            "construction.steps: inserted labels [3, 4] must be exactly 3..5",
        ),
        (
            _set(("construction", "steps", 2), [5, 5, 4]),
            2,
            "construction.steps: malformed step (5, 5, 4)",
        ),
        (
            _set(("construction", "steps", 2), [5, 2, 4]),
            2,
            "construction.steps: step inserts 5 on (2, 4), not an edge built so far",
        ),
        (
            _explicit([0, 1, 2]),
            2,
            "angles.triples: triple (0, 1, 2) has a vertex label below 1",
        ),
        (_explicit([1, 2, 2]), 2, "angles.triples: triple (1, 2, 2) repeats a vertex"),
        (
            _explicit([1, 2, 2**63 + 5]),
            2,
            f"angles.triples: triple (1, 2, {2**63 + 5}) has a vertex label past int64",
        ),
        (_explicit([2, 1, 4]), 2, "angles.triples: triple (2, 1, 4) needs edge (2, 4)"),
    ],
    ids=[
        "float-edge",
        "float-step",
        "bool-edge",
        "bool-seed",
        "bool-radius",
        "bool-h",
        "bool-n",
        "str-edge",
        "str-point",
        "nan-amplitude",
        "huge-radius",
        "huge-point",
        "huge-displacement",
        "huge-amplitude",
        "huge-t_final",
        "tiny-h",
        "infinite-steps",
        "huge-n",
        "negative-seed",
        "overflowing-amplitude",
        "far-point",
        "far-radius",
        "far-amplitude",
        "far-displacement",
        "nan-point",
        "nan-radius",
        "nan-displacement",
        "repeated-h",
        "repeated-radius",
        "self-loop",
        "edge-out-of-range",
        "edge-past-int64",
        "edge-past-double",
        "one-point",
        "equal-leaders",
        "zero-displacement",
        "unknown-method",
        "repeated-label",
        "malformed-step",
        "step-on-a-non-edge",
        "triple-below-one",
        "triple-repeats-a-vertex",
        "triple-past-int64",
        "triple-on-a-non-edge",
    ],
)
def test_main_rejects_mistyped_scenario_fields(
    tmp_path, capsys, mutate, code, needle
):
    doc = json.loads((SCENARIOS / "example1.json").read_text())
    text = mutate(doc)
    sc = _write(tmp_path, doc)
    if isinstance(text, str):  # the file text of a _twice mutation
        sc.write_text(text)
    for verb in ("analyze", "indexset", "simulate"):
        argv = [verb, "--scenario", str(sc), "--out", str(tmp_path / verb)]
        assert cli.main(argv) == code
        assert needle in capsys.readouterr().out
        assert not (tmp_path / verb).exists()


def _target(points):
    """A mutation that gives the target point by point, unperturbed."""
    return _set(("configuration",), {"points": points})


@pytest.mark.parametrize(
    "mutate,message",
    [
        (
            _target([[0, 0], [1, 0], [2, 0], [1, 1], [0, 1]]),
            "construction: witness triangle (1, 2, 3) is collinear at the target",
        ),
        (
            _target([[0, 0], [0, 0], [2, 0], [1, 1], [0, 1]]),
            "configuration: points 2 and 1 coincide (distance 0.000e+00)",
        ),
    ],
    ids=["collinear-witness", "coincident-witness"],
)
def test_simulate_witness_refusals_name_a_field(tmp_path, capsys, mutate, message):
    """The construction block's checks at the target run in simulate
    alone: a collinear witness triangle names the construction, and a
    coincident pair, which the same check finds, the configuration."""
    doc = json.loads((SCENARIOS / "example1.json").read_text())
    mutate(doc)
    sc = _write(tmp_path, doc)
    assert cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out == f"validation error: {message}\n"
    assert _names_a_field(message, sc)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["analyze", "simulate"])
def test_points_that_underflow_are_refused_without_a_warning(
    tmp_path, capsys, recwarn, verb
):
    """At radius 1e-200 the squared differences underflow to 0, so the
    bearings are not finite; the coincidence refusal is the answer."""
    doc = _shipped("example1.json")
    doc["configuration"]["generator"]["radius"] = 1e-200
    sc = _write(tmp_path, doc)
    assert cli.main([verb, "--scenario", str(sc), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out.startswith("validation error: configuration: points")
    assert not recwarn.list


def test_main_refuses_unbounded_trajectory(tmp_path, capsys):
    doc = _base_doc()
    doc["integrator"] = {"t_final": 1e4, "record_stride": 0.001}
    sc = _write(tmp_path, doc)
    out_dir = str(tmp_path / "run")
    assert cli.main(["simulate", "--scenario", str(sc), "--out", out_dir]) == 2
    out = capsys.readouterr().out
    assert "t_final 10000.0 at record_stride 0.001" in out
    assert "limit of 2000000 recorded points" in out
    assert not (tmp_path / "run").exists()


HAVE_CC = _kernels.find_compiler() is not None


def _backend(name):
    """The named kernel backend; C is skipped where no compiler is."""
    if name == "numpy":
        return _kernels.make_numpy_backend()
    if not HAVE_CC:
        pytest.skip("no C compiler on PATH")
    return _kernels.make_c_backend()


def _simulated(sc, out):
    """simulate's output files by name, after a clean exit."""
    assert cli.main(["simulate", "--scenario", str(sc), "--out", str(out)]) == 0
    return {f.name: f.read_bytes() for f in out.iterdir()}


def _simulated_on_both_backends(sc, tmp_path, monkeypatch):
    """simulate's files on the numpy and C backends, which must match
    byte for byte but for the report's backend= line; returns numpy's."""
    runs = []
    for name in ("numpy", "c") if HAVE_CC else ("numpy",):
        monkeypatch.setattr(_kernels, "_active", _backend(name))
        files = _simulated(sc, tmp_path / name)
        backend = f"backend={name}\n".encode()
        assert backend in files["report.txt"]
        files["report.txt"] = files["report.txt"].replace(backend, b"")
        runs.append(files)
    assert runs[0] == runs[-1]
    return runs[0]


def test_edgeless_graph_simulates_alike_on_both_backends(tmp_path, monkeypatch):
    doc = {
        "schema": 1,
        "graph": {"n": 3, "edges": []},
        "configuration": {"points": [[0, 0], [1, 0], [0, 1]]},
        "angles": {"source": "full"},
    }
    files = _simulated_on_both_backends(_write(tmp_path, doc), tmp_path, monkeypatch)
    assert files["trajectory.csv"] == (
        b"t,p1x,p1y,p2x,p2y,p3x,p3y\n0.0,0.0,0.0,1.0,0.0,0.0,1.0\n"
    )


@pytest.mark.parametrize("name", ["example1.json", "example2.json", "example3.json"])
def test_shipped_scenarios_simulate_alike_on_both_backends(tmp_path, monkeypatch, name):
    # the backends share one arithmetic, so every file matches byte for byte
    sc = _write(tmp_path, _shipped(name, t_final=1.0), name)
    _simulated_on_both_backends(sc, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", ["numpy", "c"])
def test_record_stride_far_past_t_final(tmp_path, monkeypatch, name):
    monkeypatch.setattr(_kernels, "_active", _backend(name))
    doc = _base_doc()
    doc["integrator"] = {"h": 0.01, "t_final": 1.0, "record_stride": 1e300}
    sc = _write(tmp_path, doc, "far.json")
    if name == "numpy":
        far = _simulated(sc, tmp_path / "far")
    else:
        # a separate process: at 1e300 the C kernel once took a modulus
        # by 0, and the signal would end the test run
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               _kernels.ENV_FLAG: "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "angleform", "simulate", "--scenario", str(sc),
             "--out", str(tmp_path / "far")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        far = {f.name: f.read_bytes() for f in (tmp_path / "far").iterdir()}
    assert f"backend={name}\n".encode() in far["report.txt"]
    # the same files as a stride of exactly t_final: samples at 0 and 1
    doc["integrator"]["record_stride"] = 1.0
    at = _simulated(_write(tmp_path, doc, "at.json"), tmp_path / "at")
    for f in ("trajectory.csv", "cost.csv"):
        assert far[f] == at[f], f
    rows = far["trajectory.csv"].decode().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.0", "1.0"]


@pytest.mark.parametrize(
    "steps,graph,want",
    [
        ([[3, 1, 2], [4, 1, 3], [5, 1, 4]], None, "scenario 3,1,2;4,1,3;5,1,4 true"),
        ([[3, 1, 2], [4, 1, 2], [5, 1, 2]], None, "scenario false"),
        (None, None, "recognized 3,1,2;4,1,3;5,1,4 true"),
        (
            None,
            {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]},  # a cycle
            "none false",
        ),
    ],
    ids=["given", "given-other-graph", "recognized", "none"],
)
def test_analyze_reports_laman_witness(tmp_path, capsys, steps, graph, want):
    doc = _base_doc()
    doc["angles"] = {"source": "full"}
    if steps is not None:
        doc["construction"] = {"steps": steps}
    if graph is not None:
        doc["graph"] = graph
    assert cli.main(["analyze", "--scenario", str(_write(tmp_path, doc))]) == 0
    rows = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    keys = ("witness_source", "witness_steps", "witness_triangulated_laman")
    assert " ".join(rows[k] for k in keys if k in rows) == want
    assert rows["witness_satisfied"] == want.split()[-1]


def test_analyze_decides_laman_witness_once(tmp_path, monkeypatch):
    calls = []
    recognize = cli.recognize_triangulated_laman

    def counted(graph):
        calls.append(graph)
        return recognize(graph)

    monkeypatch.setattr(cli, "recognize_triangulated_laman", counted)
    doc = _base_doc()
    doc["angles"] = {"source": "laman_minimal"}  # no construction block
    assert cli.main(["analyze", "--scenario", str(_write(tmp_path, doc))]) == 0
    assert len(calls) == 1


def _leaf_paths(node, path=()):
    """Key/index paths of every scalar in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


_SHIPPED = {
    p.name: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))
}
# the shipped files all use a generator; this one gives the fuzzer
# configuration.points, explicit triples and a maneuver to mutate
_VARIANT = {
    "schema": 1,
    "graph": {"n": 5, "edges": [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [3, 4], [4, 5]]},
    "configuration": {
        "points": [[1.0, 0.0], [0.3, 0.95], [-0.8, 0.6], [-0.8, -0.6], [0.3, -0.95]],
        "perturbation": {"amplitude": 0.1, "seed": 3},
    },
    "angles": {
        "source": "explicit",
        "triples": [[1, 2, 3], [1, 3, 4], [1, 4, 5], [2, 1, 3], [3, 1, 4], [4, 1, 5]],
    },
    "maneuver": {"leaders": [3, 4], "displacement": [-0.5, 0.0]},
    "integrator": {"t_final": 1.0},
}
_FUZZED = {**_SHIPPED, "variant.json": _VARIANT}
# every scalar of a fuzzed file, and every table path, whether the file
# has that field or not
_LEAVES = [
    (name, path)
    for name, doc in _FUZZED.items()
    for path in dict.fromkeys([*_leaf_paths(doc), *(path for path, _, _ in _table())])
]
_PREFIXES = {2: "validation error: ", 3: "numerical failure: ", 4: "parse error: "}
_SCALARS = st.one_of(
    st.integers(),
    st.floats(),  # NaN and +-inf included
    st.just(float("1e400")),  # what json reads for the literal 1e400
    st.booleans(),
    st.text("1.e-x ", max_size=4),  # full unicode costs seconds when cold
    st.none(),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    leaf=st.sampled_from(_LEAVES),
    value=st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
)
def test_mutated_shipped_scenario_exits_with_a_documented_code(
    tmp_path_factory, leaf, value
):
    name, path = leaf
    doc = json.loads(json.dumps(_FUZZED[name]))
    _set(path, value)(doc)
    sc = _write(tmp_path_factory.mktemp("mutant"), doc, name)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["analyze", "--scenario", str(sc)])
    text = out.getvalue()
    assert code in (0, 2, 3, 4)
    assert text.startswith(_PREFIXES.get(code, "command=analyze\n")), text
    if code in (2, 4):
        assert _names_a_field(text.removeprefix(_PREFIXES[code]), sc), text


def test_cost_csv_roundtrips_against_trajectory(tmp_path):
    # the centroid columns recompute from trajectory.csv; the V_F column
    # is test_cost_csv_vf_is_the_trajectory_series
    files = _simulated(_write(tmp_path, _base_doc()), tmp_path / "run")
    traj_rows = files["trajectory.csv"].decode().splitlines()[1:]
    cost_rows = files["cost.csv"].decode().splitlines()[1:]
    for trow, crow in zip(traj_rows, cost_rows):
        pts = np.array([float(x) for x in trow.split(",")[1:]]).reshape(5, 2)
        cvals = [float(x) for x in crow.split(",")]
        assert np.allclose(pts.mean(axis=0), cvals[4:6], atol=1e-12)


@pytest.mark.parametrize(
    "name,t_final,has_maneuver",
    [("example1.json", None, False), ("example3.json", 2.0, True)],
)
def test_simulate_csv_cells_are_repr_of_the_result(
    tmp_path, monkeypatch, name, t_final, has_maneuver
):
    doc = json.loads((SCENARIOS / name).read_text())
    if t_final is not None:
        doc["integrator"]["t_final"] = t_final
    results = []
    run = cli.simulate

    def kept(*args):
        results.append(run(*args))
        return results[-1]

    monkeypatch.setattr(cli, "simulate", kept)
    out_dir = tmp_path / "run"
    sc = _write(tmp_path, doc, name)
    assert cli.main(["simulate", "--scenario", str(sc), "--out", str(out_dir)]) == 0
    (res,) = results
    assert (res.vm is not None) == has_maneuver

    def cells(csv):
        return [row.split(",") for row in (out_dir / csv).read_text().splitlines()]

    traj, cost = cells("trajectory.csv"), cells("cost.csv")
    n = res.positions.shape[1]
    assert traj[0] == ["t"] + [f"p{i}{axis}" for i in range(1, n + 1) for axis in "xy"]
    assert cost[0] == ["t", "V_F", "V_M", "V", "centroid_x", "centroid_y", "scale"]
    assert len(traj) == len(cost) == len(res.times) + 1
    vm = res.vm if has_maneuver else np.zeros_like(res.vf)
    for s, (trow, crow) in enumerate(zip(traj[1:], cost[1:])):
        want_traj = [res.times[s], *res.positions[s].reshape(-1)]
        want_cost = [
            res.times[s], res.vf[s], vm[s], res.vf[s] + vm[s],
            *res.centroid[s], res.scale[s],
        ]
        assert trow == [repr(float(x)) for x in want_traj]
        assert crow == [repr(float(x)) for x in want_cost]
    if not has_maneuver:
        assert {row[2] for row in cost[1:]} == {"0.0"}


def test_simulate_deterministic_bytes(tmp_path):
    sc = _write(tmp_path, _base_doc())
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--scenario", str(sc), "--out", str(a)])
    cli.main(["simulate", "--scenario", str(sc), "--out", str(b)])
    for name in ("trajectory.csv", "cost.csv", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_changes_run(tmp_path, capsys):
    sc = _write(tmp_path, _base_doc())
    out1 = tmp_path / "r1"
    cli.main(["simulate", "--scenario", str(sc), "--out", str(out1)])
    rep1 = (out1 / "report.txt").read_text()
    out2 = tmp_path / "r2"
    cli.main(
        [
            "simulate", "--scenario", str(sc), "--out", str(out2),
            "--seed-override", "9",
        ]
    )
    rep2 = (out2 / "report.txt").read_text()
    assert "perturbation_seed=4" in rep1
    assert "perturbation_seed=9" in rep2
    v1 = [l for l in rep1.splitlines() if l.startswith("vf_initial=")]
    v2 = [l for l in rep2.splitlines() if l.startswith("vf_initial=")]
    assert v1 != v2


def test_seed_override_must_be_nonnegative(tmp_path, capsys):
    sc = _write(tmp_path, _base_doc())
    out_dir = tmp_path / "run"
    code = cli.main(
        [
            "simulate", "--scenario", str(sc), "--out", str(out_dir),
            "--seed-override", "-1",
        ]
    )
    assert code == 2
    assert "--seed-override must be nonnegative, got -1" in capsys.readouterr().out
    assert not out_dir.exists()


def test_seed_override_without_randomness(tmp_path):
    doc = _base_doc()
    doc["configuration"] = {"points": [[0, 0], [1, 0], [2, 1], [0, 2], [-1, 1]]}
    sc = _write(tmp_path, doc)
    code = cli.main(
        [
            "simulate", "--scenario", str(sc), "--out", str(tmp_path / "o"),
            "--seed-override", "5",
        ]
    )
    assert code == 2


def test_batch_mode(tmp_path, capsys):
    s1 = _write(tmp_path, _base_doc(), "alpha.json")
    doc = _base_doc()
    doc["configuration"]["perturbation"]["seed"] = 11
    s2 = _write(tmp_path, doc, "beta.json")
    out_dir = tmp_path / "batch"
    code = cli.main(
        [
            "simulate", "--batch",
            "--scenario", str(s1), "--scenario", str(s2),
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "alpha" / "trajectory.csv").exists()
    assert (out_dir / "beta" / "trajectory.csv").exists()
    # multiple scenarios without --batch are refused
    assert cli.main(
        [
            "simulate",
            "--scenario", str(s1), "--scenario", str(s2),
            "--out", str(out_dir),
        ]
    ) == 2
    # duplicate stems cannot share one output tree
    assert cli.main(
        [
            "simulate", "--batch",
            "--scenario", str(s1), "--scenario", str(s1),
            "--out", str(out_dir),
        ]
    ) == 2


@pytest.mark.parametrize(
    "args,line",
    [
        (
            ["--seed-override", "-1"],
            "validation error: --seed-override must be nonnegative, got -1\n",
        ),
        (["--scenario", "{s}"], "validation error: multiple scenarios need --batch\n"),
        (
            ["--batch", "--scenario", "{s}"],
            "validation error: batch scenarios must have distinct names\n",
        ),
    ],
    ids=["negative-seed", "no-batch", "same-stems"],
)
def test_main_refusals_before_any_scenario(tmp_path, capsys, args, line):
    sc = str(_write(tmp_path, _base_doc()))
    argv = ["analyze", "--scenario", sc] + [a.format(s=sc) for a in args]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == line


def test_batch_worst_exit_wins(tmp_path):
    good = _write(tmp_path, _base_doc(), "good.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    code = cli.main(
        [
            "analyze", "--batch",
            "--scenario", str(good), "--scenario", str(bad),
        ]
    )
    assert code == 4


def test_analyze_batch_reports_equal_single_runs(tmp_path, capsys):
    """One process runs every verdict of n = 150 and then n = 300 (whose
    matrices are mapped), reusing dgesdd's workspace sizes; each
    report.txt keeps the bytes of its scenario's own run."""
    rng = np.random.default_rng(15)
    paths = []
    for n in (150, 300):
        g = build_laman(random_construction(rng, n))
        doc = {
            "schema": 1,
            "graph": {"n": n, "edges": (g.edge_array + 1).tolist()},
            "configuration": {"points": nondegenerate_points(rng, g).pts.tolist()},
            "angles": {"source": "laman_minimal"},
        }
        paths.append(_write(tmp_path, doc, f"laman{n}.json"))
    argv = ["analyze", "--batch", "--out", str(tmp_path / "batch")]
    assert cli.main(argv + [a for p in paths for a in ("--scenario", str(p))]) == 0
    for p in paths:
        out = tmp_path / "single" / p.stem
        assert cli.main(["analyze", "--scenario", str(p), "--out", str(out)]) == 0
        batch = (tmp_path / "batch" / p.stem / "report.txt").read_bytes()
        assert batch == (out / "report.txt").read_bytes()
    assert capsys.readouterr().out.count("angle_rigid=true") == 4


def test_shipped_scenarios_load():
    for name in ("example1.json", "example2.json", "example3.json"):
        sc = cli.load_scenario(SCENARIOS / name)
        assert sc.graph.n == 5
        T = cli.resolve_angle_set(sc)
        assert len(T) in (4, 6)
    sc3 = cli.load_scenario(SCENARIOS / "example3.json")
    assert sc3.maneuver is not None
    assert sc3.integrator.t_final == 300.0


def test_analyze_report_writes_file(tmp_path):
    sc = _write(tmp_path, _base_doc())
    out_dir = tmp_path / "an"
    cli.main(["analyze", "--scenario", str(sc), "--out", str(out_dir)])
    text = (out_dir / "report.txt").read_text()
    assert "distance_rigid=true" in text
    assert "scenario_sha256=" in text


# ---------------------------------------------------------------------
# the verb pipeline: seed policy, report keys, leaders, --out, size caps
# ---------------------------------------------------------------------


def _shipped(name, t_final=0.2):
    """A shipped scenario cut to a short horizon."""
    doc = json.loads((SCENARIOS / name).read_text())
    doc["integrator"]["t_final"] = t_final
    return doc


@pytest.mark.parametrize("perturbed", [True, False], ids=["perturbed", "fixed"])
@pytest.mark.parametrize("algorithm1", [True, False], ids=["algorithm1", "other"])
@pytest.mark.parametrize("verb", ["analyze", "indexset", "simulate"])
def test_seed_override_is_refused_where_it_seeds_nothing(
    tmp_path, capsys, verb, algorithm1, perturbed
):
    doc = _shipped("example1.json")
    if algorithm1:
        doc["angles"] = {"source": "algorithm1"}
    if not perturbed:
        del doc["configuration"]["perturbation"]
    sc = _write(tmp_path, doc, "example1.json")
    argv = [verb, "--scenario", str(sc), "--out", str(tmp_path / "o")]
    code = cli.main(argv + ["--seed-override", "5"])
    out = capsys.readouterr().out
    # the override seeds algorithm1's selection in every verb and the
    # perturbation in simulate only
    if algorithm1 or (verb == "simulate" and perturbed):
        assert code == 0, out
        if verb == "simulate" and perturbed:
            assert "perturbation_seed=5\n" in out
    else:
        assert code == 2
        assert out == (
            f"validation error: --seed-override seeds nothing in {verb} for "
            "this scenario\n"
        )
        assert not (tmp_path / "o").exists()


def test_analyze_seeds_algorithm1_selection(tmp_path, capsys, monkeypatch):
    seeds = []
    real = cli.algorithm1_set

    def recorder(g, p, seed=None, **kwargs):
        seeds.append(seed)
        return real(g, p, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "algorithm1_set", recorder)
    doc = _shipped("example1.json")
    doc["angles"] = {"source": "algorithm1"}
    sc = str(_write(tmp_path, doc))
    assert cli.main(["analyze", "--scenario", sc, "--seed-override", "7"]) == 0
    assert cli.main(["analyze", "--scenario", sc]) == 0
    assert cli.main(["indexset", "--scenario", sc, "--seed-override", "7"]) == 0
    assert seeds == [7, None, 7]


def test_algorithm1_analyze_factors_each_matrix_once(tmp_path, capsys, monkeypatch):
    """The algorithm1 precheck's bearing verdict is analyze's own: the
    half-size bearing matrix, then the distance and angle matrices."""
    shapes = []
    real = rigidity.numerical_rank

    def counted(M, *args, **kwargs):
        shapes.append(M.shape)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(rigidity, "numerical_rank", counted)
    doc = _shipped("example1.json")
    doc["angles"] = {"source": "algorithm1"}
    assert cli.main(["analyze", "--scenario", str(_write(tmp_path, doc))]) == 0
    assert "bearing_rigid=true\n" in capsys.readouterr().out
    assert shapes == [(7, 10), (7, 10), (2 * 7 - 5, 10)]


def test_scenario_over_the_byte_cap_is_refused_unparsed(tmp_path, capsys):
    sc = tmp_path / "big.json"
    sc.touch()
    os.truncate(sc, cli.MAX_SCENARIO_BYTES + 1)  # sparse: nothing written
    assert cli.main(["analyze", "--scenario", str(sc)]) == 2
    assert capsys.readouterr().out == (
        f"validation error: scenario {sc} is over the limit of 16000000 bytes\n"
    )


def test_scenario_byte_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    sc = _write(tmp_path, _shipped("example1.json"))
    monkeypatch.setattr(cli, "MAX_SCENARIO_BYTES", sc.stat().st_size)
    assert cli.main(["analyze", "--scenario", str(sc)]) == 0
    monkeypatch.setattr(cli, "MAX_SCENARIO_BYTES", sc.stat().st_size - 1)
    assert cli.main(["analyze", "--scenario", str(sc)]) == 2
    assert "over the limit" in capsys.readouterr().out


_HEAD = ["command", "version", "scenario", "scenario_sha256"]
_RANKS = [
    f"{kind}_{key}"
    for kind in ("distance", "bearing", "angle")
    for key in ("rigid", "rank", "nullspace_dim", "sigma_tail", "tol")
]
_ANALYZE_KEYS = (
    _HEAD
    + ["graph_n", "graph_m", "angle_source", "angle_set_size"]
    + _RANKS
    + [
        "strongly_nondegenerate",
        "witness_source",
        "witness_steps",
        "witness_triangulated_laman",
        "witness_strongly_nondegenerate",
        "witness_satisfied",
    ]
)
_SIMULATE_KEYS = _HEAD + [
    "backend", "angle_source", "angle_set_size", "perturbation_amplitude",
    "perturbation_seed", "samples", "t_end", "converged", "vf_initial",
    "vf_final", "v_initial", "v_final", "decay_rate", "in_constraint_set",
    "in_shape_class",
]
_OUTPUTS = ["output_1", "output_2", "output_3"]


@pytest.mark.parametrize(
    "name,verb,keys",
    [
        ("example1.json", "analyze", _ANALYZE_KEYS),
        ("example2.json", "analyze", _ANALYZE_KEYS),
        ("example3.json", "analyze", _ANALYZE_KEYS),
        ("example1.json", "indexset",
         _HEAD + ["angle_source", "size", "expected_size", "triples", "output_1"]),
        ("example2.json", "indexset",
         _HEAD + ["angle_source", "size", "triples", "output_1"]),
        ("example3.json", "indexset",
         _HEAD + ["angle_source", "size", "expected_size", "triples", "output_1"]),
        ("example1.json", "simulate", _SIMULATE_KEYS + _OUTPUTS),
        ("example2.json", "simulate", _SIMULATE_KEYS + _OUTPUTS),
        ("example3.json", "simulate",
         _SIMULATE_KEYS + ["maneuver_error", "in_translation_family"] + _OUTPUTS),
    ],
)
def test_report_key_order(tmp_path, capsys, name, verb, keys):
    sc = _write(tmp_path, _shipped(name), name)
    out_dir = tmp_path / "o"
    assert cli.main([verb, "--scenario", str(sc), "--out", str(out_dir)]) == 0
    text = (out_dir / "report.txt").read_text()
    assert capsys.readouterr().out == text
    assert [line.split("=", 1)[0] for line in text.splitlines()] == keys


# [1, 6]: the 0-based key 0 * 5 + 5 of (1, 6) is that of the edge (2, 1)
@pytest.mark.parametrize(
    "leaders", [[7, 8], [2, 5], [1, 6]], ids=["out-of-range", "no-edge", "aliased-key"]
)
@pytest.mark.parametrize("verb", ["analyze", "indexset", "simulate"])
def test_maneuver_leaders_are_checked_at_load(tmp_path, capsys, verb, leaders):
    doc = _shipped("example3.json")
    doc["maneuver"]["leaders"] = leaders
    sc = _write(tmp_path, doc)
    argv = [verb, "--scenario", str(sc), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out.startswith(
        f"validation error: maneuver.leaders: ({leaders[0]}, {leaders[1]}) "
        "is not an edge"
    )


@pytest.mark.parametrize("verb", ["analyze", "indexset", "simulate"])
def test_unusable_out_is_a_validation_error(tmp_path, capsys, verb):
    sc = str(_write(tmp_path, _shipped("example1.json")))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main([verb, "--scenario", sc, "--out", str(blocker)]) == 2
    assert capsys.readouterr().out == f"validation error: --out {blocker}: File exists\n"
    below = blocker / "sub"
    assert cli.main([verb, "--scenario", sc, "--out", str(below)]) == 2
    assert capsys.readouterr().out == (
        f"validation error: --out {below}: Not a directory\n"
    )


def test_unusable_out_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("simulate ran although --out is unusable")

    monkeypatch.setattr(cli, "simulate", never)
    sc = str(SCENARIOS / "example3.json")  # 3 * 10^5 RK4 steps
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out, why in ((blocker, "File exists"), (blocker / "a" / "b", "Not a directory")):
        assert cli.main(["simulate", "--scenario", sc, "--out", str(out)]) == 2
        assert capsys.readouterr().out == f"validation error: --out {out}: {why}\n"

    def refused(path):  # a stat refused as it is for a non-root user
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(Path, "exists", refused)
    out = tmp_path / "a"
    assert cli.main(["simulate", "--scenario", sc, "--out", str(out)]) == 2
    assert capsys.readouterr().out == f"validation error: --out {out}: Permission denied\n"


@pytest.mark.parametrize("verb", ["analyze", "indexset", "simulate"])
def test_full_angle_set_of_a_large_star_is_refused(tmp_path, capsys, verb):
    n = 1000
    doc = {
        "schema": 1,
        "graph": {"n": n, "edges": [[1, v] for v in range(2, n + 1)]},
        "configuration": {"generator": {"kind": "regular_polygon", "n": n}},
        "angles": {"source": "full"},
    }
    sc = _write(tmp_path, doc)
    t0 = time.perf_counter()
    code = cli.main([verb, "--scenario", str(sc), "--out", str(tmp_path / "o")])
    elapsed = time.perf_counter() - t0
    assert code == 2
    # 498 501 triples at vertex 1: C(999, 2)
    assert capsys.readouterr().out == (
        "validation error: angle source 'full' angle rigidity matrix would be "
        "498501 x 2000 = 997002000 entries, over the limit of 100000000\n"
    )
    assert elapsed < 1.0


def test_analyze_of_a_large_laman_framework_is_refused(tmp_path, capsys):
    """At n = 2000 each verdict's SVD would take about a minute; the
    refusal comes before any matrix exists."""
    n = 2000
    steps = [[v, v - 2, v - 1] for v in range(3, n + 1)]  # a triangle strip
    doc = {
        "schema": 1,
        "graph": {
            "n": n,
            "edges": [[1, 2]] + [[a, v] for v, a, _ in steps] + [[b, v] for v, _, b in steps],
        },
        "configuration": {"points": [[v / 2, 0.87 * (v % 2)] for v in range(1, n + 1)]},
        "angles": {"source": "laman_minimal"},
        "construction": {"steps": steps},
    }
    sc = _write(tmp_path, doc)
    t0 = time.perf_counter()
    code = cli.main(["analyze", "--scenario", str(sc), "--out", str(tmp_path / "o")])
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert capsys.readouterr().out == (
        "validation error: distance rigidity matrix would be 3997 x 4000, whose "
        "SVD takes 3997^2 x 4000 = 63904036000 operations, over the limit of "
        "16000000000\n"
    )
    assert elapsed < 1.0


def _complete_graph_doc(n):
    return {
        "schema": 1,
        "graph": {
            "n": n,
            "edges": [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        },
        "configuration": {"generator": {"kind": "regular_polygon", "n": n}},
        "angles": {"source": "triangle_formation"},
    }


# C(250, 3) = 2 573 000 triangles, two triples each: refused at the
# first blocks of the triangle pass that hold more than 10^8 / (2 * 500)
# / 2 = 100 000 of them, here 130 795
K250_REFUSAL = (
    "validation error: angle source 'triangle_formation' angle rigidity matrix "
    "would be at least 261590 x 500 = 130795000 entries, over the limit of "
    "100000000\n"
)


@pytest.mark.parametrize("verb", ["analyze", "indexset", "simulate"])
def test_triangle_set_of_a_complete_graph_is_refused(tmp_path, capsys, verb):
    sc = _write(tmp_path, _complete_graph_doc(250))
    t0 = time.perf_counter()
    code = cli.main([verb, "--scenario", str(sc), "--out", str(tmp_path / "o")])
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert capsys.readouterr().out == K250_REFUSAL
    assert elapsed < 2.0


def test_triangle_set_refusal_lists_no_triangles(tmp_path):
    """The refusal comes at the first blocks over the cap, before the
    list: the refusing process stays small."""
    sc = _write(tmp_path, _complete_graph_doc(250))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "angleform", "analyze", "--scenario", str(sc),
         "--out", str(tmp_path / "o")],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak RSS
    assert os.waitstatus_to_exitcode(status) == 2
    assert proc.stdout.read() == K250_REFUSAL
    assert usage.ru_maxrss < 300 * 1024  # KiB; listing the set took 645 MB


def test_simulate_series_of_a_dense_graph_stay_small(tmp_path):
    """K60's triangle set has 68 440 triples; its V_F series over 51
    snapshots, recomputed from the trajectory all at once, peaked at
    393 MB. The integrator records V_F as it runs, so the series takes
    no angle terms of its own."""
    doc = _complete_graph_doc(60)
    doc["configuration"]["perturbation"] = {"amplitude": 0.01, "seed": 3}
    doc["integrator"] = {"t_final": 0.05, "record_stride": 1e-3}
    sc = _write(tmp_path, doc)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "angleform", "simulate", "--scenario", str(sc),
         "--out", str(tmp_path / "o")],
        stdout=subprocess.DEVNULL, env=env,
    )
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak RSS
    assert os.waitstatus_to_exitcode(status) == 0
    assert "samples=51\n" in (tmp_path / "o" / "report.txt").read_text()
    assert usage.ru_maxrss < 300 * 1024  # KiB


# a run at the MAX_RECORDED_POINTS cap (room for 40 000 samples of 50
# agents, 39 999 recorded) and its trajectory.csv; prints the growth of
# the peak RSS and the size of the recorded table, both in KiB, and the
# sample count
NEAR_CAP = """
import os
from angleform import cli
from angleform.formation import FormationSpec, IntegratorConfig, PerturbationSpec, simulate
from angleform.graph import Graph
from angleform.rigidity import Configuration

n = 50
fan = Graph(n, [(1, k) for k in range(2, n + 1)] + [(k, k + 1) for k in range(2, n)])
target = Configuration.regular_polygon(n)
spec, p0 = FormationSpec(fan, target), PerturbationSpec(0.01, 3).sample(target)

def run(t_final):
    config = IntegratorConfig(h=1e-4, t_final=t_final, record_stride=1e-4, cost_tol=0.0,
                              grad_tol=0.0)
    result = simulate(spec, p0, config)
    with open(os.devnull, "wb") as fh:
        cli._trajectory_csv(result, fh)
    return result

def peak():
    # this process image's own high-water mark: ru_maxrss would start at
    # the resident size of the process that started this one
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

run(1e-3)  # loads the C library and warms numpy
before = peak()
result = run(3.9998)
grown = peak() - before
print(grown, result.table.nbytes // 1024, len(result.times))
"""


def test_near_cap_run_holds_one_table():
    """simulate and trajectory.csv's writer share the kernel's recorded
    table, and its post-processing holds no table-sized temporary: a run
    at the recording cap grows the peak by that table and a few series
    (1.07 tables here), where 16 384-sample blocks of the centroid
    pass's differences took 1.46, a full-size difference array 2.04,
    and copying the kernel's arrays and stacking the CSV's columns again
    3.0."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", NEAR_CAP], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    grown, table, samples = map(int, proc.stdout.split())
    assert samples * 50 == 1_999_950
    assert grown < 1.2 * table


@pytest.mark.parametrize("k", [-26, 29])
def test_analyze_of_a_power_of_two_rescale(tmp_path, capsys, k):
    """A shipped framework at radius 2^k, near either end of the admitted
    range, keeps every verdict and rank line, and its sigma tails and
    rank cutoffs (tol) are the unit-scale ones times 2^k (distance) or
    2^-k (bearing, angle)."""
    reports = []
    for radius in (1.0, 2.0**k):
        doc = _shipped("example2.json")
        doc["configuration"]["generator"]["radius"] = radius
        assert cli.main(["analyze", "--scenario", str(_write(tmp_path, doc))]) == 0
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        del report["scenario_sha256"]
        reports.append(report)
    unit, scaled = reports
    for key, value in unit.items():
        if not key.endswith(("_sigma_tail", "_tol")):
            assert scaled[key] == value, key
            continue
        power = 2.0 ** (k if key.startswith("distance") else -k)
        cells = [float(x) * power for x in value.split(";")]
        assert [float(x) for x in scaled[key].split(";")] == cells, key


@pytest.mark.parametrize("name", ["example1.json", "example2.json", "example3.json"])
def test_cost_csv_vf_is_the_trajectory_series(tmp_path, name):
    """The V_F column the integrator records equals, byte for byte, the
    series recomputed from trajectory.csv by angle_terms and the
    kernels' sequential sum."""
    sc = _write(tmp_path, _shipped(name, t_final=1.0), name)
    files = _simulated(sc, tmp_path / "run")
    loaded = cli.load_scenario(sc)
    spec = FormationSpec(loaded.graph, loaded.base, cli.resolve_angle_set(loaded))
    rows = [r.split(",") for r in files["trajectory.csv"].decode().splitlines()[1:]]
    traj = np.array([[float(x) for x in r[1:]] for r in rows]).reshape(len(rows), -1, 2)
    d = angle_terms(traj, spec._tri)[0] - spec.target_cosines
    want = np.add.accumulate(0.5 * d * d, axis=1)[:, -1]
    got = [r.split(",")[1] for r in files["cost.csv"].decode().splitlines()[1:]]
    assert got == [repr(float(v)) for v in want]


# ---------------------------------------------------------------------
# the work cap: steps x (triples + edges)
# ---------------------------------------------------------------------


def test_simulate_over_the_work_cap_exits_2(tmp_path, capsys):
    doc = _shipped("example1.json")
    # 8e7 steps, under MAX_STEPS, over 6 triples and 7 edges: 1.04e9 terms
    doc["integrator"].update(h=1e-6, t_final=80.0)
    sc = _write(tmp_path, doc)
    t0 = time.perf_counter()
    code = cli.main(["simulate", "--scenario", str(sc), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert capsys.readouterr().out == (
        "validation error: t_final 80.0 at h 1e-06 takes 80000000 RK4 steps "
        "over 6 angle triples and 7 edges, 1040000000 step terms, over the "
        "limit of 1000000000\n"
    )
    assert not (tmp_path / "o").exists()


class _Reached(Exception):
    """Raised in place of the integration: the run passed every cap."""


def _passes_the_caps(monkeypatch, spec, p0, config):
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(_kernels, "integrate", reached)
    with pytest.raises(_Reached):
        simulate(spec, p0, config)
    return config.n_steps * (len(spec._tri) + spec.graph.m)


@pytest.mark.parametrize("name", ["example1.json", "example2.json", "example3.json"])
def test_shipped_horizons_pass_the_work_cap(monkeypatch, name):
    sc = cli.load_scenario(SCENARIOS / name)
    spec = FormationSpec(sc.graph, sc.base, cli.resolve_angle_set(sc), sc.maneuver)
    work = _passes_the_caps(monkeypatch, spec, sc.initial_configuration(), sc.integrator)
    assert work <= (3_900_000 if name == "example3.json" else 650_000)


def test_laman_flow_size_passes_the_work_cap(monkeypatch):
    """The benchmark's largest flow: n = 200, laman_minimal, 2000 steps."""
    c = random_construction(np.random.default_rng(5), 200)
    g = build_laman(c)
    target = nondegenerate_points(np.random.default_rng(6), g)
    spec = FormationSpec(g, target, laman_minimal_set(c), witness=c)
    config = IntegratorConfig(h=1e-3, t_final=2.0, record_stride=0.01)
    assert _passes_the_caps(monkeypatch, spec, target, config) == 2000 * (396 + 397)


# ---------------------------------------------------------------------
# one argument parser per process
# ---------------------------------------------------------------------


def _calls(tmp_path):
    """CLI calls that mix verbs, --batch, seeds and usage errors."""
    short = _write(tmp_path, _shipped("example1.json"), "short.json")
    ex2, ex3 = str(SCENARIOS / "example2.json"), str(SCENARIOS / "example3.json")
    out = tmp_path / "out"
    return [
        ["simulate", "--scenario", str(short), "--out", str(out / "sim")],
        ["indexset", "--batch", "--scenario", str(short), "--scenario", ex3,
         "--out", str(out / "batch")],
        ["analyze", "--scenario", ex2, "--out", str(out / "single")],
        ["simulate", "--scenario", str(short), "--seed-override", "7",
         "--out", str(out / "seeded")],
        ["simulate", "--scenario", str(short), "--seed-override", "-3",
         "--out", str(out / "negative")],
        ["analyze", "--scenario"],
        ["indexset", "--scenario", str(short), "--scenario", ex3],
        ["indexset", "--scenario", ex2],
        ["simulate", "--scenario", str(short), "--out", str(out / "again")],
    ]


def _files(root):
    return {
        str(f.relative_to(root)): f.read_bytes()
        for f in sorted(root.rglob("*")) if f.is_file()
    }


# A fresh interpreter counts the argument parsers made by importing the
# CLI, then runs each call in a fork of itself: every call starts as in
# a fresh interpreter of its own, and only one starts.
FORKED_CALLS = """
import argparse, json, os, sys, tempfile
made = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    made.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import angleform.cli as cli
rows = [len(made)]
for argv in json.loads(sys.argv[1]):
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        pid = os.fork()
        if pid == 0:
            os.dup2(out.fileno(), 1)
            os.dup2(err.fileno(), 2)
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        out.seek(0)
        err.seek(0)
        rows.append([code, out.read().decode(), err.read().decode()])
print(json.dumps(rows))
"""


@pytest.fixture(scope="module")
def forked_calls(tmp_path_factory):
    """(root, calls, parsers made at import, (code, stdout, stderr) of each
    call in a fresh interpreter); the calls' files are in root / "fresh"."""
    root = tmp_path_factory.mktemp("calls")
    calls = _calls(root)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "COLUMNS": "80"}  # argparse wraps usage to it
    proc = subprocess.run([sys.executable, "-c", FORKED_CALLS, json.dumps(calls)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    at_import, *fresh = json.loads(proc.stdout)
    (root / "out").rename(root / "fresh")
    return root, calls, at_import, [tuple(row) for row in fresh]


def test_main_calls_in_one_process_match_fresh_interpreters(
    forked_calls, monkeypatch, capsys
):
    """No argument or default carries over from one main() call to the
    next through the kept parser: each call in this process writes the
    stdout, stderr, exit code and files of the same call in a fresh
    interpreter."""
    root, calls, _, fresh = forked_calls
    monkeypatch.setenv("COLUMNS", "80")
    for argv, want in zip(calls, fresh):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
        got = capsys.readouterr()
        assert (code, got.out, got.err) == want, argv
    assert _files(root / "out") == _files(root / "fresh")
    assert fresh[5][0] == 2 and "usage: angleform analyze" in fresh[5][2]
    assert fresh[4][1].startswith("validation error: --seed-override")


def test_parser_is_built_once_and_not_at_import(forked_calls, monkeypatch):
    assert forked_calls[2] == 0  # none at import
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    for argv in (["indexset", "--scenario", str(SCENARIOS / "example1.json")],
                 ["analyze", "--scenario", str(SCENARIOS / "example2.json")]) * 3:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        # one parser and its four verb subparsers, kept
        assert (made.count("angleform"), len(made)) == (1, 5)
