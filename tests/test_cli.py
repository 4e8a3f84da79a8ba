import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleform import cli
from angleform.errors import ParseError, ValidationError
from angleform.formation import FormationSpec, cost_VF
from angleform.rigidity import Configuration

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
    with pytest.raises(ParseError) as err:
        cli.load_scenario(_write(tmp_path, doc))
    assert needle in str(err.value)


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


def test_resolve_angle_set_needs_witness_or_laman(tmp_path):
    doc = _base_doc()
    doc["graph"] = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}
    doc["configuration"] = {"points": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    doc["angles"] = {"source": "laman_minimal"}
    sc = cli.load_scenario(_write(tmp_path, doc))
    with pytest.raises(ValidationError):
        cli.resolve_angle_set(sc)


def test_resolve_angle_set_checks_witness_graph(tmp_path):
    doc = _base_doc()
    doc["angles"] = {"source": "laman_minimal"}
    doc["construction"] = {"steps": [[3, 1, 2], [4, 1, 2], [5, 1, 2]]}
    sc = cli.load_scenario(_write(tmp_path, doc))
    with pytest.raises(ValidationError):
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
    assert f"{field} must be finite" in capsys.readouterr().out
    assert not (tmp_path / "run").exists()


def _set(path, value):
    """A mutation of the scenario document that sets one nested field."""

    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return mutate


def _points(doc):
    doc["configuration"].pop("generator")
    doc["configuration"]["points"] = [["0.5", 0], [1, 0], [1, 1], [0, 1], [0, 2]]


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
            "amplitude must be finite",
        ),
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
    ],
)
def test_main_rejects_mistyped_scenario_fields(
    tmp_path, capsys, mutate, code, needle
):
    doc = json.loads((SCENARIOS / "example1.json").read_text())
    mutate(doc)
    sc = _write(tmp_path, doc)
    assert cli.main(["analyze", "--scenario", str(sc)]) == code
    assert needle in capsys.readouterr().out


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
_LEAVES = [(name, path) for name, doc in _SHIPPED.items() for path in _leaf_paths(doc)]
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
    doc = json.loads(json.dumps(_SHIPPED[name]))
    _set(path, value)(doc)
    sc = _write(tmp_path_factory.mktemp("mutant"), doc, name)
    assert cli.main(["analyze", "--scenario", str(sc)]) in (0, 2, 3, 4)


def test_cost_csv_roundtrips_against_trajectory(tmp_path):
    sc = cli.load_scenario(_write(tmp_path, _base_doc()))
    out_dir = tmp_path / "run"
    cli.main(
        ["simulate", "--scenario", str(tmp_path / "s.json"), "--out", str(out_dir)]
    )
    spec = FormationSpec(sc.graph, sc.base, cli.resolve_angle_set(sc))
    traj_rows = (out_dir / "trajectory.csv").read_text().strip().splitlines()[1:]
    cost_rows = (out_dir / "cost.csv").read_text().strip().splitlines()[1:]
    for trow, crow in zip(traj_rows, cost_rows):
        tvals = [float(x) for x in trow.split(",")]
        cvals = [float(x) for x in crow.split(",")]
        p = Configuration(np.asarray(tvals[1:]).reshape(5, 2))
        assert abs(cost_VF(spec, p) - cvals[1]) < 1e-9
        # centroid and scale columns recompute as well
        assert np.allclose(p.pts.mean(axis=0), cvals[4:6], atol=1e-12)


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
