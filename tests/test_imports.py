"""Every module of the package uses each name it imports, and none
takes a length by hypot; a test starts a process only where a fresh one
is the point.

No lint tool is a dependency, so this parses the sources with ast. The
package __init__ is left out of the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "angleform"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """The names the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used)
    assert not unused, f"{path.name} never uses the imported {unused}"


def test_no_module_takes_a_length_by_hypot():
    """Every edge length is geometry.length, sqrt(x*x + y*y), as the C
    kernel takes it: hypot rounds otherwise in the last bit."""
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name == "hypot":
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, f"hypot at {hits}"


# the test functions that may start a process, each with what only a
# separate process gives it; any other test calls in-process
STARTS_PROCESSES = {
    "test_cli.py": {
        "forked_calls": "a fresh interpreter",
        "test_record_stride_far_past_t_final": "a possible death by signal",
        "test_triangle_set_refusal_lists_no_triangles": "the child's own peak RSS",
        "test_simulate_series_of_a_dense_graph_stay_small": "the child's own peak RSS",
        "test_near_cap_run_holds_one_table": "the child's own peak RSS",
    },
    "test_kernels.py": {
        "test_c_backend_selected_without_home": "an environment variable read at import",
        "test_c_cached_load_starts_no_compiler": "the compiler, which a cached load must not start",
        "test_c_source_compiles_without_warnings": "the compiler",
    },
    "test_rigidity.py": {
        "test_verdicts_leave_no_matrix_resident": "the child's own RSS",
    },
}


def _starts_processes(node) -> bool:
    """Whether node uses subprocess or os.fork, or imports from either."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "subprocess":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "fork":
            return True
        if isinstance(sub, ast.ImportFrom) and (
            sub.module == "subprocess"
            or sub.module == "os" and any(a.name == "fork" for a in sub.names)
        ):
            return True
    return False


def test_processes_start_only_where_a_fresh_one_is_the_point():
    found = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if _starts_processes(node):
                name = getattr(node, "name", f"line {node.lineno}")
                found.setdefault(path.name, set()).add(name)
    assert found == {k: set(v) for k, v in STARTS_PROCESSES.items()}
