import pytest

from angleform.graph import Graph
from angleform.rigidity import Configuration

# criterion number -> (description, passed, detail); filled by the
# acceptance tests and printed as one line each after the run
_CRITERIA = {}


@pytest.fixture
def criterion():
    def record(num: int, desc: str, ok: bool, detail: str = ""):
        _CRITERIA[num] = (desc, bool(ok), str(detail))
        assert ok, f"criterion {num}: {desc} [{detail}]"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        desc, ok, detail = _CRITERIA[num]
        mark = "PASS" if ok else "FAIL"
        line = f"criterion {num:2d} {mark}  {desc}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture
def fan5() -> Graph:
    return Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)])


@pytest.fixture
def pentagon() -> Configuration:
    return Configuration.regular_polygon(5)
