"""Each embedded selftest check as its own test id, so a failure names
the check and shows its traceback. Acceptance criterion 12 runs the
same checks through the `selftest` verb."""

import pytest

from angleform.selftest import _CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in _CHECKS], ids=[n for n, _ in _CHECKS])
def test_selftest_check(check):
    passed, detail = check()
    assert passed, detail
