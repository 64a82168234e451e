"""Every ``walsh-lab verify`` check runs here.

The suites in ``walsh_lab.verify`` are the one home of the invariants they
state; unit tests elsewhere cover what a check does not (more resolutions,
more draws, exact integer inputs, edge cases).
"""

import pytest

from walsh_lab import verify


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_suite_passes(name):
    failed = [f"{r.name}: {r.detail}" for r in verify.SUITES[name]() if not r.passed]
    assert not failed, f"{name} checks failed: {failed}"
