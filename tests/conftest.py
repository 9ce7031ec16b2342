import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines past output capture."""
    mod = sys.modules.get("test_acceptance")
    if mod and getattr(mod, "RESULTS", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def hj_pulls(monkeypatch):
    """The terms that ``cone_geometry.hj_coefficients`` yields, in one list,
    each appended as it is pulled."""
    from cqs import cone_geometry

    real, pulled = cone_geometry.hj_coefficients, []

    def counted(p, s):
        for a in real(p, s):
            pulled.append(a)
            yield a

    monkeypatch.setattr(cone_geometry, "hj_coefficients", counted)
    return pulled
