import sys

import pytest

import cesrank.solver

_acceptance_results: dict[str, bool] = {}


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        label = marker.kwargs.get("label", item.name)
        _acceptance_results[label] = report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_acceptance_results):
        status = "PASS" if _acceptance_results[label] else "FAIL"
        terminalreporter.write_line(f"{status}  {label}")


@pytest.fixture
def search_calls(monkeypatch):
    """Vertex count of each connectivity search run during the test, by counting `solver._reached`."""
    calls = []
    original = cesrank.solver._reached

    def counted(heads, tails, sources):
        calls.append(sources.size)
        return original(heads, tails, sources)

    monkeypatch.setattr(cesrank.solver, "_reached", counted)
    return calls


@pytest.fixture
def connectivity_checks():
    """Each economy `solver._connectivity_refusal` checks during the test, by profiling its calls.

    The solvers' doors hold the function itself, so patching the module's
    name would count nothing.
    """
    checks = []
    code = cesrank.solver._connectivity_refusal.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            checks.append(frame.f_locals["economy"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    yield checks
    sys.setprofile(previous)
