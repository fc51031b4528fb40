import os

import pytest

import dixlab

# tests that run `python -m dixlab` in a subprocess import the package
# this run imports, also when only pytest's pythonpath setting finds it
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(dixlab.__file__)),
                  os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def verdict(request):
    """Record one PASS/FAIL line per acceptance criterion; the lines are
    replayed in a terminal section at the end of the run."""

    def record(num, ok, detail):
        lines = getattr(request.config, "_acceptance_lines", None)
        if lines is None:
            lines = []
            request.config._acceptance_lines = lines
        lines.append(
            "criterion %d %s  %s" % (num, "PASS" if ok else "FAIL", detail)
        )

    return record


@pytest.fixture(scope="session")
def harmonic_1e6():
    return dixlab.harmonic_sequence(10**6)


@pytest.fixture(scope="session")
def torus_2000():
    return dixlab.torus_spectrum(2, 2000)


@pytest.fixture(scope="session")
def oscillator_1e7():
    return dixlab.oscillator_model(10**7)
