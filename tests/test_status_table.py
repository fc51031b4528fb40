"""The analytic status table: every estimator on inputs whose answer is
known in closed form.

Each row is (input, method, the status it reads today).  The harmonic
sequence and the flat tori are the Tauberian references, and every
method should resolve them to their target (1, pi, 4 pi/3).  The
trace-class power-log inputs have target 0: a Converged row must sit
near 0, and Undetermined is an honest answer for a series that drifts
towards 0 more slowly than the fit variable.  The oscillator has no
limit, so it is never Converged.

test_status_today pins every row's status as it is.  Rows that the
target contradicts are xfail(strict=True) in test_status_meets_the_target,
naming the ROADMAP item that is to fix them; a fix moves the status in
the first test and flips the row from xfail to pass in the second.
"""

import math

import pytest

import dixlab as dx
from dixlab import estimators

C, O, U = "Converged", "Oscillating", "Undetermined"

# input -> (target, the statuses it allows); Converged rows must also
# read the target within AGREEMENT_TOL * max(1, |target|)
TARGETS = {
    "harmonic": (1.0, {C}),
    "torus2-R2000": (math.pi, {C}),
    "torus3-R200": (4.0 * math.pi / 3.0, {C}),
    "power_log-1-1.2-0": (0.0, {C, U}),
    "power_log-1-1-(-1)": (0.0, {C, U}),
    "oscillator": (None, {O, U}),
}

# the flat tori read their heat trace at the times of the example config
TORUS_HEAT_SCHEDULE = (1e4, 1e5, 1e6)

_ITEM_3 = "ROADMAP item 3: Oscillating on a series that never turns"
_ITEM_4 = "ROADMAP item 4: heat_cesaro fits its means against 1/T"
_ITEM_5 = "ROADMAP item 5: Converged off the target beyond the tolerance"

# (input, method, status today, why the target contradicts it or None)
ROWS = [
    ("harmonic", "dixmier", C, None),
    ("harmonic", "zeta", C, None),
    ("harmonic", "heat_raw", C, None),
    ("harmonic", "heat_cesaro", U, _ITEM_4),
    ("torus2-R2000", "dixmier", C, None),
    ("torus2-R2000", "zeta", C, None),
    ("torus2-R2000", "heat_raw", C, None),
    ("torus2-R2000", "heat_cesaro", U, _ITEM_4),
    ("torus3-R200", "dixmier", C, None),
    ("torus3-R200", "zeta", C, None),
    ("torus3-R200", "heat_raw", C, None),
    ("torus3-R200", "heat_cesaro", O, _ITEM_4),
    ("power_log-1-1.2-0", "dixmier", O, _ITEM_3),
    ("power_log-1-1.2-0", "zeta", C, None),
    ("power_log-1-1.2-0", "heat_raw", O, _ITEM_3),
    ("power_log-1-1.2-0", "heat_cesaro", U, None),
    ("power_log-1-1-(-1)", "dixmier", C, _ITEM_5),
    ("power_log-1-1-(-1)", "zeta", C, _ITEM_5),
    ("power_log-1-1-(-1)", "heat_raw", U, None),
    ("power_log-1-1-(-1)", "heat_cesaro", U, None),
    ("oscillator", "dixmier", O, None),
    ("oscillator", "zeta", O, None),
    ("oscillator", "heat_raw", O, None),
    ("oscillator", "heat_cesaro", C, _ITEM_4),
]


def _id(row):
    return "%s-%s" % row[:2]


@pytest.fixture(scope="module")
def inputs(harmonic_1e6, torus_2000, oscillator_1e7):
    return {
        "harmonic": harmonic_1e6,
        "torus2-R2000": torus_2000,
        "torus3-R200": dx.torus_spectrum(3, 200),
        "power_log-1-1.2-0": dx.power_log_sequence(1.0, 1.2, 0.0, 10**5),
        "power_log-1-1-(-1)": dx.power_log_sequence(1.0, 1.0, -1.0, 10**5),
        "oscillator": oscillator_1e7,
    }


@pytest.fixture(scope="module")
def estimate(inputs):
    """(input, method) -> its TraceEstimate, each computed once."""
    done = {}

    def run(name, method):
        if (name, method) not in done:
            heat = (TORUS_HEAT_SCHEDULE if name.startswith("torus")
                    else estimators.HEAT_SCHEDULE)
            done[name, method] = estimators.METHODS[method](
                inputs[name], estimators.ZETA_SCHEDULE, heat)
        return done[name, method]

    return run


@pytest.mark.parametrize("name,method,today,_", ROWS, ids=map(_id, ROWS))
def test_status_today(estimate, name, method, today, _):
    assert estimate(name, method).status == today


@pytest.mark.parametrize("name,method", [
    pytest.param(name, method, id=_id((name, method)), marks=() if why is None
                 else pytest.mark.xfail(strict=True, reason=why))
    for name, method, _, why in ROWS
])
def test_status_meets_the_target(estimate, name, method):
    est = estimate(name, method)
    target, allowed = TARGETS[name]
    assert est.status in allowed
    if est.status == C:
        tol = estimators.AGREEMENT_TOL * max(1.0, abs(target))
        assert abs(est.value - target) <= tol


@pytest.mark.parametrize("name", list(TARGETS))
def test_classification_and_dixmier_agree(inputs, estimate, name):
    # dixmier_estimate reads tauberian_classify's judgement of the scan
    v = dx.tauberian_classify(inputs[name])
    e = estimate(name, "dixmier")
    assert (v.status == "Tauberian") == (e.status == C)
    assert (v.status == "NonTauberian") == (e.status == O)
    if e.status == C:
        assert v.limit_estimate == e.value
    assert v.oscillation_amplitude == e.oscillation
