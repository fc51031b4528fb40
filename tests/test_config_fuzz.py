"""Seeded config fuzzer.

Each case takes a small valid harmonic, power_log, oscillator, torus or
matrix model, replaces one of its fields with a hostile value (NaN,
+-inf, 0, negative, huge, tiny, wrong type; for matrix coefficients
also the whole symbol scaled by 1e+-150 to 1e+-300) and runs every
method through ``cli.main`` in-process with warnings as errors.  Whatever
the value, each run must end in a documented exit code, never a traceback,
and an input error must say so in exactly one ``error:`` line.  Each
method runs alone, so a method that refuses first hides no other.
"""

import json
import math
import warnings

import numpy as np
import pytest

from dixlab import cli

METHODS = ["dixmier", "zeta", "heat_raw", "heat_cesaro"]
BASE = {
    "harmonic": {"kind": "harmonic", "horizon": 1024, "coeff": 1.0},
    "power_log": {"kind": "power_log", "coeff": 1.0, "power": 1.0,
                  "log_power": 0.0, "horizon": 64},
    "oscillator": {"kind": "oscillator", "horizon": 1024},
    "torus": {"kind": "torus", "dimension": 2, "cutoff_radius": 20,
              "operator_power": 1.0},
}
# 2 + cos x at halfwidth 150 takes the banded singular values (size 301
# >= 100 * bandwidth 3), a 2-D symbol at halfwidth 4 the dense SVD
COSINE = {"0": 2.0, "1": 0.5, "-1": 0.5}
MATRIX = {
    "band": {"kind": "matrix", "dimension": 1, "halfwidth": 150,
             "coefficients": COSINE, "operator_power": 0.5, "real": True,
             "max_checkpoint": 64},
    "dense": {"kind": "matrix", "dimension": 2, "halfwidth": 4,
              "coefficients": {"0,0": 2.0, "1,0": 0.5, "-1,0": 0.5,
                               "0,1": 0.25, "0,-1": 0.25},
              "operator_power": 1.0, "real": True, "max_checkpoint": 16},
}
INT_FIELDS = {"horizon", "dimension", "cutoff_radius", "halfwidth",
              "max_checkpoint"}
CASES = 200
MATRIX_CASES = 40


def _hostile(rng, field):
    """One hostile value for field, drawn from rng."""
    kind = int(rng.integers(8))
    if kind == 0:
        return [math.nan, math.inf, -math.inf][int(rng.integers(3))]
    if kind == 1:
        return 0
    if kind == 2:  # negative
        return -int(rng.integers(1, 10**6)) * (1 if field in INT_FIELDS
                                               else rng.random())
    if kind == 3:  # huge: past any budget, or near the float limit
        if field in INT_FIELDS:
            return 10 ** int(rng.integers(9, 40))
        return float(10.0 ** rng.uniform(5.0, 308.0))
    if kind == 4:  # tiny, subnormal included
        return float(10.0 ** -rng.uniform(5.0, 323.0))
    if kind == 5:  # a float where an integer belongs, or a near-miss
        return float(rng.uniform(0.001, 2.0)) if field in INT_FIELDS else (
            float(rng.uniform(0.001, 0.05)))
    return ["1", [1.0], None, True][int(rng.integers(4))]


def _hostile_coefficients(rng, coefficients):
    """The whole symbol scaled by 1e+-150..1e+-300, or one coefficient
    replaced by a hostile value."""
    if rng.random() < 0.5:
        scale = 10.0 ** (float(rng.choice([-1.0, 1.0]))
                         * rng.uniform(150.0, 300.0))
        return {k: v * scale for k, v in coefficients.items()}
    keys = sorted(coefficients)
    key = keys[int(rng.integers(len(keys)))]
    return dict(coefficients, **{key: _hostile(rng, "coefficient")})


def _seeded_models(base=BASE, seed=20261018, n=CASES):
    rng = np.random.Generator(np.random.Philox(seed))
    kinds = sorted(base)
    out = []
    for _ in range(n):
        kind = kinds[int(rng.integers(len(kinds)))]
        model = dict(base[kind])
        fields = sorted(f for f in model if f != "kind")
        field = fields[int(rng.integers(len(fields)))]
        if "coefficients" in model and rng.random() < 0.5:
            field = "coefficients"  # the symbol draws half the cases
        model[field] = (_hostile_coefficients(rng, model[field])
                        if field == "coefficients" else _hostile(rng, field))
        out.append(model)
    return out


# the satellite reproducers: a heat tail past the float range (an
# OverflowError traceback before), a finite tail whose closed form
# overflows, t * v past the float range in the head's heat sum, and
# lazily built spectra over the budget
EXPLICIT = [
    {"kind": "power_log", "coeff": 1.0, "power": 0.005, "log_power": 0.0,
     "horizon": 100},
    {"kind": "power_log", "coeff": 1e-300, "power": 0.001,
     "log_power": 0.0, "horizon": 64},
    {"kind": "power_log", "coeff": 1e300, "power": 0.001,
     "log_power": -50.0, "horizon": 64},
    {"kind": "oscillator", "horizon": 10**11},
    {"kind": "torus", "dimension": 3, "cutoff_radius": 10**5},
] + [  # singular-value certificates that overflowed or underflowed
    {"kind": "matrix", "dimension": 1, "halfwidth": halfwidth,
     "coefficients": {k: v * scale for k, v in COSINE.items()}}
    for halfwidth, scale in ((150, 1e160), (150, 1e200), (150, 1e-160),
                             (4, 1e200))
]


def _run(tmp_path, model, method):
    cfg = {"schema_version": 1, "seed": 1,
           "experiments": [{"label": "f", "model": model,
                            "methods": [method]}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(["--config", str(path)])


@pytest.mark.parametrize("model", EXPLICIT + _seeded_models()
                         + _seeded_models(MATRIX, 20261019, MATRIX_CASES),
                         ids=lambda m: json.dumps(m, sort_keys=True))
def test_hostile_field_ends_in_a_documented_exit(tmp_path, capsys,
                                                 monkeypatch, model):
    monkeypatch.setenv("DIXLAB_BUDGET_MB", "256")
    for method in METHODS:
        code = _run(tmp_path, model, method)
        captured = capsys.readouterr()
        assert code in (0, 2, 4, 5), method
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        if code in (4, 5):
            assert len(errors) == 1 and captured.out == "", method
        else:
            assert errors == [] and captured.out.count("\n") == 2, method
