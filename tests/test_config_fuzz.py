"""Seeded config fuzzer.

Each case takes a small valid harmonic, power_log, oscillator, torus,
nc_torus or matrix model, replaces one of its fields with a hostile
value (NaN, +-inf, 0, negative, huge, tiny, wrong type; for matrix
coefficients also the whole symbol scaled by 1e+-150 to 1e+-300) and
runs every method through ``cli.main`` in-process with warnings as
errors.  sequence_file models get hostile file contents instead, and
every kind is run once without each required key and once with an
unknown key.  Whatever the input, each run must end in a documented exit
code, never a traceback; an input error must say so in exactly one
``error:`` line, and a report must come out byte-identical when the same
config runs again.  Each method runs alone, so a method that refuses
first hides no other.
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
# >= 70 * bandwidth 3), a 2-D symbol at halfwidth 4 the dense SVD
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
NC_TORUS = {"nc_torus": {"kind": "nc_torus", "cutoff_radius": 20,
                        "theta": 0.25, "operator_power": 1.0}}
# one valid model per config kind, for the missing- and unknown-key runs
KIND_BASES = dict(BASE, **NC_TORUS, matrix=MATRIX["band"],
                  sequence_file={"kind": "sequence_file",
                                 "path": "values.txt"})
INT_FIELDS = {"horizon", "dimension", "cutoff_radius", "halfwidth",
              "max_checkpoint"}
CASES = 200
MATRIX_CASES = 40
NC_TORUS_CASES = 16
# sequence_file inputs the loader must refuse, exit 4 naming the path
# field, before any estimator sees them (None: no file, or a directory)
REFUSED_FILES = {
    "missing": None,
    "directory": None,
    "empty": "",
    "comment-only": "# no values\n",
    "nan": "1\nnan\n",
    "overflows-to-inf": "1e400\n",
    "negative": "1\n-1e-300\n",
    "increasing": "1\n2\n",
    "two-columns": "2 1\n1 0.5\n",
    "ragged": "1\n0.5 0.25\n",
    "comma-separated": "1,0.5\n",
    "binary": "\x00\x01\n",
}
# readable extremes that every estimator must take to a documented exit
READABLE_FILES = {
    "one-row": "1 0.5 0.25\n",
    "near-overflow": "1e308\n1e308\n",
    "subnormal": "5e-324\n",
    "all-zero": "0\n-0\n",
}


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
# overflows, t * v past the float range in the head's heat sum, an
# oscillator scan horizon of 10^11 read through its tail past a 2^16
# head, and a lazily built spectrum over the budget
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


def _run_every_method(tmp_path, capsys, model):
    """Each method alone through the documented-exit checks; returns
    (exit code, stderr) per method."""
    out = []
    first = None
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
            first = first or (method, code, captured.out)
        out.append((code, captured.err))
    if first:
        # the first report, run again after every other method, repeats
        # its bytes: no state a run leaves behind reaches a later report
        method, code, report = first
        assert _run(tmp_path, model, method) == code, method
        assert capsys.readouterr().out == report, method
    return out


def _problems(err):
    """The problem lines of a ConfigError message."""
    lines = err.splitlines()
    return lines[lines.index("error:") + 1:]


@pytest.mark.parametrize("model", EXPLICIT + _seeded_models()
                         + _seeded_models(MATRIX, 20261019, MATRIX_CASES)
                         + _seeded_models(NC_TORUS, 20261020,
                                          NC_TORUS_CASES),
                         ids=lambda m: json.dumps(m, sort_keys=True))
def test_hostile_field_ends_in_a_documented_exit(tmp_path, capsys,
                                                 monkeypatch, model):
    monkeypatch.setenv("DIXLAB_BUDGET_MB", "256")
    _run_every_method(tmp_path, capsys, model)


def _sequence_file(tmp_path, name, files):
    path = tmp_path / "values.txt"
    if name == "directory":
        path.mkdir()
    elif files[name] is not None:
        path.write_text(files[name], encoding="utf-8")
    return {"kind": "sequence_file", "path": str(path)}


@pytest.mark.parametrize("name", sorted(REFUSED_FILES))
def test_bad_sequence_file_is_the_one_problem(tmp_path, capsys, name):
    model = _sequence_file(tmp_path, name, REFUSED_FILES)
    for code, err in _run_every_method(tmp_path, capsys, model):
        assert code == 4
        [problem] = _problems(err)
        assert problem.startswith(
            "experiments[0].model.path: %s: " % model["path"])


@pytest.mark.parametrize("name", sorted(READABLE_FILES))
def test_extreme_sequence_file_ends_in_a_documented_exit(tmp_path, capsys,
                                                         name):
    _run_every_method(tmp_path, capsys,
                      _sequence_file(tmp_path, name, READABLE_FILES))


def test_every_kind_has_a_fuzz_base():
    # a new kind must join the missing- and unknown-key runs below
    assert set(KIND_BASES) == set(cli._KINDS)


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind, (fields, _) in sorted(cli._KINDS.items())
    for key, (_, required) in fields.items() if required
])
def test_missing_required_key_is_the_one_problem(tmp_path, capsys, kind,
                                                 key):
    # later checks read params.get(key): a lookup that assumed the key
    # would raise, and a second problem would bury the real one
    model = {k: v for k, v in KIND_BASES[kind].items() if k != key}
    for code, err in _run_every_method(tmp_path, capsys, model):
        assert code == 4
        assert _problems(err) == [
            "experiments[0].model.%s: required for kind %s" % (key, kind)]


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_unknown_key_is_the_one_problem(tmp_path, capsys, kind):
    model = dict(KIND_BASES[kind], colour="blue")
    for code, err in _run_every_method(tmp_path, capsys, model):
        assert code == 4
        assert _problems(err) == [
            "experiments[0].model.colour: unknown key for kind %s" % kind]
