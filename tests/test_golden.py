"""Report bytes pinned against tests/golden_reports.txt.

The CSV reports of `cli.example_config()`, of one config with one model
per sequence and torus kind and every method, of the `lattice`,
`sequences` and `matrix` benchmark configs (copied from
perfbench/workloads.py at seed 1, so the tests do not import the
benchmark; the `matrix` one also runs an n = 2 truncation), and the
`--check` output at seed 0, must match the file byte for byte.  A change that moves a digit fails here; where the move
is a bug fix, rewrite the file with `PYTHONPATH=src python
tests/test_golden.py` and explain each changed line.  LAPACK singular
values may vary with BLAS threading, so the `matrix` report comes from
`python -m dixlab` in a fresh process on one OpenBLAS thread.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

import dixlab
from dixlab import cli, estimators

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_reports.txt")
_HEADER = "=== "

_KINDS = [
    ("harmonic", {"kind": "harmonic", "horizon": 4096}),
    ("pl-1-1--1", {"kind": "power_log", "coeff": 1.0, "power": 1.0,
                   "log_power": -1.0, "horizon": 200}),
    ("pl-2-1.5-0.5", {"kind": "power_log", "coeff": 2.0, "power": 1.5,
                      "log_power": 0.5, "horizon": 64}),
    ("pl-1-1.2-0", {"kind": "power_log", "coeff": 1.0, "power": 1.2,
                    "log_power": 0.0, "horizon": 64}),
    ("pl-1-1-0", {"kind": "power_log", "coeff": 1.0, "power": 1.0,
                  "log_power": 0.0, "horizon": 16}),
    ("oscillator", {"kind": "oscillator", "horizon": 100000}),
    ("torus1", {"kind": "torus", "dimension": 1, "cutoff_radius": 1000}),
    ("torus2", {"kind": "torus", "dimension": 2, "cutoff_radius": 100}),
    ("torus3", {"kind": "torus", "dimension": 3, "cutoff_radius": 20}),
    ("torus2-p1.5", {"kind": "torus", "dimension": 2, "cutoff_radius": 100,
                     "operator_power": 1.5}),
    ("nc_torus", {"kind": "nc_torus", "cutoff_radius": 100, "theta": 0.25}),
]


# perfbench/workloads.config("lattice", 1) and config("sequences", 1)
LATTICE = {
    "schema_version": 1,
    "seed": 1,
    "experiments": [
        {"label": "torus%d-R%d" % (n, radius),
         "model": {"kind": "torus", "dimension": n, "cutoff_radius": radius},
         "methods": ["dixmier", "zeta", "heat_raw"],
         "heat_schedule": [1e4, 1e5, 1e6]}
        for n, radius in ((2, 1000), (3, 80))
    ],
}
SEQUENCES = {
    "schema_version": 1,
    "seed": 1,
    "experiments": [
        {"label": "harmonic",
         "model": {"kind": "harmonic", "horizon": 10**6},
         "methods": ["dixmier", "zeta", "heat_raw", "heat_cesaro"]},
        {"label": "oscillator",
         "model": {"kind": "oscillator", "horizon": 10**7},
         "methods": ["dixmier", "heat_raw"]},
    ],
}


# perfbench/workloads.config("matrix", 1), whose 1-D truncations take the
# band path (_PHASE is 0.5 e^{i phi} for its phi at seed 1), and one
# n = 2 symbol, which takes the dense SVD
_PHASE = [0.4565996227016686, 0.20375667976460035]
MATRIX = {
    "schema_version": 1,
    "seed": 1,
    "experiments": [
        {"label": "matrix-M%d" % m,
         "model": {"kind": "matrix", "dimension": 1, "halfwidth": m,
                   "coefficients": {"0": 2.0, "1": _PHASE,
                                    "-1": [_PHASE[0], -_PHASE[1]]},
                   "max_checkpoint": (2 * m + 1) // 4},
         "methods": ["dixmier"]}
        for m in (300, 600)
    ] + [
        {"label": "matrix2-M10",
         "model": {"kind": "matrix", "dimension": 2, "halfwidth": 10,
                   "coefficients": {"0,0": 2.0, "1,0": 0.5, "-1,0": 0.5,
                                    "0,1": [0.0, 0.25],
                                    "0,-1": [0.0, -0.25]}},
         "methods": ["dixmier", "heat_raw"]},
    ],
}


def one_model_per_kind():
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "seed": 0,
        "experiments": [
            {"label": label, "model": model,
             "methods": ["dixmier", "zeta", "heat_raw", "heat_cesaro"]}
            for label, model in _KINDS
        ],
    }


def single_thread_report(config):
    """The CSV report of `python -m dixlab --config` on config, run in a
    fresh process with one OpenBLAS thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dixlab.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        run = subprocess.run([sys.executable, "-m", "dixlab", "--config",
                              path], capture_output=True, env=env)
    assert run.returncode in (0, 2), run.stderr.decode("utf-8", "replace")
    return run.stdout.decode("utf-8")


def reports():
    """{name: text} of every pinned report."""
    out = {}
    for name, config in (("example.csv", cli.example_config()),
                         ("kinds.csv", one_model_per_kind()),
                         ("lattice.csv", LATTICE),
                         ("sequences.csv", SEQUENCES)):
        with contextlib.redirect_stderr(io.StringIO()):  # timing lines
            rows, _ = cli.run_experiment(cli.parse_config(config))
        out[name] = cli.emit_report(rows, "csv")
    out["matrix.csv"] = single_thread_report(MATRIX)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.run_check(0)
    out["check-seed-0.txt"] = buf.getvalue()
    return out


def read_golden():
    sections, name = {}, None
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith(_HEADER):
                name = line[len(_HEADER):].rstrip("\n")
                sections[name] = ""
            else:
                sections[name] += line
    return sections


@pytest.fixture(scope="module")
def current():
    return reports()


@pytest.mark.parametrize("name", ["example.csv", "kinds.csv", "lattice.csv",
                                  "sequences.csv", "matrix.csv",
                                  "check-seed-0.txt"])
def test_report_bytes_match_the_golden_file(current, name):
    assert current[name] == read_golden()[name]


def test_no_pinned_schedule_is_shorter_than_three_points():
    # a schedule of 1 or 2 points reads Undetermined on every input
    assert min(len(estimators.ZETA_SCHEDULE),
               len(estimators.HEAT_SCHEDULE)) >= 3
    for config in (cli.example_config(), one_model_per_kind(), LATTICE,
                   SEQUENCES, MATRIX):
        for experiment in config["experiments"]:
            for key in ("zeta_schedule", "heat_schedule"):
                assert len(experiment.get(key, "...")) >= 3


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        for name, text in reports().items():
            fh.write(_HEADER + name + "\n" + text)
