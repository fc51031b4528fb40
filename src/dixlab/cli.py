"""Reproducible experiment harness.

A JSON config describes models and the estimators to run on them; the
harness emits one row per (model, method) pair as CSV or JSON with
12-significant-digit values.  Identical config and seed produce
byte-identical output (timings go to stderr only).

Exit codes: 0 all rows Converged, 2 some row was not, 3 the invariant
battery failed, 4 config or input error, 5 numerical certificate failed.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import estimators, maps, models, sequences

SCHEMA_VERSION = 1

ROW_FIELDS = (
    "method", "model", "param", "value", "status",
    "oscillation", "extrapolated", "notes",
)


class ConfigError(ValueError):
    """All schema violations, each tagged with its JSON path."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("\n".join(self.problems))


def _matrix_model(dimension, halfwidth, coefficients, operator_power=None,
                  real=True, max_checkpoint=None):
    """Singular values of the truncated multiplier, scanned to
    min(max_checkpoint, size) values (default: a quarter of the matrix
    size, at least 1)."""
    f = models.FourierMultiplier(dict(coefficients), real_flag=real)
    op = models.multiplication_matrix(f, dimension, halfwidth,
                                      operator_power)
    if max_checkpoint is None:
        max_checkpoint = max(1, op.size // 4)
    return replace(models.singular_values(op),
                   horizon=min(max_checkpoint, op.size))


def _sequence_file_model(path):
    """Finite, nonnegative, nonincreasing values in one column or one
    row; any other file is a FieldError naming the path field and the
    file."""
    def bad(why):
        return sequences.FieldError("path", "%s: %s" % (path, why))

    try:
        with warnings.catch_warnings():
            # an empty file warns and loads as an empty array
            warnings.simplefilter("ignore", UserWarning)
            vals = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except (OSError, ValueError) as exc:
        raise bad(exc) from None
    if vals.ndim != 1:
        raise bad("expected one column or one row of values")
    if vals.size == 0:
        raise bad("no values")
    try:
        return sequences.as_sequence(vals)
    except ValueError as exc:
        raise bad(exc) from None


# kind -> ({field: (type, required)}, builder); the builder is called
# with the parsed fields as keywords, so defaults live in the builders.
# A library builder is looked up in its module at each call, so a
# replaced module attribute (a tracing wrapper) is the one that runs
_KINDS = {
    "harmonic": ({"horizon": (int, False), "coeff": (float, False)},
                 lambda **kw: sequences.harmonic_sequence(**kw)),
    "oscillator": ({"horizon": (int, False)},
                   lambda **kw: sequences.oscillator_model(**kw)),
    "power_log": ({"coeff": (float, True), "power": (float, True),
                   "log_power": (float, True), "horizon": (int, False)},
                  lambda **kw: sequences.power_log_sequence(**kw)),
    "torus": ({"dimension": (int, True), "cutoff_radius": (int, True),
               "operator_power": (float, False)},
              lambda **kw: models.torus_spectrum(**kw)),
    "nc_torus": ({"cutoff_radius": (int, True), "theta": (float, False),
                  "operator_power": (float, False)},
                 lambda **kw: models.nc_torus_spectrum(**kw)),
    "matrix": ({"dimension": (int, True), "halfwidth": (int, True),
                "coefficients": (dict, True), "operator_power": (float, False),
                "real": (bool, False), "max_checkpoint": (int, False)},
               _matrix_model),
    "sequence_file": ({"path": (str, True)}, _sequence_file_model),
}

# config field -> the library's range rule for it, run at parse time so
# that every problem is reported before any experiment runs
_RANGE_RULES = {
    "max_checkpoint": lambda v: sequences._horizon(v, 1, "max_checkpoint"),
    "theta": models._theta,
    "operator_power": lambda v: models._operator_power(None, v),
}


@dataclass(frozen=True)
class ExperimentSpec:
    label: str
    kind: str
    params: tuple  # sorted (key, value) pairs
    methods: tuple
    zeta_schedule: tuple
    heat_schedule: tuple

    def param_dict(self):
        return dict(self.params)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    experiments: tuple


def example_config():
    """A config exercising every estimator; parse_config round-trips it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": 7,
        "experiments": [
            {
                "label": "harmonic",
                "model": {"kind": "harmonic", "horizon": 1000000},
                "methods": ["dixmier", "zeta", "heat_raw"],
            },
            {
                "label": "flat-torus",
                "model": {"kind": "torus", "dimension": 2,
                          "cutoff_radius": 400},
                "methods": ["dixmier", "zeta", "heat_raw"],
                "heat_schedule": [1e4, 1e5, 1e6],
            },
        ],
    }


# field type -> (the JSON types it accepts, what the message names)
_FIELD_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "true/false"),
    str: (str, "a string"),
    dict: (dict, "an object"),
}


def _coerce(value, target, path, problems):
    accepted, name = _FIELD_TYPES[target]
    # a JSON true/false is a Python int, but no number
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and target is not bool):
        problems.append("%s: expected %s" % (path, name))
        return None
    return target(value)


def _parse_schedule(raw, path, problems, rule):
    """raw as a tuple of positive finite floats that the library's
    schedule rule admits."""
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        problems.append("%s: expected a nonempty array" % path)
        return None
    out = []
    for i, v in enumerate(raw):
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not 0 < v < math.inf):
            problems.append("%s[%d]: expected a positive finite number"
                            % (path, i))
            return None
        out.append(float(v))
    try:
        rule(out)
    except ValueError as exc:
        problems.append("%s: %s" % (path, exc))
        return None
    return tuple(out)


def _parse_experiment(entry, idx, problems):
    path = "experiments[%d]" % idx
    if not isinstance(entry, dict):
        problems.append("%s: expected an object" % path)
        return None
    allowed = {"label", "model", "methods", "zeta_schedule", "heat_schedule"}
    for key in sorted(set(entry) - allowed):
        problems.append("%s.%s: unknown key" % (path, key))
    model = entry.get("model")
    if not isinstance(model, dict):
        problems.append("%s.model: expected an object" % path)
        return None
    kind = model.get("kind")
    if kind not in _KINDS:
        problems.append(
            "%s.model.kind: expected one of %s"
            % (path, ", ".join(sorted(_KINDS)))
        )
        return None
    fields = _KINDS[kind][0]
    params = {}
    for key in sorted(set(model) - set(fields) - {"kind"}):
        problems.append("%s.model.%s: unknown key for kind %s"
                        % (path, key, kind))
    for key, (target, required) in fields.items():
        if key in model:
            got = _coerce(model[key], target, "%s.model.%s" % (path, key),
                          problems)
            if got is not None:
                params[key] = got
        elif required:
            problems.append("%s.model.%s: required for kind %s"
                            % (path, key, kind))
    for key, rule in _RANGE_RULES.items():
        if key in params:
            try:
                rule(params[key])
            except ValueError as exc:
                problems.append("%s.model.%s: %s" % (path, key, exc))
    methods = entry.get("methods", ["dixmier"])
    if (not isinstance(methods, list) or not methods
            or any(m not in estimators.METHODS for m in methods)):
        problems.append("%s.methods: expected a nonempty array drawn from %s"
                        % (path, ", ".join(estimators.METHODS)))
        return None
    label = entry.get("label", kind)
    if not isinstance(label, str) or not label:
        problems.append("%s.label: expected a nonempty string" % path)
        return None
    zs = _parse_schedule(entry.get("zeta_schedule"),
                         "%s.zeta_schedule" % path, problems,
                         sequences._zeta_schedule)
    hs = _parse_schedule(entry.get("heat_schedule"),
                         "%s.heat_schedule" % path, problems,
                         lambda ts: estimators._heat_schedule(
                             ts, "heat_cesaro" in methods))
    if "zeta" in methods and kind in ("torus", "nc_torus"):
        # Tr(T^s) = sum (1+|m|^2)^{-ps} diverges for p*s <= n/2, and the
        # schedule's smallest s is 1 + 1/k_max
        n = params.get("dimension") if kind == "torus" else 2
        p = params.get("operator_power", 0.0)
        s = 1.0 + 1.0 / (zs or estimators.ZETA_SCHEDULE)[-1]
        if n in (1, 2, 3) and 0.0 < p * s <= n / 2.0:
            problems.append("%s.model.operator_power: zeta sum diverges at "
                            "s=%g (needs operator_power > %g)"
                            % (path, s, n / (2.0 * s)))
    if kind == "matrix" and "coefficients" in params:
        coeffs, cproblems = _parse_coefficients(
            params["coefficients"], "%s.model.coefficients" % path,
            params.get("dimension"))
        problems.extend(cproblems)
        params["coefficients"] = coeffs
    return ExperimentSpec(
        label=label,
        kind=kind,
        params=tuple(sorted(params.items())),
        methods=tuple(methods),
        zeta_schedule=zs or estimators.ZETA_SCHEDULE,
        heat_schedule=hs or estimators.HEAT_SCHEDULE,
    )


def _parse_coefficients(raw, path, dim):
    problems = []
    out = []
    for key in sorted(raw):
        try:
            idx = tuple(int(part) for part in key.split(","))
        except ValueError:
            problems.append("%s[%r]: key must be comma-separated integers"
                            % (path, key))
            continue
        if dim is not None and len(idx) != dim:
            problems.append("%s[%r]: expected %d indices" % (path, key, dim))
            continue
        v = raw[key]
        if isinstance(v, list) and len(v) == 2 and all(
            isinstance(c, (int, float)) and not isinstance(c, bool)
            for c in v
        ):
            out.append((idx, complex(float(v[0]), float(v[1]))))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append((idx, complex(float(v), 0.0)))
        else:
            problems.append("%s[%r]: expected a number or [re, im]"
                            % (path, key))
    return tuple(out), problems


def parse_config(source):
    """Parse a config dict or JSON file path; collects every violation."""
    if isinstance(source, (str, bytes)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(["config: %s" % exc]) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(["config: invalid JSON (%s)" % exc]) from exc
    else:
        data = source
    problems = []
    if not isinstance(data, dict):
        raise ConfigError(["config: expected a JSON object"])
    for key in sorted(set(data) - {"schema_version", "seed", "experiments"}):
        problems.append("%s: unknown key" % key)
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append("schema_version: expected %d" % SCHEMA_VERSION)
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        problems.append("seed: expected a nonnegative integer")
        seed = 0
    experiments = data.get("experiments")
    specs = []
    if not isinstance(experiments, list) or not experiments:
        problems.append("experiments: expected a nonempty array")
    else:
        for i, entry in enumerate(experiments):
            spec = _parse_experiment(entry, i, problems)
            if spec is not None:
                specs.append(spec)
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(seed=seed, experiments=tuple(specs))


# ------------------------------------------------------------ model build


def _build_model(spec, where="model"):
    """The model of spec, from its kind's builder; where is the JSON path
    of its model object, which prefixes input errors (with the field a
    FieldError names, where the kind has it) and budget refusals."""
    fields, builder = _KINDS[spec.kind]
    try:
        return builder(**spec.param_dict())
    except ValueError as exc:
        field = getattr(exc, "field", None)
        path = where + "." + field if field in fields else where
        raise ConfigError(["%s: %s" % (path, exc)]) from None
    except models.BudgetError as exc:
        raise models.BudgetError("%s: %s" % (where, exc.what), exc.need_mb,
                                 exc.budget_mb) from None


def _param_string(spec):
    parts = []
    for key, value in spec.params:
        if key == "coefficients":
            parts.append("coefficients=%d" % len(value))
        elif isinstance(value, float):
            parts.append("%s=%s" % (key, _fmt(value)))
        else:
            parts.append("%s=%s" % (key, value))
    return ";".join(parts)


def run_experiment(config):
    """Rows in config order; returns (rows, philox_generator).  Every
    model is built before any method runs, and dropped once its rows
    are written."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    built = []
    for idx, spec in enumerate(config.experiments):
        t0 = time.perf_counter()
        built.append((_build_model(spec, "experiments[%d].model" % idx),
                      time.perf_counter() - t0))
    rows = []
    for spec in config.experiments:
        model, build_s = built.pop(0)
        print("# %s/build: %.2fs" % (spec.label, build_s), file=sys.stderr)
        param = _param_string(spec)
        for method in spec.methods:
            t0 = time.perf_counter()
            est = estimators.METHODS[method](
                model, spec.zeta_schedule, spec.heat_schedule
            )
            dt = time.perf_counter() - t0
            print("# %s/%s: %.2fs" % (spec.label, method, dt),
                  file=sys.stderr)
            rows.append({
                "method": est.method,
                "model": spec.label,
                "param": param,
                "value": est.value,
                "status": est.status,
                "oscillation": est.oscillation,
                "extrapolated": est.extrapolated,
                "notes": est.notes,
            })
    return rows, rng


def _fmt(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return "%.12g" % x


def _cells(row):
    """The report cells of a row, in ROW_FIELDS order."""
    return [row["method"], row["model"], row["param"], _fmt(row["value"]),
            row["status"], _fmt(row["oscillation"]),
            "true" if row["extrapolated"] else "false", row["notes"]]


def emit_report(rows, fmt="csv"):
    """Render rows deterministically; returns the exact output text."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        writer.writerows(_cells(row) for row in rows)
        return buf.getvalue()
    if fmt == "json":
        # hand-rolled so numeric text matches the CSV digit for digit:
        # numbers (nan as null) and booleans bare, the rest quoted
        items = []
        for row in rows:
            pairs = []
            for name, cell in zip(ROW_FIELDS, _cells(row)):
                if name in ("value", "oscillation", "extrapolated"):
                    cell = "null" if cell == "nan" else cell
                else:
                    cell = json.dumps(cell)
                pairs.append("\"%s\": %s" % (name, cell))
            items.append("    {%s}" % ", ".join(pairs))
        return (
            "{\n  \"schema_version\": %d,\n  \"rows\": [\n%s\n  ]\n}\n"
            % (SCHEMA_VERSION, ",\n".join(items))
        )
    raise ValueError("format must be csv or json")


# -------------------------------------------------------- invariant suite


def _check_lines(seed):
    """Seeded invariant battery; yields (ok, name, detail)."""
    rng = np.random.Generator(np.random.Philox(seed))

    def rand_seq(n):
        return sequences.decreasing_rearrangement(rng.random(n) + 1e-9).values

    x = rand_seq(512)
    perm = rng.permutation(512)
    r1 = sequences.decreasing_rearrangement(x[perm]).values
    r2 = sequences.decreasing_rearrangement(r1).values
    yield (np.array_equal(r1, x) and np.array_equal(r2, r1),
           "rearrangement idempotent and permutation invariant", "")

    sx = sequences.as_sequence(x)
    alphas = sequences.log_average(sx, estimators.dyadic_schedule(512))
    norm = sequences.norm_1_inf(sx)
    yield (bool(np.all(alphas <= norm + 1e-12)),
           "log averages bounded by the (1,inf) norm", "")

    y = rand_seq(512)
    z = sequences.decreasing_rearrangement(x + y[rng.permutation(512)]).values
    lhs = np.cumsum(z)
    rhs = np.cumsum(x) + np.cumsum(y)
    yield (bool(np.all(lhs <= rhs + 1e-9)),
           "partial sums subadditive under addition", "")

    h = sequences.harmonic_sequence(4096)
    w = sequences.SingularSequence(h.values * rng.uniform(0.2, 1.0))
    yield (sequences.submajorizes(h, w),
           "harmonic sequence submajorizes its damped copy", "")

    a = rng.random(48) + 0.5
    ok_r = (np.array_equal(maps.restrict(maps.floor_embed(a)), a)
            and np.allclose(maps.restrict(maps.linear_embed(a)), a,
                            rtol=0.0, atol=0.0))
    yield ok_r, "restriction inverts both embeddings exactly", ""

    f = maps.floor_embed(a)
    d1 = maps.commutator_defect(("shift", "floor_embed"), a, t=17.0, j=3)
    d2 = maps.commutator_defect(("shift", "window_restrict"), f, t=11, j=2)
    yield (d1 == 0.0 and d2 == 0.0,
           "shift defects vanish identically",
           "d1=%g d2=%g" % (d1, d2))

    g = maps.exp_conjugate(maps.log_conjugate(f))
    t_probe = 7.25
    ok_c = abs(maps.evaluate(g, t_probe) - maps.evaluate(f, t_probe)) == 0.0
    yield ok_c, "exp/log conjugation round trip is exact on steps", ""

    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    t1, t2, t3, t4 = models.hermitian_decompose(m)
    recon = (t1 - t2) + 1j * (t3 - t4)
    err = float(np.linalg.norm(recon - m))
    yield (err <= 1e-10 * max(1.0, float(np.linalg.norm(m))),
           "hermitian decomposition reconstructs the operator",
           "err=%.2e" % err)

    q, _ = np.linalg.qr(
        rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    )
    s1 = models.singular_values(m)
    s2 = models.singular_values(q @ m @ q.conj().T)
    dev = float(np.max(np.abs(s1.values - s2.values)))
    yield dev <= 1e-8, "singular values unitarily invariant", "dev=%.2e" % dev

    theta = (math.sqrt(5.0) - 1.0) / 2.0
    coeffs = {}
    for _ in range(6):
        mm, nn = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        coeffs[(mm, nn)] = complex(rng.standard_normal(),
                                   rng.standard_normal())
    elem = models.nc_element(coeffs, theta)
    mono = models.nc_monomial(int(rng.integers(-3, 4)),
                              int(rng.integers(-3, 4)), theta)
    conj = models.nc_product(models.nc_star(mono),
                             models.nc_product(elem, mono))
    a00 = elem.coefficients.get((0, 0), 0.0 + 0.0j)
    dev_tau = abs(models.nc_tau0(conj) - a00)
    yield (dev_tau <= 1e-12,
           "vacuum state invariant under monomial conjugation",
           "dev=%.1e" % dev_tau)

    grid = np.linspace(0.0, 1.0, 33)
    basis = np.stack([np.ones_like(grid), grid])
    ok_dom = models.domination_check(basis, 1.5 + grid)
    bad = models.domination_check(basis, 0.5 * np.ones_like(grid))
    yield (ok_dom and not bad,
           "pointwise domination accepts and rejects correctly", "")


def run_check(seed):
    failures = 0
    for ok, name, detail in _check_lines(seed):
        tag = "ok  " if ok else "FAIL"
        line = "%s %s" % (tag, name)
        if detail and not ok:
            line += " (%s)" % detail
        _stdout(line + "\n")
        failures += 0 if ok else 1
    return failures


# ----------------------------------------------------------------- main


def _stdout(text):
    """Write text to stdout now.  Once the reader has closed the pipe,
    stdout points at os.devnull and nothing is said: the run goes on and
    exits with the code it decides (--check must finish its battery)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError([message])


def _seed(text):
    """--seed: a nonnegative integer, like the config's seed field."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            "expected a nonnegative integer, got %r" % text)
    return int(text)


def build_parser():
    parser = _Parser(prog="dixlab", description=__doc__)
    parser.add_argument("--config", help="JSON experiment description")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="override the config seed")
    parser.add_argument("--list-models", action="store_true",
                        help="print the model kinds and exit")
    parser.add_argument("--check", action="store_true",
                        help="run the seeded invariant battery and exit")
    return parser


def _list_models():
    for kind, (fields, _) in sorted(_KINDS.items()):
        required = ", ".join(k for k, (_, req) in fields.items() if req)
        _stdout("%s\n  fields: %s\n  required: %s\n"
                % (kind, ", ".join(sorted(fields)), required or "none"))


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    if args.list_models:
        _list_models()
        return 0
    if not (args.check or args.config):
        print("error: --config is required (or use --check/--list-models)",
              file=sys.stderr)
        return 4
    try:
        # read first, so that a bad value is not blamed on a config field
        sequences.memory_budget_mb()
        if args.check:
            failures = run_check(args.seed if args.seed is not None else 0)
            return 3 if failures else 0
        config = parse_config(args.config)
        if args.seed is not None:
            config = ExperimentConfig(seed=args.seed,
                                      experiments=config.experiments)
        rows, _ = run_experiment(config)
    except ConfigError as exc:
        print("error:\n%s" % exc, file=sys.stderr)
        return 4
    except (ValueError, models.BudgetError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except models.CertificateError as exc:
        print("error: numerical certificate failed: %s" % exc,
              file=sys.stderr)
        return 5
    text = emit_report(rows, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: --out: %s" % exc, file=sys.stderr)
            return 4
    else:
        _stdout(text)
    if all(row["status"] == estimators.CONVERGED for row in rows):
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
