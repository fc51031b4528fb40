"""End-to-end benchmark of dixlab on three workloads.

    python3 perfbench/run.py --workload lattice|matrix|sequences|all \\
        --seed N --seconds S --trace 0|1

Closed loop, one client, one process: each repetition is a fresh child
process (perfbench/child.py) that imports dixlab from the checkout's
src/ and runs the workload's generated config through the CLI path
parse_config -> run_experiment -> emit_report, with BLAS threads
pinned (BLAS_THREADS).  Repetitions start until --seconds have passed;
every output is checked against analytic targets and brute-force
oracles (perfbench/workloads.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
spends the first half of the time on untraced repetitions and the rest
on traced ones, which wrap every public dixlab function from outside
the package, and reports the per-layer metrics.  A human-readable table
and one detail JSON line come first; the last line of stdout is the
result object.  The exit code is 1 when any check failed, 2 when the
checkout cannot be benchmarked.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# the whole run, set-up included, must end well inside 180 s
RUN_DEADLINE_S = 160.0
# import-only children per run; the first only warms bytecode caches
IMPORT_SAMPLES = 3
# BLAS threads in every child (at most nproc).  Two threads on a shared
# 2-CPU machine doubled the run-to-run spread of the matrix workload's
# wall time: IQR 10% of the median against 3% with one.
BLAS_THREADS = 1
# the "# label/method: 1.23s" lines run_experiment prints to stderr
TIMING_LINE = re.compile(r"^# .+/[a-z_]+: [0-9.]+s$")


class Unrunnable(Exception):
    """The checkout cannot be benchmarked (no source, child refused)."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run_child(argv, env, timeout):
    """The child's JSON line, or None if it failed; the timing lines
    run_experiment prints to stderr are swallowed."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC]
            + argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print("child timed out after %.0fs" % timeout, file=sys.stderr)
        return None
    for line in proc.stderr.splitlines():
        if not TIMING_LINE.match(line):
            print(line, file=sys.stderr)
    if proc.returncode == 3:
        raise Unrunnable("dixlab does not import from %s" % SRC)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Checker:
    """Applies the workload's oracles to each repetition's outputs and
    tallies checked rows: report rows, lattice counts, battery checks
    and, when traced, the self-time accounting."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.expected = workloads.EXPECTED_ROWS[workload]
        self.first_lines = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.target_rows = 0
        self.resolved = 0
        self.ref_errs = []
        self.extra = []
        if workload == "lattice":
            self.counts = workloads.lattice_counts()
            self.extra = ["lattice_w(%d,%d)" % t for t in workloads.TORI]
        if workload == "sequences":
            self.oracle = workloads.battery_oracle(
                workloads.battery_inputs(seed))
            self.extra = list(workloads.BATTERY_CHECKS)

    def check(self, rep, out):
        """Check one repetition; out None means the child raised or
        timed out, so every row it owed fails."""
        if out is None:
            self.target_rows += sum(
                r.target is not None for r in self.expected.values())
            names = ["%s/%s" % k for k in self.expected] + self.extra
            checks = [(n, "child raised or timed out") for n in names]
        else:
            checks = self._row_checks(out["report"]) + self._other_checks(out)
        for name, why in checks:
            self.attempted += 1
            if why:
                self.failed += 1
                self.failures.append("rep %d %s: %s" % (rep, name, why))

    def _other_checks(self, out):
        checks = []
        if self.workload == "lattice":
            for n, r, got in out["lattice_w_points"]:
                want = self.counts[(n, r)]
                checks.append(("lattice_w(%d,%d)" % (n, r), None if got == want
                               else "%d points, brute force %d" % (got, want)))
        if self.workload == "sequences":
            for name, ok, detail in workloads.check_battery(
                    out["battery"], self.oracle):
                checks.append((name, None if ok else detail))
        if "trace" in out:
            trace = out["trace"]
            if self.workload == "lattice":
                want = [self.counts[t] for t in workloads.TORI]
                got = trace["lattice_points"]
                checks.append(("torus_spectrum points", None if got == want
                               else "%r, brute force %r" % (got, want)))
            total = sum(v[1] for v in trace["spans"].values())
            root = trace["root_s"]
            checks.append(("trace/self_time_sum", None
                           if abs(total - root) <= 1e-9 * max(1.0, root)
                           else "self times sum to %.9f s, root span %.9f s"
                           % (total, root)))
        return checks

    def _row_checks(self, report):
        lines = report.splitlines()
        seen = {}
        for line, row in zip(lines[1:], csv.DictReader(io.StringIO(report))):
            seen[(row["model"], row["method"])] = (line, row)
        if self.first_lines is None:
            self.first_lines = {k: v[0] for k, v in seen.items()}
        values = {k: float(row["value"]) for k, (_, row) in seen.items()}
        checks = []
        for key, spec in self.expected.items():
            if spec.target is not None:
                self.target_rows += 1
            checks.append(("%s/%s" % key, self._row_why(key, spec, seen,
                                                          values)))
        checks += [("%s/%s" % k, "unexpected row")
                   for k in seen if k not in self.expected]
        return checks

    def _row_why(self, key, spec, seen, values):
        """Why the row fails, or None; also tallies resolved rows and
        reference-row errors."""
        if key not in seen:
            return "row missing from the report"
        line, row = seen[key]
        converged = row["status"] == "Converged"
        rel = math.nan
        if spec.target is not None:
            rel = abs(values[key] - spec.target) / abs(spec.target)
        if spec.reference and converged:
            self.ref_errs.append(rel)
        if line != self.first_lines.get(key):
            return "report bytes differ from the first repetition"
        if spec.must_not_converge and converged:
            return "oscillator row claims Converged"
        if spec.reference and not converged:
            return "reference row is %s" % row["status"]
        if not converged or spec.target is None:
            return None
        if rel > spec.tol:
            return "off target by %.3e > %g" % (rel, spec.tol)
        if self.workload == "matrix":
            # the larger truncation must sit closer to 4 than the smaller
            small, large = ("matrix-M%d" % m for m in workloads.MATRIX_TOL)
            other = (small, key[1])
            if key[0] == large and other in values and not (
                    abs(values[key] - 4.0) < abs(values[other] - 4.0)):
                return "not closer to 4 than %s" % small
        self.resolved += 1
        return None


def _layer_metrics(traced):
    """Per-layer stats from the traced repetitions: times are medians,
    counts come from the first repetition (they repeat exactly)."""
    med = statistics.median

    names = set()
    for out in traced:
        names.update(out["trace"]["spans"])
    layer = {}
    for name in sorted(names):
        stats = [out["trace"]["spans"].get(name, [0, 0.0, 0])
                 for out in traced]
        layer[name + ".calls"] = stats[0][0]
        layer[name + ".self_s"] = med([s[1] for s in stats])
        if name.startswith("kernels."):
            layer[name + ".elems"] = stats[0][2]
            layer[name + ".bytes_computed"] = 8 * stats[0][2]
    groups = {
        "sequences.tail_closures": ("sequences.tail_sum",
                                    "sequences.tail_power_sum",
                                    "sequences.tail_heat_sum"),
        "sequences.build": ("sequences.harmonic_sequence",
                            "sequences.oscillator_sequence"),
    }
    for prefix in ("kernels", "models", "sequences", "estimators", "maps",
                   "cli", "bench"):
        groups[prefix + ".all"] = tuple(
            n for n in names if n.startswith(prefix + "."))
    for group, members in groups.items():
        layer[group + ".calls"] = sum(layer.get(m + ".calls", 0)
                                      for m in members)
        layer[group + ".self_s"] = med([
            sum(out["trace"]["spans"].get(m, [0, 0.0])[1] for m in members)
            for out in traced])
    def counts(trace):
        spans = {k: (v[0], v[2]) for k, v in trace["spans"].items()}
        return spans, trace["lattice_points"], trace["distinct_values"]

    t = traced[0]["trace"]
    layer["trace.counts_repeat"] = int(all(
        counts(out["trace"]) == counts(t) for out in traced))
    layer["models.lattice_points"] = sum(t["lattice_points"])
    layer["models.spectrum_points"] = t["spectrum_points"]
    layer["models.distinct_values"] = t["distinct_values"]
    layer["models.distinct_fraction"] = (
        t["distinct_values"] / t["spectrum_points"]
        if t["spectrum_points"] else 0.0)
    layer["models.matrix_dim"] = sum(t["matrix_dims"])
    layer["trace.wall_s"] = med([out["trace"]["root_s"] for out in traced])
    layer["trace.self_sum_s"] = med([
        sum(v[1] for v in out["trace"]["spans"].values()) for out in traced])
    return layer


def _repetitions(workload, seed, seconds, trace, checker):
    """Import samples, untraced and traced child outputs of one run."""
    start = time.perf_counter()
    env = _child_env()

    def remaining():
        return RUN_DEADLINE_S - (time.perf_counter() - start)

    imports = []
    for i in range(IMPORT_SAMPLES):
        out = _run_child(["--import-only"], env, remaining())
        if out is None:
            raise Unrunnable("import-only child failed")
        if i:
            imports.append(out["import_s"])

    plain, traced = [], []
    phases = [(0, seconds / 2.0 if trace else float(seconds))]
    if trace:
        phases.append((1, float(seconds)))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(workloads.config(workload, seed), fh)
        argv = ["--config", cfg_path, "--workload", workload,
                "--seed", str(seed)]
        t_loop = time.perf_counter()
        for flag, until in phases:
            while True:
                out = _run_child(argv + ["--trace", str(flag)], env,
                                 remaining())
                checker.check(len(plain) + len(traced), out)
                if out is None:
                    return imports, plain, traced
                (traced if flag else plain).append(out)
                if not flag:
                    imports.append(out["import_s"])
                if (time.perf_counter() - t_loop >= until
                        or remaining() < 0):
                    break
    return imports, plain, traced


def run_workload(workload, seed, seconds, trace, spec):
    """One run: prints the table, a detail JSON line and the result
    line; True when every check passed."""
    checker = Checker(workload, seed)
    imports, plain, traced = _repetitions(workload, seed, seconds, trace,
                                          checker)
    # name -> (value, timing samples or None, sample count)
    e2e = {}
    if plain:
        walls = [o["wall_s"] for o in plain]
        e2e = {
            "wall_s": (statistics.median(walls), walls, len(walls)),
            "setup_s": (statistics.median(imports), imports, len(imports)),
            "peak_rss_mb": (statistics.median(
                [o["peak_rss_mb"] for o in plain]), None, len(plain)),
            "max_rel_err": (max(checker.ref_errs, default=math.nan), None,
                            len(checker.ref_errs)),
            "resolved_frac": (checker.resolved / checker.target_rows
                              if checker.target_rows else math.nan, None,
                              checker.target_rows),
        }
    e2e["failed_frac"] = (checker.failed / max(checker.attempted, 1), None,
                          checker.attempted)
    layer = {}
    if traced and plain:
        layer = _layer_metrics(traced)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - e2e["wall_s"][0]

    env_info = (plain + traced)[0]["env"] if plain or traced else None
    print("# perfbench %s seed=%d seconds=%d trace=%d: %d untraced, "
          "%d traced repetitions" % (workload, seed, seconds, trace,
                                     len(plain), len(traced)))
    print("# env %s" % json.dumps(env_info, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_frac"] = "1"
    for name, (value, samples, n) in e2e.items():
        extra = ""
        if samples is not None:
            q1, q3 = _quartiles(samples)
            extra = "  q1 %.6g  q3 %.6g" % (q1, q3)
            if n >= 100:  # a tail percentile only with >= 10 beyond it
                extra += "  p90 %.6g" % statistics.quantiles(samples,
                                                             n=10)[-1]
        print("%-14s %-12.6g %-5s n=%d%s" % (name, value, units[name], n,
                                             extra))
    for name in sorted(layer):
        print("  %-46s %.6g" % (name, layer[name]))
    for line in checker.failures:
        print("FAIL %s" % line)
    print(json.dumps({
        "env": env_info, "layer": layer,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "samples": {k: v[1] for k, v in e2e.items() if v[1] is not None},
    }, sort_keys=True))

    source = layer if trace else {k: v[0] for k, v in e2e.items()}
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = source.get(m["name"], 0)
        # NaN (no reference row converged) is not JSON; the run failed
        metrics[m["name"]] = {"value": value if math.isfinite(value)
                              else None, "unit": m["unit"]}
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return checker.failed == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        if not os.path.isfile(os.path.join(SRC, "dixlab", "__init__.py")):
            raise Unrunnable("no dixlab source under %s" % SRC)
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        names = (workloads.WORKLOADS if args.workload == "all"
                 else (args.workload,))
        ok = True
        for name in names:
            ok = run_workload(name, args.seed, args.seconds, args.trace,
                              spec) and ok
    except (Unrunnable, OSError, ValueError) as exc:
        print("perfbench: cannot run: %s" % exc, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
