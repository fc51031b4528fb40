"""One repetition in a fresh process: import dixlab, then run the
workload config through parse_config -> run_experiment -> emit_report
(plus the sequences battery) and print one JSON line on stdout.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
BLAS threads pinned in the environment.  --import-only stops after the
timed import.  The config seed is the benchmark seed; outputs are
checked by run.py, not here.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

# spans whose results are kept in traced runs, and what is kept
_RECORD = {
    "models.torus_spectrum": lambda seq: seq.values,
    "models.singular_values": lambda seq: seq.values,
    "sequences.harmonic_sequence": lambda seq: seq.values,
    "sequences.oscillator_sequence": lambda seq: seq.values,
    "models.multiplication_matrix": lambda op: op.size,
}


def _distinct(values):
    # spectra arrive sorted, so distinct values are the runs
    import numpy as np

    return 1 + int(np.count_nonzero(np.diff(values))) if values.size else 0


def _blas_threads():
    """Thread count each bundled OpenBLAS reports, where it exports it."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for mod in (numpy, scipy):
        pkg = mod.__name__
        libdir = os.path.join(os.path.dirname(mod.__file__), os.pardir,
                              pkg + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg] = int(fn())
                    break
    return found


def environment(dixlab):
    import numpy
    import scipy

    def blas_version(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"].get(
                "version")
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "have_numba": bool(dixlab.HAVE_NUMBA),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy.show_config),
        "openblas_scipy": blas_version(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": _blas_threads(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import dixlab
    import_s = time.perf_counter() - t0

    src = os.path.realpath(args.src)
    where = os.path.realpath(dixlab.__file__)
    if not where.startswith(src + os.sep):
        print("dixlab imported from %s, not from %s" % (where, src),
              file=sys.stderr)
        return 3
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    from dixlab import cli, kernels

    import spans
    import workloads

    battery = (workloads.battery_inputs(args.seed)
               if args.workload == "sequences" else None)
    tracer = spans.Tracer(_RECORD) if args.trace else None
    if tracer:
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    battery_out = None
    t0 = time.perf_counter()
    with span("bench.run") as root:
        config = cli.parse_config(args.config)
        rows, _ = cli.run_experiment(config)
        report = cli.emit_report(rows, "csv")
        if battery is not None:
            with span("bench.battery"):
                battery_out = workloads.run_battery(battery, dixlab)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "report": report,
        "battery": battery_out,
        "env": environment(dixlab),
    }
    if tracer:
        tracer.uninstall()
        rec = tracer.recorded
        spectra = [v for name in rec if name != "models.multiplication_matrix"
                   for v in rec[name]]
        out["trace"] = {
            "root_s": root.total,
            "spans": {k: v for k, v in tracer.stats.items() if v[0]},
            "lattice_points": [int(v.size)
                               for v in rec["models.torus_spectrum"]],
            "spectrum_points": sum(int(v.size) for v in spectra),
            "distinct_values": sum(_distinct(v) for v in spectra),
            "matrix_dims": rec["models.multiplication_matrix"],
        }
    if args.workload == "lattice":
        # checked against a brute-force count in run.py
        out["lattice_w_points"] = [
            [n, r, int(kernels.lattice_w(n, r).size)]
            for n, r in workloads.TORI
        ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
