"""End-to-end gate: the eight headline behaviors of the package.

Each test prints one PASS/FAIL line on the real stdout (bypassing
pytest capture) so the verdicts are visible in any log; the assertions
that follow carry the details.  Numeric targets are analytic constants
(1, pi, 4) or brute-force counts, never values produced by the code
under test.
"""

import dataclasses
import json
import math
import subprocess
import sys
import time

import numpy as np

import dixlab as dx
from dixlab import maps

import oracles


def test_criterion_1_harmonic_triple(harmonic_1e6, verdict):
    t0 = time.perf_counter()
    dix = dx.dixmier_estimate(harmonic_1e6)
    zeta = dx.zeta_residue_estimate(harmonic_1e6)
    heat = dx.heat_trace(harmonic_1e6, 1e4) / math.gamma(2.0)
    dt = time.perf_counter() - t0
    errs = (abs(dix.value - 1.0), abs(zeta.value - 1.0), abs(heat - 1.0))
    ok = (
        dix.status == "Converged" and errs[0] <= 1e-3
        and zeta.status == "Converged" and errs[1] <= 1e-4
        and errs[2] <= 1e-4
        and dt < 10.0
    )
    verdict(
        1, ok,
        "harmonic 1e6 triple: dixmier %.2e, zeta %.2e, heat %.2e off 1 "
        "(%.1fs)" % (errs[0], errs[1], errs[2], dt),
    )
    assert dix.status == "Converged" and zeta.status == "Converged"
    assert errs[0] <= 1e-3 and errs[1] <= 1e-4 and errs[2] <= 1e-4
    assert dt < 10.0


def test_criterion_2_flat_torus(torus_2000, verdict):
    t0 = time.perf_counter()
    spec = torus_2000
    count_ok = spec.length == oracles.FROZEN["torus_point_count"]
    dix = dx.dixmier_estimate(spec)
    zeta = dx.zeta_residue_estimate(torus_2000)
    heat = dx.heat_trace(torus_2000, 1e6)
    rhs = dx.connes_rhs(dx.FourierMultiplier({(0, 0): 1.0}), 2)
    dt = time.perf_counter() - t0
    rels = (
        abs(dix.value - math.pi) / math.pi,
        abs(zeta.value - math.pi) / math.pi,
        abs(heat - math.pi) / math.pi,
    )
    ok = (
        count_ok and rhs == math.pi
        and dix.status == "Converged" and rels[0] <= 1e-2
        and zeta.status == "Converged" and rels[1] <= 1e-3
        and rels[2] <= 1e-3
        and dt < 60.0
    )
    verdict(
        2, ok,
        "2-torus R=2000: %d points, dixmier %.1e, zeta %.1e, heat %.1e "
        "off pi, rhs exact (%.1fs)" % (spec.length, *rels, dt),
    )
    assert count_ok
    assert rhs == math.pi
    assert dix.status == "Converged" and rels[0] <= 1e-2
    assert zeta.status == "Converged" and rels[1] <= 1e-3
    assert rels[2] <= 1e-3
    assert dt < 60.0


def test_criterion_3_multiplication_operator(verdict):
    f = dx.FourierMultiplier({(0,): 2.0, (1,): 0.5, (-1,): 0.5})
    target = dx.connes_rhs(f, 1)  # = 4 exactly for 2 + cos
    t0 = time.perf_counter()
    vals = {}
    for m in (600, 1200):
        op = dx.multiplication_matrix(f, 1, m)
        est = dx.dixmier_estimate(dataclasses.replace(
            dx.singular_values(op), horizon=op.size // 4))
        vals[m] = est
    dt = time.perf_counter() - t0
    rel600 = abs(vals[600].value - target) / target
    rel1200 = abs(vals[1200].value - target) / target
    ok = (
        vals[600].status == "Converged" and rel600 <= 0.05
        and vals[1200].status == "Converged" and rel1200 < rel600
        and dt < 300.0
    )
    verdict(
        3, ok,
        "2+cos matrix: M=600 off 4 by %.1f%%, M=1200 by %.1f%% "
        "(monotone, %.0fs)" % (100 * rel600, 100 * rel1200, dt),
    )
    assert target == 4.0
    assert vals[600].status == "Converged" and rel600 <= 0.05
    assert vals[1200].status == "Converged"
    assert rel1200 < rel600
    assert dt < 300.0


def test_criterion_4_vacuum_state_invariance(verdict):
    rng = np.random.Generator(np.random.Philox(4))
    worst = 0.0
    trials = 0
    for theta in (0.0, 0.3, (math.sqrt(5.0) - 1.0) / 2.0):
        for _ in range(50):
            coeffs = {}
            for _ in range(int(rng.integers(1, 10))):
                key = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                coeffs[key] = complex(rng.standard_normal(),
                                      rng.standard_normal())
            elem = dx.nc_element(coeffs, theta)
            mono = dx.nc_monomial(int(rng.integers(-3, 4)),
                                  int(rng.integers(-3, 4)), theta)
            conj = dx.nc_product(dx.nc_star(mono),
                                 dx.nc_product(elem, mono))
            a00 = elem.coefficients.get((0, 0), 0.0 + 0.0j)
            worst = max(worst, abs(dx.nc_tau0(conj) - a00))
            trials += 1
    ok = trials == 150 and worst <= 1e-12
    verdict(
        4, ok,
        "nc torus vacuum state: %d monomial conjugations, worst "
        "deviation %.1e" % (trials, worst),
    )
    assert trials == 150
    assert worst <= 1e-12


def test_criterion_5_oscillator_escapes_every_estimator(oscillator_1e7, verdict):
    cls = dx.tauberian_classify(oscillator_1e7)
    report = dx.measurability_report(oscillator_1e7)
    z50 = dx.power_trace(oscillator_1e7, 1 + 1 / 50.0) / 50.0
    z5000 = dx.power_trace(oscillator_1e7, 1 + 1 / 5000.0) / 5000.0
    spread = abs(z50 - z5000)
    ok = (
        cls.status == "NonTauberian"
        and cls.oscillation_amplitude >= 0.15
        and report.verdict == "NotMeasurable"
        and spread >= 0.05
    )
    verdict(
        5, ok,
        "log-periodic model: NonTauberian band %.2f, scheduled zeta "
        "spread %.2f, verdict %s"
        % (cls.oscillation_amplitude, spread, report.verdict),
    )
    assert cls.status == "NonTauberian"
    assert cls.oscillation_amplitude >= 0.15
    assert report.verdict == "NotMeasurable"
    assert spread >= 0.05


def test_criterion_6_commutation_defects(verdict):
    rng = np.random.Generator(np.random.Philox(6))
    n = 10010
    ts = (1e2, 1e3, 1e4)
    worst_shift = 0.0
    worst_ratio = 0.0  # cesaro defect, in units of the 3*sup/t envelope
    violations = []
    for trial in range(100):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        a = rng.random(n) * scale
        sup = float(np.max(np.abs(a)))
        f = maps.floor_embed(a)
        j = int(rng.integers(1, 64))
        d1 = maps.commutator_defect(
            ("shift", "floor_embed"), a,
            t=float(rng.uniform(1.0, n - 100.0)), j=j,
        )
        d2 = maps.commutator_defect(
            ("shift", "window_restrict"), f,
            t=int(rng.integers(0, n - 100)), j=j,
        )
        worst_shift = max(worst_shift, d1, d2)
        for t in ts:
            bound = 3.0 * sup / t
            for pair, data, arg in (
                (("cesaro", "floor_embed"), a, float(t)),
                (("cesaro", "linear_embed"), a, float(t)),
                (("cesaro", "window_restrict"), f, int(t)),
            ):
                d = maps.commutator_defect(pair, data, t=arg)
                worst_ratio = max(worst_ratio, d / bound)
                if d > bound:
                    violations.append((trial, pair[1], t, d, bound))
    ok = worst_shift == 0.0 and not violations
    verdict(
        6, ok,
        "commutation defects, 100 inputs: shift pairs exactly %.1g, "
        "cesaro pairs at most %.2f of the 3*sup/t envelope"
        % (worst_shift, worst_ratio),
    )
    assert worst_shift == 0.0
    assert not violations, violations[:3]


def test_criterion_7_norm_calculus(torus_2000, verdict):
    osc = dx.oscillator_model(10**6)
    chains = (
        ("harmonic", dx.harmonic_sequence(10**6), None),
        ("oscillator", osc, 2 ** np.arange(3, 15, dtype=np.int64)),
        ("torus", torus_2000, None),
    )
    chain_fail = []
    for name, seq, ks in chains:
        z1 = dx.zeta_norm_z1(seq, k_schedule=ks)
        lhs = math.exp(-1.0) * dx.riesz_seminorm_proxy(seq)
        norm = dx.norm_1_inf(seq)
        if not (lhs <= z1 * 1.02 and z1 <= norm * 1.02):
            chain_fail.append((name, lhs, z1, norm))

    rng = np.random.Generator(np.random.Philox(7))
    agree = 0
    for trial in range(1000):
        m = int(rng.integers(32, 257))
        x = dx.decreasing_rearrangement(rng.random(m) + 1e-9)
        if trial % 2 == 0:
            y = dx.decreasing_rearrangement(
                x.values * rng.uniform(0.0, 1.05, m))
        else:
            y = dx.decreasing_rearrangement(rng.random(m) + 1e-9)
        got = dx.submajorizes(x, y)
        want = oracles.exact_dominates(x.values, y.values)
        agree += got == want

    r2 = dx.holder_check(dx.power_log_sequence(1.0, 0.5, 0.0, 10**6),
                         dx.power_log_sequence(1.0, 0.5, 0.0, 10**6), 2.0)
    r3 = dx.holder_check(dx.power_log_sequence(1.5, 1.0 / 3.0, 0.0, 10**6),
                         dx.power_log_sequence(1.0, 2.0 / 3.0, 0.0, 10**6),
                         3.0)
    holder_ok = all(
        r.holds and r.pointwise_ok
        and abs(r.lhs - r.rhs) <= 5e-3 * max(1.0, r.rhs)
        for r in (r2, r3)
    )

    # Q = T^-1 with eigenvalues 1, 2, 5; n^2, n >= 1; 1 + |m|^2 on Z^2
    squares = dx.SingularSequence(1.0 / np.arange(1.0, 1025.0) ** 2,
                                  dx.PowerLogTail(1.0, 2.0))
    mell = [
        dx.mellin_check(np.array([1.0, 0.5, 0.2]), 2.0),
        dx.mellin_check(squares, 1.5),
        dx.mellin_check(dx.torus_spectrum(2, 200, 1.0), 2.0),
    ]
    mellin_ok = all(r.passed and r.rel_error <= 1e-6 for r in mell)

    ok = not chain_fail and agree == 1000 and holder_ok and mellin_ok
    verdict(
        7, ok,
        "norm calculus: 3 seminorm chains, %d/1000 submajorization "
        "calls exact, holder slack %.1e/%.1e, mellin worst %.1e"
        % (agree, abs(r2.lhs - r2.rhs), abs(r3.lhs - r3.rhs),
           max(r.rel_error for r in mell)),
    )
    assert not chain_fail, chain_fail
    assert agree == 1000
    assert holder_ok
    assert mellin_ok


def test_criterion_8_operator_identities_and_determinism(tmp_path, verdict):
    rng = np.random.Generator(np.random.Philox(8))
    worst_u = 0.0
    worst_h = 0.0
    for _ in range(10):
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        q, _ = np.linalg.qr(
            rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        )
        s1 = dx.singular_values(m)
        s2 = dx.singular_values(q @ m @ q.conj().T)
        worst_u = max(worst_u, float(np.max(np.abs(s1.values - s2.values))))
        t1, t2, t3, t4 = dx.hermitian_decompose(m)
        recon = (t1 - t2) + 1j * (t3 - t4)
        worst_h = max(
            worst_h,
            float(np.linalg.norm(recon - m) / np.linalg.norm(m)),
        )

    cfg = {
        "schema_version": 1,
        "seed": 5,
        "experiments": [{
            "label": "h",
            "model": {"kind": "harmonic", "horizon": 65536},
            "methods": ["dixmier", "zeta", "heat_raw", "heat_cesaro"],
        }],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    payloads = {}
    codes = {}
    for fmt in ("csv", "json"):
        pair = []
        rc = []
        for i in range(2):
            out = tmp_path / ("%s%d" % (fmt, i))
            r = subprocess.run(
                [sys.executable, "-m", "dixlab.cli", "--config",
                 str(cfg_path), "--format", fmt, "--out", str(out)],
                capture_output=True, text=True,
            )
            pair.append(out.read_bytes())
            rc.append(r.returncode)
        payloads[fmt] = pair
        codes[fmt] = rc
    identical = all(p[0] == p[1] for p in payloads.values()) and all(
        c[0] == c[1] for c in codes.values()
    )
    ok = worst_u <= 1e-8 and worst_h <= 1e-10 and identical
    verdict(
        8, ok,
        "identities and determinism: unitary dev %.1e, reconstruction "
        "%.1e, double runs byte-identical: %s"
        % (worst_u, worst_h, identical),
    )
    assert worst_u <= 1e-8
    assert worst_h <= 1e-10
    assert identical
