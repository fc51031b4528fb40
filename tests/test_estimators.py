import dataclasses
import math
import warnings

import numpy as np
import pytest

import dixlab as dx
from dixlab import estimators, kernels, sequences

import oracles


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestDyadicSchedule:
    def test_powers_of_two_within_limit(self):
        np.testing.assert_array_equal(
            dx.dyadic_schedule(100), [2, 4, 8, 16, 32, 64]
        )

    def test_limit_too_small(self):
        with pytest.raises(ValueError):
            dx.dyadic_schedule(1)


class TestDixmierEstimate:
    def test_harmonic_converges_to_one(self, harmonic_1e6):
        e = dx.dixmier_estimate(harmonic_1e6)
        assert e.status == "Converged"
        assert e.extrapolated
        assert e.value == pytest.approx(1.0, abs=1e-3)
        assert e.oscillation <= 1e-2
        assert abs(e.value - 1.0) <= 2.0 * e.error_estimate + 1e-4

    def test_limit_fit_is_reused(self, harmonic_1e6, monkeypatch):
        sizes = []
        fit = sequences._fit_line

        def counted(zs, vals):
            sizes.append(len(zs))
            return fit(zs, vals)

        monkeypatch.setattr(sequences, "_fit_line", counted)
        monkeypatch.setattr(estimators, "_fit_line", counted)
        e = dx.dixmier_estimate(harmonic_1e6)
        assert sizes == [7, 6, 3]
        # the error estimate is the one refitting the last 6 would give
        ks, alphas = e.raw_series
        zs = 1.0 / np.log1p(ks[-6:].astype(np.float64))
        a6, _, resid = fit(zs, alphas[-6:])
        a3, _, _ = fit(zs[-3:], alphas[-3:])
        assert e.value == max(a6, 0.0)
        assert e.error_estimate == (2.0 * float(np.max(np.abs(resid)))
                                    + abs(a6 - a3))

    def test_oscillator_band(self, oscillator_1e7):
        e = dx.dixmier_estimate(oscillator_1e7)
        assert e.status == "Oscillating"
        assert e.oscillation == pytest.approx(oracles.FROZEN["osc_band"],
                                              abs=5e-3)
        assert e.oscillation >= 0.15

    def test_short_data_is_undetermined(self):
        e = dx.dixmier_estimate(dx.harmonic_sequence(512))
        assert e.status == "Undetermined"
        assert math.isnan(e.value)

    def test_explicit_cap_overrides_gate(self):
        x = dataclasses.replace(dx.harmonic_sequence(4096), horizon=512)
        e = dx.dixmier_estimate(x)
        assert e.status == "Converged"
        ks, _ = e.raw_series
        assert ks[-1] <= 512
        v = dx.tauberian_classify(x)
        assert v.status == "Tauberian"
        assert v.diagnostics["checkpoints"][-1] == ks[-1]

    def test_scaling_homogeneity(self):
        base = dx.harmonic_sequence(10**5)
        e1 = dx.dixmier_estimate(base)
        for c in (0.5, 2.0):
            e2 = dx.dixmier_estimate(base.scaled(c))
            assert e2.value == pytest.approx(c * e1.value, rel=1e-6)


class TestZetaResidueEstimate:
    def test_harmonic_with_tail_extrapolates_to_one(self, harmonic_1e6):
        e = dx.zeta_residue_estimate(harmonic_1e6)
        assert e.status == "Converged"
        assert e.value - 1.0 == pytest.approx(
            oracles.FROZEN["harmonic_zeta_extrap_err"], abs=5e-6
        )
        assert abs(e.value - 1.0) <= 1e-4

    def test_against_mpmath_zeta_values(self, harmonic_1e6):
        e = dx.zeta_residue_estimate(harmonic_1e6)
        ks, vals = e.raw_series
        for k, v in zip(ks, vals):
            want = oracles.mp_zeta(1.0 + 1.0 / k) / k
            assert v == pytest.approx(want, rel=1e-7)

    def test_callable_evaluator_accepted(self):
        e = dx.zeta_residue_estimate(lambda s: oracles.mp_zeta(s))
        assert e.status == "Converged"
        # the schedule's own extrapolation error, pinned by the oracle
        assert e.value - 1.0 == pytest.approx(
            oracles.FROZEN["harmonic_zeta_extrap_err"], abs=2e-6
        )

    def test_bare_head_guard_refuses_when_truncation_dominates(self):
        x = dx.SingularSequence(1.0 / np.arange(1.0, 2049.0))
        e = dx.zeta_residue_estimate(x, k_schedule=(25, 50, 100, 200))
        assert e.status == "Undetermined"
        assert math.isnan(e.value)
        assert "tail" in e.notes
        assert "head truncation dominates" in e.notes

    def test_bare_head_sums_once_per_schedule_point(self, monkeypatch):
        calls = []
        power_sum = kernels.power_sum

        def counting(values, s, counts=None):
            calls.append(s)
            return power_sum(values, s, counts)

        monkeypatch.setattr(kernels, "power_sum", counting)
        x = dx.SingularSequence(1.0 / np.arange(1.0, 2049.0))
        dx.zeta_residue_estimate(x, k_schedule=(25, 50, 100, 200))
        assert len(calls) == 4

    def test_finite_support_vanishing_residue(self):
        x = dx.SingularSequence(np.array([2.0, 1.0, 0.5, 0.0, 0.0]))
        e = dx.zeta_residue_estimate(x, k_schedule=(25, 50, 100, 200))
        assert e.status == "Converged"
        # finite traces have residue 0 up to the schedule's resolution
        assert e.value == pytest.approx(0.0, abs=1e-3)

    def test_divergent_evaluator_raises(self):
        x = dx.SingularSequence(np.full(100, 1.0))

        def bad(s):
            return math.inf

        with pytest.raises(ValueError, match="divergent"):
            dx.zeta_residue_estimate(bad)

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            dx.zeta_residue_estimate(lambda s: 1.0 / (s - 1.0),
                                     k_schedule=(50, 25))


class TestHeatEstimates:
    def test_frozen_harmonic_value(self, harmonic_1e6):
        got = dx.heat_trace(harmonic_1e6, 1e3)
        assert got == pytest.approx(oracles.FROZEN["harmonic_heat_1e3"],
                                    abs=1e-9)

    def test_heat_trace_matches_brute(self):
        x = dx.SingularSequence(
            dx.decreasing_rearrangement(_rng(3).random(4000) + 1e-6).values
        )
        t = 50.0
        want = oracles.brute_heat(x.values, t, 1.0) / t
        assert dx.heat_trace(x, t) == pytest.approx(want, rel=1e-12)

    def test_raw_estimate_extrapolates_to_one(self, harmonic_1e6):
        e = dx.heat_estimate(harmonic_1e6, smoothing="raw")
        assert e.status == "Converged"
        assert e.value == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_alpha_exponent_normalization(self, alpha, harmonic_1e6):
        # for mu ~ 1/n every exponent gives the residue once divided by
        # Gamma(1/alpha + 1)
        e = dx.heat_estimate(harmonic_1e6, alpha_exp=alpha, smoothing="raw")
        assert e.status == "Converged"
        assert e.value == pytest.approx(1.0, abs=2e-3)

    def test_cesaro_refuses_unresolved_log_drift(self, harmonic_1e6):
        e = dx.heat_estimate(harmonic_1e6, smoothing="cesaro")
        assert e.status in ("Undetermined", "Converged")
        if e.status == "Undetermined":
            assert math.isnan(e.value)

    def test_cesaro_reads_the_head_once_per_scheduled_t(self, monkeypatch):
        # the exact log-scale mean: no heat trace, one head pass per
        # scheduled T and one at t = 1
        traces, passes = [], []
        heat_trace, gamma_sum = estimators.heat_trace, kernels.heat_gamma_sum

        def counting_trace(*args, **kwargs):
            traces.append(args)
            return heat_trace(*args, **kwargs)

        def counting_sum(values, t, alpha, counts=None):
            passes.append(t)
            return gamma_sum(values, t, alpha, counts)

        monkeypatch.setattr(estimators, "heat_trace", counting_trace)
        monkeypatch.setattr(kernels, "heat_gamma_sum", counting_sum)
        dx.heat_estimate(dx.harmonic_sequence(4096), (1e2, 1e3, 1e4),
                         smoothing="cesaro")
        assert traces == []
        assert passes == [1.0, 1e2, 1e3, 1e4]

    @pytest.mark.parametrize("horizon,rtol", [(64, 1e-12), (10**6, 1e-13)])
    def test_cesaro_matches_the_harmonic_closed_form(self, horizon, rtol):
        # mu_n = 1/n: g(s) = 1 / (s (e^(1/s) - 1)), so (1/log T) int_1^T
        # g ds/s = [log(1 - e^-1) - log(1 - e^(-1/T))] / log T, 0.901485,
        # 0.933672 and 0.950205 here; the grid read 0.901454, 0.933652
        # and 0.950190.  A head of 64 leaves most of it to the tail term;
        # its Euler-Maclaurin closure without f'\''/720 read 1.1e-10 high
        ts = (1e2, 1e3, 1e4)
        got = dx.heat_estimate(dx.harmonic_sequence(horizon), ts,
                               smoothing="cesaro").raw_series[1]
        want = [(math.log(-math.expm1(-1.0)) - math.log(-math.expm1(-1 / T)))
                / math.log(T) for T in ts]
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    @pytest.mark.parametrize("args,horizon,ts,alpha", [
        ((2.0, 1.5, 0.5), 64, (2.0, 10.0, 100.0), 1.0),
        ((1.0, 1.0, -1.0), 200, (10.0, 100.0, 1000.0), 1.0),
        ((1.0, 1.2, 0.0), 64, (1e2, 1e3, 1e4), 0.5),
        ((1.0, 1.2, 0.0), 64, (1e2, 1e3, 1e4), 2.0),
    ])
    def test_cesaro_tail_matches_a_long_head(self, args, horizon, ts, alpha):
        # the tail term against 2e6 head values, past which the terms
        # total under 1e-20 at these T; the quadrature grid it replaced
        # was off by 5e-6 to 9e-5 here
        short = dx.power_log_sequence(*args, horizon)
        long = dx.SingularSequence(
            dx.power_log_sequence(*args, 2 * 10**6).head)
        got = dx.heat_estimate(short, ts, alpha, "cesaro").raw_series[1]
        want = dx.heat_estimate(long, ts, alpha, "cesaro").raw_series[1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("T", [10.0, 100.0])
    def test_cesaro_tail_term_against_mpmath(self, T):
        # int_1^T R(s) ds/s^2: in y = z(s) - z(T) at T = 10, where z(T) =
        # 1/(T mu_64) = 12.5, on unit panels of log s at T = 100
        m = dx.power_log_sequence(2.0, 1.5, 0.5, 64)
        x, _, tail = sequences._closures(m)
        got, bound = estimators._log_heat_tail(
            tail, 1.0, float(x.at(x.length)), 1.0, T)
        want = oracles.mp_log_heat_tail(2.0, 1.5, 0.5, 1.0, 65, 1.0, T)
        assert got == pytest.approx(want, rel=1e-12)
        assert abs(got - want) <= bound

    def test_cesaro_smooths_the_oscillator(self):
        m = dx.oscillator_model(10**6)
        raw = dx.heat_estimate(m, smoothing="raw")
        ces = dx.heat_estimate(m, smoothing="cesaro")
        assert raw.status == "Oscillating"
        assert ces.status == "Converged"
        assert not ces.extrapolated

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_alpha_exp_must_be_positive_and_finite(self, alpha):
        # 0 divided by zero and -1 or inf failed in math.gamma
        x = dx.harmonic_sequence(2048)
        with pytest.raises(ValueError, match="alpha_exp"):
            dx.heat_trace(x, 100.0, alpha)
        for smoothing in ("raw", "cesaro"):
            with pytest.raises(ValueError, match="alpha_exp"):
                dx.heat_estimate(x, alpha_exp=alpha, smoothing=smoothing)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            dx.heat_estimate(dx.harmonic_sequence(2048), (1e3, 1e2))
        with pytest.raises(ValueError):
            dx.heat_estimate(dx.harmonic_sequence(2048), (1e2,),
                             smoothing="bogus")


class TestOscillatorModel:
    def test_scheduled_zeta_values_frozen(self, oscillator_1e7):
        z50 = dx.power_trace(oscillator_1e7, 1 + 1 / 50.0) / 50.0
        z5000 = dx.power_trace(oscillator_1e7, 1 + 1 / 5000.0) / 5000.0
        assert z50 == pytest.approx(oracles.FROZEN["osc_zeta_50"], abs=1e-5)
        assert z5000 == pytest.approx(oracles.FROZEN["osc_zeta_5000"],
                                      abs=1e-5)
        assert abs(z50 - z5000) >= 0.05

    def test_zeta_matches_quadrature_oracle(self):
        # 10^5 values asked for, 2^16 stored: the tail sums from 2^16 + 1
        m = dx.oscillator_model(10**5)
        head = m.values
        assert head.size == 2**16
        for s in (1.02, 1.1):
            want = (oracles.mp_power_sum(head, s)
                    + oracles.mp_osc_tail(2**16 + 1, s=s))
            assert dx.power_trace(m, s) == pytest.approx(float(want),
                                                         rel=1e-12)

    @pytest.mark.parametrize("k", estimators.ZETA_SCHEDULE)
    def test_zeta_against_mpmath(self, k):
        s = 1.0 + 1.0 / k
        m = dx.oscillator_model(10**4)
        want_tail = oracles.mp_osc_tail(10**4 + 1, s=s)
        want = oracles.mp_power_sum(m.values, s) + want_tail
        assert dx.power_trace(m, s) == pytest.approx(float(want), rel=1e-12)

    def test_divergence_guard(self):
        with pytest.raises(ValueError):
            dx.power_trace(dx.oscillator_model(10**4), 1.0)

    def test_tail_starts_past_the_head(self):
        # the head holds n <= H, so the tail sum starts at H + 1; from H
        # it would count the term at H twice, 3.9e-4 of zeta(1.5) and
        # 1.2e-3 of heat(100) at H = 100
        short, long = dx.oscillator_model(100), dx.oscillator_model(10**6)
        assert dx.power_trace(short, 1.5) == pytest.approx(
            dx.power_trace(long, 1.5), abs=1e-5)
        assert dx.heat_trace(short, 100.0) == pytest.approx(
            dx.heat_trace(long, 100.0), abs=1e-5)

    def test_head_stops_at_2_16_values_and_the_scan_at_the_horizon(
            self, oscillator_1e7):
        x = oscillator_1e7
        assert (x.head.size, x.length, x.horizon) == (2**16, 2**16, 10**7)
        assert x.tail == sequences.OscillatorTail()
        small = dx.oscillator_model(1000)
        assert (small.head.size, small.horizon) == (1000, 1000)
        ks = dx.tauberian_classify(x).diagnostics["checkpoints"]
        assert ks[-1] == 2**23

    def test_log_average_matches_the_materialized_sequence(
            self, oscillator_1e7):
        # the 7 checkpoints past 2^16 read the tail; all 23 agree
        ks = dx.dyadic_schedule(10**7)
        got = dx.log_average(oscillator_1e7, ks).alphas
        want = dx.log_average(dx.oscillator_sequence(10**7), ks).alphas
        assert ks.size == 23
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_norm_and_membership_from_the_tail(self):
        # sup alpha_k is the head's own peak near k = 2^15; past it the
        # tail's limsup alpha_k, 2 + sqrt(2)/2, stays below.  The tail
        # gives the exponents (1, 0) and the witnesses limsup n mu = 3
        # and limsup n mu / log n = 0 exactly
        x = dx.oscillator_model(10**6)
        assert dx.norm_1_inf(x) == pytest.approx(2.71224415433, abs=1e-11)
        assert dx.norm_1_inf(x) > 2.0 + math.sqrt(2.0) / 2.0
        rep = dx.ideal_membership(x)
        assert rep.fitted_exponents == (1.0, 0.0)
        assert (rep.in_m1inf, rep.in_weak_l1, rep.in_u1inf) == (
            True, True, True)
        assert (rep.witness_weak_l1, rep.witness_u1inf) == (3.0, 0.0)
        assert rep.window is None

    def test_z1_frozen_value(self):
        m = dx.oscillator_model(10**6)
        ks = 2 ** np.arange(3, 15, dtype=np.int64)
        z1 = dx.zeta_norm_z1(m, k_schedule=ks)
        assert z1 == pytest.approx(oracles.FROZEN["osc_z1_1e6"], rel=1e-9)


class TestPowerTrace:
    @pytest.mark.parametrize("build,s", [
        (lambda: dx.LatticeModel(2, 50, 1.0), 0.9),
        (lambda: dx.oscillator_model(10**4), 1.0),
        (lambda: dx.harmonic_sequence(1024), 1.0),
    ])
    def test_divergent_s_is_refused_before_the_head_sum(self, build, s,
                                                        monkeypatch):
        model = build()

        def refuse(*args, **kwargs):
            raise AssertionError("head summed")

        monkeypatch.setattr(kernels, "power_sum", refuse)
        with pytest.raises(ValueError, match=r"s=%g\b" % s):
            dx.power_trace(model, s)


class TestMeasurability:
    def test_harmonic_is_measurable(self, harmonic_1e6):
        rep = dx.measurability_report(harmonic_1e6)
        assert rep.verdict == "Measurable"
        assert rep.max_pairwise_discrepancy <= rep.tolerance
        assert set(rep.estimates) == {"dixmier", "zeta", "heat_raw"}

    def test_oscillator_is_not_measurable(self, oscillator_1e7):
        rep = dx.measurability_report(oscillator_1e7)
        assert rep.verdict == "NotMeasurable"
        assert any(
            e.status == "Oscillating" and e.oscillation > 5e-2
            for e in rep.estimates.values()
        )

    def test_cross_method_errors_cover_disagreement(self, harmonic_1e6):
        rep = dx.measurability_report(harmonic_1e6)
        ests = list(rep.estimates.values())
        for i in range(len(ests)):
            for j in range(i + 1, len(ests)):
                gap = abs(ests[i].value - ests[j].value)
                budget = 2.0 * (ests[i].error_estimate
                                + ests[j].error_estimate)
                assert gap <= budget

    def test_model_carries_the_dixmier_cap(self):
        f = dx.FourierMultiplier({(0,): 2.0, (1,): 0.5, (-1,): 0.5})
        op = dx.multiplication_matrix(f, 1, 300)
        model = dataclasses.replace(dx.singular_values(op),
                                    horizon=op.size // 4)
        rep = dx.measurability_report(model, methods=("dixmier", "zeta"))
        dix = rep.estimates["dixmier"]
        assert dix.status == "Converged"
        assert dix.value == pytest.approx(4.0, rel=0.1)
        assert int(dix.raw_series[0][-1]) <= op.size // 4
        # a lower horizon caps the scan further
        capped = dx.dixmier_estimate(dataclasses.replace(model, horizon=64))
        assert int(capped.raw_series[0][-1]) <= 64

    def test_converged_estimators_that_disagree(self):
        # a 1.5/n tail behind the harmonic 1e6 head passes the junction
        # check (0.55): the log average still reads the head's 1, the
        # zeta residue the tail's 1.5
        head = dx.harmonic_sequence(10**6).head
        model = dx.SingularSequence(head, tail=dx.PowerLogTail(1.5, 1.0))
        rep = dx.measurability_report(model, methods=("dixmier", "zeta"))
        dix, zeta = rep.estimates["dixmier"], rep.estimates["zeta"]
        assert (dix.status, zeta.status) == ("Converged", "Converged")
        assert dix.value == pytest.approx(1.0, abs=1e-3)
        assert zeta.value == pytest.approx(1.5, abs=0.02)
        assert rep.verdict == "NotMeasurable"
        assert rep.notes == "converged estimators disagree beyond tolerance"
        assert rep.max_pairwise_discrepancy > rep.tolerance

    def test_needs_two_methods(self, harmonic_1e6):
        with pytest.raises(ValueError):
            dx.measurability_report(harmonic_1e6, methods=("dixmier",))

    def test_undetermined_component_blocks_verdict(self):
        x = dx.SingularSequence(1.0 / np.arange(1.0, 5001.0))
        rep = dx.measurability_report(x, methods=("dixmier", "zeta"))
        assert rep.verdict == "Undetermined"


class TestProductZeta:
    def test_even_sublattice_frozen_residue(self, torus_2000):
        e = dx.product_zeta_sequence(dx.SublatticeProjection(2, 2),
                                     torus_2000)
        assert e.status == "Converged"
        assert e.value == pytest.approx(
            oracles.FROZEN["even_sublattice_residue"], abs=1e-7
        )
        assert e.value == pytest.approx(math.pi / 4.0, rel=2e-4)

    def test_multiplier_route_scales_the_residue(self, torus_2000):
        f = dx.FourierMultiplier({(0, 0): 2.0})
        e = dx.product_zeta_sequence(f, torus_2000)
        assert e.value == pytest.approx(2.0 * math.pi, rel=1e-4)

    def test_sublattice_enumeration_respects_budget(self, monkeypatch):
        m = dx.LatticeModel(2, 2000)  # its constructor charges 183 MB
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "1")
        with pytest.raises(dx.BudgetError):
            dx.product_zeta_sequence(dx.SublatticeProjection(2, 2), m)

    def test_stride_must_divide_cutoff(self):
        m = dx.LatticeModel(2, 101)
        with pytest.raises(ValueError, match="multiple"):
            dx.product_zeta_sequence(dx.SublatticeProjection(2, 2), m)

    def test_inexact_symbols_are_refused(self, torus_2000):
        with pytest.raises(TypeError, match="multiplication_matrix"):
            dx.product_zeta_sequence(np.eye(4), torus_2000)

    @pytest.mark.parametrize("schedule", [(50, 25), (0, 25)])
    def test_schedule_checked_as_the_zeta_estimate_checks_it(self,
                                                             schedule):
        # (50, 25) read Converged 3.1425 from a decreasing schedule, and
        # (0, 25) divided by zero with a RuntimeWarning
        f = dx.FourierMultiplier({(0, 0): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="k schedule"):
                dx.product_zeta_sequence(f, dx.LatticeModel(2, 50),
                                         schedule)
            with pytest.raises(ValueError, match="k schedule"):
                dx.zeta_residue_estimate(dx.harmonic_sequence(1024), schedule)

    def test_complex_symbol_refused(self, torus_2000):
        f = dx.FourierMultiplier({(1, 0): 1.0 + 0j}, real_flag=False)
        with pytest.raises(ValueError):
            dx.product_zeta_sequence(f, torus_2000)


class TestHolder:
    def test_conjugate_pair_equality(self):
        x = dx.power_log_sequence(1.0, 0.5, 0.0, 10**6)
        rep = dx.holder_check(x, x, 2.0)
        assert rep.status == "Converged"
        assert rep.pointwise_ok
        assert rep.holds
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-9)
        assert rep.lhs == pytest.approx(1.0, abs=1e-3)

    def test_p_three_mixed_pair(self):
        x = dx.power_log_sequence(1.5, 1.0 / 3.0, 0.0, 10**6)
        y = dx.power_log_sequence(1.0, 2.0 / 3.0, 0.0, 10**6)
        rep = dx.holder_check(x, y, 3.0)
        assert rep.status == "Converged"
        assert rep.pointwise_ok
        assert rep.holds
        # lhs = 1.5, rhs = (1.5^3)^(1/3) * 1^(2/3)
        assert rep.lhs == pytest.approx(1.5, abs=2e-3)
        assert rep.rhs == pytest.approx(1.5, abs=2e-3)

    def test_pointwise_inequality_on_random_data(self):
        r = _rng(9)
        for seed in range(5):
            x = dx.decreasing_rearrangement(r.random(2048) + 1e-9)
            y = dx.decreasing_rearrangement(r.random(2048) + 1e-9)
            rep = dx.holder_check(x, y, p=1.5)
            assert rep.pointwise_ok

    def test_divergent_side_yields_undetermined(self):
        x = dx.power_log_sequence(1.0, 0.6, 0.0, 10**5)
        y = dx.power_log_sequence(1.0, 0.4, 0.0, 10**5)
        rep = dx.holder_check(x, y, 2.0)
        assert rep.status == "Undetermined"
        assert rep.holds is None
        assert rep.pointwise_ok

    def test_lattice_runs_are_cut_and_powered_as_runs(self):
        x = dx.LatticeModel(2, 200).spectrum()
        y = dx.LatticeModel(2, 150).spectrum()
        L = y.length
        xh = estimators._truncate(x, L)
        assert xh.counts is not None and xh.length == L and xh.tail is None
        np.testing.assert_array_equal(xh.values, x.values[:L])
        xp = estimators._seq_power(xh, 3.0)
        assert xp.counts is not None
        np.testing.assert_array_equal(xp.values, xh.values ** 3.0)
        got = dx.holder_check(x, y, 3.0)
        want = dx.holder_check(*(dx.SingularSequence(s.values, s.tail)
                                 for s in (x, y)), 3.0)
        assert (got.status, got.pointwise_ok, got.holds) == (
            want.status, want.pointwise_ok, want.holds)
        # the extrapolated limits sit near 1e-3 and 1e-6, fitted from
        # alphas near 0.1 that agree to an ulp
        assert got.lhs == pytest.approx(want.lhs, rel=1e-9)
        assert got.rhs == pytest.approx(want.rhs, rel=1e-9)

    def test_product_of_runs_is_built_on_the_run_ends(self, monkeypatch):
        x = dx.LatticeModel(2, 200).spectrum()
        y = dx.LatticeModel(2, 150).spectrum()
        plain = dx.SingularSequence(y.values[:5000])
        pairs = ((x, y), (x, plain), (plain, x))
        dixmier = estimators.dixmier_estimate
        seen = []

        def spy(source, *args):
            seen.append(source)
            return dixmier(source, *args)

        def refuse(head, counts):
            raise AssertionError("runs expanded")

        monkeypatch.setattr(estimators, "dixmier_estimate", spy)
        monkeypatch.setattr(sequences, "_expand_runs", refuse)
        prods = []
        for a, b in pairs:
            seen.clear()
            dx.holder_check(a, b, 3.0)
            prods.append(seen[0])  # holder_check estimates xy first
        monkeypatch.undo()
        for (a, b), prod in zip(pairs, prods):
            L = min(a.length, b.length)
            assert prod.counts is not None
            np.testing.assert_array_equal(prod.values,
                                          a.values[:L] * b.values[:L])

    def test_p_must_exceed_one(self):
        x = dx.harmonic_sequence(2048)
        with pytest.raises(ValueError):
            dx.holder_check(x, x, 1.0)


class TestMellin:
    def test_explicit_eigenvalues(self):
        rep = dx.mellin_check(dx.ExplicitEigenvalues((1.0, 2.0, 5.0)), 2.0)
        assert rep.passed
        assert rep.rel_error <= 1e-6
        assert 0.0 < rep.error_bound <= 1e-12 * abs(rep.integral)

    def test_squares_eigenvalues(self):
        rep = dx.mellin_check(dx.SquaresEigenvalues(), 1.5)
        assert rep.passed
        assert rep.rel_error <= 1e-6
        assert 0.0 < rep.error_bound <= 1e-12 * abs(rep.integral)
        assert rep.reference == pytest.approx(
            math.gamma(1.5) * oracles.mp_zeta(3.0), rel=1e-12
        )

    def test_torus_eigenvalues(self):
        rep = dx.mellin_check(dx.TorusEigenvalues(), 2.0)
        assert rep.passed
        assert rep.rel_error <= 1e-6
        assert 0.0 < rep.error_bound <= 1e-12 * abs(rep.integral)

    def test_refused_quadrature_is_undetermined(self):
        class NanPartition(dx.ExplicitEigenvalues):
            def partition(self, t):
                return np.full(np.shape(t), math.nan)

        rep = dx.mellin_check(NanPartition((1.0, 2.0)), 2.0)
        assert rep.passed is None
        assert math.isnan(rep.rel_error) and math.isnan(rep.error_bound)
        assert rep.reference == pytest.approx(1.25)

    def test_theta_switch_is_continuous(self):
        from dixlab.estimators import _theta3

        below = float(_theta3(np.nextafter(1.0, 0.0)))
        above = float(_theta3(1.0))
        assert below == pytest.approx(above, rel=1e-13)


class TestTraceEstimateInvariants:
    def test_converged_requires_small_oscillation(self):
        with pytest.raises(ValueError):
            dx.TraceEstimate(
                "dixmier_alpha", 1.0, ((), ()), True, 0.5, "Converged"
            )

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            dx.TraceEstimate(
                "dixmier_alpha", 1.0, ((), ()), True, 0.0, "Maybe"
            )
