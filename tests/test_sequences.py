import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dixlab as dx
from dixlab import estimators, kernels, sequences
from dixlab.sequences import tail_sum, tail_power_sum, tail_heat_sum

import oracles


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestSingularSequence:
    def test_rejects_increasing_data(self):
        with pytest.raises(ValueError):
            dx.SingularSequence(np.array([1.0, 2.0]))

    def test_rejects_negative_data(self):
        with pytest.raises(ValueError):
            dx.SingularSequence(np.array([1.0, -0.5]))

    @pytest.mark.parametrize("values", [
        [1.0, math.nan, 0.5], [2.0, 1.0, -math.inf], [math.inf, 1.0],
    ])
    def test_non_finite_values_named_as_such(self, values):
        with pytest.raises(ValueError, match="values must be finite"):
            dx.as_sequence(values)

    @pytest.mark.parametrize("build,match", [
        (lambda: dx.SingularSequence(np.empty(0), dx.PowerLogTail(1.0, 1.0)),
         "nonempty head"),
        (lambda: dx.harmonic_sequence(64).scaled(0.0), "must be positive"),
        (lambda: dx.decreasing_rearrangement(np.ones((2, 2))),
         "one-dimensional"),
        (lambda: dx.PowerLogTail(1.0, 1.0, 0.0, -1), "offset"),
        (lambda: dx.PowerLogTail(1.0, 1.0, 1.0).value(1), "n >= 2"),
        (lambda: tail_sum(dx.PowerLogTail(1.0, 1.0), 1), "n >= 2"),
        (lambda: dx.log_average(dx.harmonic_sequence(64), []), "nonempty"),
        (lambda: dx.log_average(dx.harmonic_sequence(64), [4, 4]),
         "strictly increasing"),
        (lambda: dx.norm_1_inf(np.empty(0)), "no norm"),
    ])
    def test_rejects_bad_input(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("build,match", [
        # 2^-1070 / 32 rounds to 0: the refusal names the input, not the
        # junction between the head and its tail
        (lambda: dx.harmonic_sequence(4096, coeff=2.0**-1070),
         "harmonic value mu_32 with coeff 7.90505e-323 underflows the "
         "float64 range"),
        (lambda: dx.power_log_sequence(1.0, 300.0, 0.0, 10**4),
         "power-log value mu_11 with coeff 1 underflows the float64 range"),
    ])
    def test_model_values_below_the_float_range_name_the_coeff(self, build,
                                                                match):
        with pytest.raises(ValueError, match=match):
            build()
        # 2^-1060 / 4096 is subnormal, not 0
        assert dx.harmonic_sequence(4096, coeff=2.0**-1060).length == 4096

    @pytest.mark.parametrize("budget,match", [
        ("abc", "DIXLAB_BUDGET_MB must be a number"),
        ("0", "DIXLAB_BUDGET_MB must be positive"),
    ])
    def test_rejects_a_bad_budget(self, monkeypatch, budget, match):
        monkeypatch.setenv("DIXLAB_BUDGET_MB", budget)
        with pytest.raises(ValueError, match=match):
            dx.harmonic_sequence(64)

    def test_sequence_builders_charge_the_budget(self, monkeypatch):
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "1")
        with pytest.raises(dx.BudgetError, match="harmonic sequence"):
            dx.harmonic_sequence(10**5)
        with pytest.raises(dx.BudgetError, match="oscillator sequence"):
            dx.oscillator_model(10**5)
        with pytest.raises(dx.BudgetError, match="power-log sequence"):
            dx.power_log_sequence(1.0, 1.0, 0.0, 10**5)
        assert dx.harmonic_sequence(10**4).length == 10**4

    @pytest.mark.parametrize("need,budget,text", [
        # both read "0 MB"
        (0.125, 0.001, "needs about 0.125 MB but the budget is 0.001 MB"),
        (2288818.4, 2048.0, "needs about 2288818 MB but the budget is "
                            "2048 MB"),
    ])
    def test_budget_message_gives_both_sizes(self, need, budget, text):
        assert text in str(dx.BudgetError("x", need, budget))

    def test_scan_horizon(self):
        head = 1.0 / np.arange(1.0, 101.0)
        assert dx.SingularSequence(head).horizon == 100
        x = dx.SingularSequence(head, dx.PowerLogTail(1.0, 1.0), horizon=1e4)
        assert x.horizon == 10**4 and x.scaled(2.0).horizon == 10**4
        assert dx.tauberian_classify(x).diagnostics["checkpoints"][-1] == \
            2**13
        for tail, horizon in ((None, 101), (x.tail, -5), (x.tail, 0),
                              (x.tail, 100.5), (x.tail, 100.7),
                              (x.tail, 2**63), (x.tail, math.inf),
                              (x.tail, math.nan), (None, math.nan)):
            with pytest.raises(ValueError, match="horizon must be"):
                dx.SingularSequence(head, tail, horizon=horizon)

    def test_horizon_below_the_length_caps_the_scans(self):
        # with or without a tail; the gate drops from MIN_HORIZON to 64
        x = dx.harmonic_sequence(4096)
        for tail in (x.tail, None):
            capped = dx.SingularSequence(x.head, tail, horizon=64)
            assert capped.horizon == 64 and capped.length == 4096
            assert dx.riesz_seminorm_proxy(capped) == float(np.max(
                dx.log_average(x, [8, 16, 32, 64])))
            assert dx.riesz_seminorm_proxy(capped) > dx.riesz_seminorm_proxy(x)
            v = dx.tauberian_classify(capped)
            assert v.status == "Tauberian"
            assert v.diagnostics["checkpoints"][-1] == 64
        note = dx.tauberian_classify(replace(x, horizon=63)).diagnostics
        assert note["note"] == "horizon 63 below policy minimum 64"
        note = dx.tauberian_classify(dx.harmonic_sequence(1000)).diagnostics
        assert note["note"] == "horizon 1000 below policy minimum 1024"

    @pytest.mark.parametrize("build", [
        lambda: dx.harmonic_sequence(2.5),
        lambda: dx.oscillator_model(10**4 + 0.5),
        lambda: dx.power_log_sequence(1.0, 1.0, 0.0, 100.5),
        lambda: dx.oscillator_model(math.nan),
        lambda: dx.harmonic_sequence("abc"),
    ])
    def test_builders_refuse_a_non_integral_horizon(self, build):
        # harmonic_sequence(2.5) built 2 values and oscillator_model(10^4
        # + 0.5) scanned to 10^4
        with pytest.raises(ValueError, match="horizon must be an integer"):
            build()

    def test_tail_junction_guard(self):
        # the tail model at the head's last index must match mu_L
        good = dx.PowerLogTail(1.0, 1.0, 0.0)
        dx.SingularSequence(1.0 / np.arange(1.0, 100.0), good)
        bad = dx.PowerLogTail(50.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            dx.SingularSequence(1.0 / np.arange(1.0, 100.0), bad)

    def test_tail_off_by_two_at_junction_raises(self):
        head = 1.0 / np.arange(1.0, 100.0)
        for coeff in (2.0, 0.5):
            with pytest.raises(ValueError, match="junction"):
                dx.SingularSequence(head, dx.PowerLogTail(coeff, 1.0, 0.0))

    def test_torus_tail_continues_its_whole_lattice_ball_only(self):
        # inside |m| <= cutoff_radius the values are the lattice shells,
        # not the Weyl formula: a head cut 400 shells short, with the
        # same Weyl tail, read power_trace 78.566126 at s = 1.04 against
        # 78.566123
        x = dx.torus_spectrum(2, 200)
        for counts in (x.counts[:-400], x.counts[:-1],
                       np.append(x.counts[:-1], x.counts[-1] - 1)):
            with pytest.raises(ValueError, match="junction"):
                dx.SingularSequence(x.head[:counts.size], x.tail, counts)
        whole = dx.SingularSequence(np.repeat(x.head, x.counts), x.tail)
        assert dx.power_trace(whole, 1.04) == pytest.approx(
            dx.power_trace(x, 1.04), rel=1e-12)
        assert x.scaled(2.0).tail.head_length == x.length

    def test_shipped_models_pass_the_junction_at_smallest_size(self):
        for n in (1, 2, 3):
            assert dx.torus_spectrum(n, 1).tail is not None
        assert dx.harmonic_sequence(1).tail is not None
        assert dx.power_log_sequence(1.0, 1.0, 1.0, 16).tail is not None

    def test_scaled(self):
        x = dx.harmonic_sequence(64)
        y = x.scaled(2.0)
        np.testing.assert_allclose(y.values, 2.0 * x.values, rtol=0)
        assert y.tail.coeff == pytest.approx(2.0 * x.tail.coeff)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rearrangement_idempotent_and_permutation_invariant(self, seed):
        r = _rng(seed)
        v = r.random(257)
        base = dx.decreasing_rearrangement(v).values
        again = dx.decreasing_rearrangement(base).values
        shuffled = dx.decreasing_rearrangement(v[r.permutation(257)]).values
        assert np.array_equal(base, again)
        assert np.array_equal(base, shuffled)


class TestRunLengthSequence:
    # head values with counts: each value repeated counts times

    def test_length_runs_and_expansion(self):
        x = dx.SingularSequence(np.array([3.0, 2.0, 2.0, 1.0]), None,
                                np.array([1, 2, 3, 4]))
        # equal neighbours merge into one run
        np.testing.assert_array_equal(x.head, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(x.counts, [1, 5, 4])
        assert x.length == 10
        np.testing.assert_array_equal(x.values, [3.0] + [2.0] * 5 + [1.0] * 4)
        np.testing.assert_array_equal(x.at([1, 2, 6, 7, 10]),
                                      [3.0, 2.0, 2.0, 1.0, 1.0])

    def test_plain_head_keeps_its_array(self):
        v = 1.0 / np.arange(1.0, 100.0)
        x = dx.SingularSequence(v)
        assert x.counts is None and x.values is x.head and x.length == 99
        assert x.at(99) == v[-1]

    @pytest.mark.parametrize("head,counts,match", [
        ([2.0, 1.0], [1], "counts must match"),
        ([2.0, 1.0], [1, 0], "counts must be >= 1"),
        ([1.0, 2.0], [1, 1], "nonincreasing"),
        ([1.0, math.nan], [1, 1], "finite"),
        ([[2.0, 1.0]], [1, 1], "one-dimensional"),
    ])
    def test_rejects_bad_runs(self, head, counts, match):
        with pytest.raises(ValueError, match=match):
            dx.SingularSequence(np.array(head), None, np.array(counts))

    def test_expansion_is_charged_and_not_cached(self, monkeypatch):
        x = dx.SingularSequence(np.array([1.0, 0.5]), None,
                                np.array([1, 10**6]))
        assert x.values is not x.values
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "1")
        with pytest.raises(dx.BudgetError, match="expanded spectrum"):
            x.values
        # nothing else expands
        assert x.length == 10**6 + 1
        assert x.head_sum() == 1.0 + 0.5 * 10**6
        assert dx.power_trace(x, 2.0) == 1.0 + 0.25 * 10**6
        assert dx.norm_1_inf(x) == pytest.approx(
            (1.0 + 0.5 * 10**6) / math.log(2.0 + 10**6), rel=1e-15)

    def test_tail_junction_reads_the_last_run_at_the_length(self):
        tail = dx.PowerLogTail(1.0, 1.0, 0.0)
        head = np.array([1.0, 0.01])
        x = dx.SingularSequence(head, tail, np.array([1, 99]))
        assert x.length == 100  # the tail gives 1/100 at index 100
        with pytest.raises(ValueError, match="index 10 "):
            dx.SingularSequence(head, tail, np.array([1, 9]))

    def test_sums_and_averages_match_the_expansion(self):
        r = _rng(11)
        head = np.unique(r.random(500) + 1e-3)[::-1].copy()
        counts = r.integers(1, 30, head.size)
        tail = dx.PowerLogTail(float(head[-1]) * int(counts.sum()), 1.0)
        x = dx.SingularSequence(head, tail, counts)
        y = dx.SingularSequence(x.values, tail)
        ks = 2 ** np.arange(1, 18, dtype=np.int64)
        np.testing.assert_allclose(dx.log_average(x, ks),
                                   dx.log_average(y, ks),
                                   rtol=1e-15, atol=0)
        assert x.head_sum() == pytest.approx(y.head_sum(), rel=1e-15)
        for s in (1.01, 2.0):
            assert dx.power_trace(x, s) == pytest.approx(dx.power_trace(y, s),
                                                         rel=1e-15)
        assert dx.heat_trace(x, 10.0) == pytest.approx(dx.heat_trace(y, 10.0),
                                                       rel=1e-15)
        assert dx.norm_1_inf(x) == pytest.approx(dx.norm_1_inf(y), rel=1e-15)
        assert dx.submajorizes(x, x)
        assert dx.submajorizes(x, y.scaled(0.999))
        assert not dx.submajorizes(x.scaled(0.999), y)

    def test_scaled_keeps_the_runs(self):
        x = dx.torus_spectrum(2, 30)
        y = x.scaled(3.0)
        np.testing.assert_array_equal(y.counts, x.counts)
        np.testing.assert_array_equal(y.head, 3.0 * x.head)
        assert y.tail.coeff == pytest.approx(3.0 * x.tail.coeff)


class TestTailCalculus:
    def test_tail_sum_matches_direct_sum(self):
        # both ends carry f'''/720: with f'/12 alone the sum is 1.8e-11 off
        tail = dx.PowerLogTail(1.0, 1.0, 0.0)
        got = tail_sum(tail, 100, 10_000)
        assert got == pytest.approx(oracles.mp_harmonic_sum(100, 10_000),
                                    rel=1e-14)

    @pytest.mark.parametrize("e", [62, 341, 342, 400, 1000, 1023])
    def test_tail_sum_to_an_upper_index_below_2_1024(self, e):
        # n^3 of an integer n >= 2^342 is past the float range; the
        # Euler-Maclaurin terms divide by n one factor at a time
        lo = 2**16 + 1
        got = tail_sum(dx.PowerLogTail(1.0, 1.0), lo, 2**e)
        with mpmath.workdps(40):
            want = oracles.mp_harmonic_sum(lo, 2**e)
        assert got == pytest.approx(want, rel=2.5e-16)

    def test_tail_power_sum_matches_mpmath(self):
        tail = dx.PowerLogTail(1.0, 1.0, 0.0)
        s = 1.02
        want = oracles.mp_zeta(s) - math.fsum(
            n ** (-s) for n in range(1, 100)
        )
        assert tail_power_sum(tail, s, 100) == pytest.approx(want, rel=1e-9)

    def test_tail_power_sum_past_the_float_range(self):
        # 1e300**1.04 overflows, the sum does not; it is linear in coeff.
        # The scale exponent s log2(coeff) ~ 1037 holds about 2e-13 of
        # roundoff, which 2^x turns into the same relative error
        big = tail_power_sum(dx.PowerLogTail(1e300, 50.0), 1.04, 100)
        small = tail_power_sum(dx.PowerLogTail(1e100, 50.0), 1.04, 100)
        assert big == pytest.approx(small * 10.0 ** 208, rel=1e-12)
        huge = dx.PowerLogTail(1e300, 1.0)
        assert tail_power_sum(huge, 1.5, 2) == math.inf

    def test_tail_power_sum_when_the_power_underflows(self):
        # 1e-300**1.2 underflows to 0, which no tail may carry; the sum,
        # about 2e-360, is below the float range
        assert tail_power_sum(dx.PowerLogTail(1e-300, 1.0), 1.2, 100) == 0.0

    def test_tail_power_sum_when_the_power_is_subnormal(self):
        # (2^-530)^2 = 2^-1060 is subnormal, so each term of a sum taken
        # at that scale keeps at most 14 of 53 bits (4.45e-322); taken at
        # scale 1 and scaled once, the sum rounds once
        got = tail_power_sum(dx.PowerLogTail(2.0**-530, 1.5), 2.0, 10)
        want = math.ldexp(tail_power_sum(dx.PowerLogTail(1.0, 1.5), 2.0, 10),
                          -1060)
        assert got == want == pytest.approx(4.50e-322, abs=1e-324)

    def test_tail_heat_sum_matches_brute(self):
        tail = dx.PowerLogTail(1.0, 1.0, 0.0)
        t, alpha = 500.0, 1.0
        want = math.fsum(
            math.exp(-((t / n) ** (-alpha))) for n in range(50, 200_000)
        )
        got = tail_heat_sum(tail, t, alpha, 50)
        assert got == pytest.approx(want, rel=1e-6)

    def test_tail_heat_sum_in_logs_past_the_float_range(self):
        # Gamma(1/beta) = Gamma(200) and q^(-1/beta) leave the float
        # range, their product with Q(200, z0) does not
        tail = dx.PowerLogTail(1.0, 0.005)
        for t in (3.4e-3, 1e-2):
            want = oracles.mp_tail_heat_sum(1.0, 0.005, t, 1.0, 65)
            assert tail_heat_sum(tail, t, 1.0, 65) == pytest.approx(
                want, rel=1e-7)
        tiny = dx.PowerLogTail(1e-300, 0.001)
        assert tail_heat_sum(tiny, 100.0, 1.0, 65) == 0.0
        # some 100^200 terms near 1: past the float range, also with a
        # log factor (the quadrature)
        assert tail_heat_sum(tail, 100.0, 1.0, 101) == math.inf
        assert tail_heat_sum(dx.PowerLogTail(1.0, 0.005, 1.0), 100.0, 1.0,
                             101) == math.inf

    def test_tiny_heat_tail_to_the_quadrature_accuracy(self):
        # a tail near 1e-25 whose closed form overflows: the quadrature
        # holds it relative to its own size, not to an absolute 1.5e-8
        # (which left it 3.1e-8 off)
        got = tail_heat_sum(dx.PowerLogTail(1.0, 0.005), 0.01, 1.0, 65)
        want = oracles.mp_tail_heat_sum(1.0, 0.005, 0.01, 1.0, 65)
        assert got == pytest.approx(want, rel=1e-12)

    def test_heat_past_the_float_range_raises(self):
        m = dx.power_log_sequence(1.0, 0.005, 0.0, 100)
        for smoothing in ("raw", "cesaro"):
            with pytest.raises(ValueError, match="heat evaluation divergent "
                               "or past the float64 range at t=100"):
                dx.heat_estimate(m, smoothing=smoothing)

    @pytest.mark.parametrize("tail", [None, dx.PowerLogTail(2.0, 1.0)])
    def test_power_trace_refuses_an_infinite_head_sum(self, tail):
        # 1e300**2 overflows in the head, whose sum was returned as inf
        # while an infinite tail sum raised
        x = dx.SingularSequence([1e300, 1.0], tail)
        with pytest.raises(ValueError, match="zeta evaluation divergent "
                           "or past the float64 range at s=2"):
            dx.power_trace(x, 2.0)

    def test_heat_sum_continuation_matches_brute_force(self):
        # sum over n >= 1 of exp(-n/10) is 1/(e^0.1 - 1); a tail closure
        # without the -f'/12 Euler-Maclaurin term is off by 1.5e-3
        got = 10.0 * dx.heat_trace(dx.harmonic_sequence(16), 10.0)
        assert got == pytest.approx(1.0 / math.expm1(0.1), abs=1e-6)

    def test_heat_tail_carries_the_third_derivative_term(self):
        # without f'\''(65)/720 the 64-term head's trace is 2.2e-10 high
        got = 10.0 * dx.heat_trace(dx.harmonic_sequence(64), 10.0)
        assert got == pytest.approx(1.0 / math.expm1(0.1), rel=1e-12)

    @pytest.mark.parametrize("c,a,b,t", [
        (1.0, 1.0, 1.0, 10.0),
        (1.0, 1.0, -1.0, 10.0),
        (2.0, 1.5, 0.5, 50.0),
    ])
    def test_power_log_heat_continuation_matches_brute_force(self, c, a, b,
                                                              t):
        # the quadrature branch of the heat tail closure (log_power != 0)
        x = dx.power_log_sequence(c, a, b, 16)
        want = math.fsum(
            math.exp(-1.0 / (t * c * math.log(n) ** b * n ** (-a)))
            for n in range(2, 200_000)
        )
        assert t * dx.heat_trace(x, t) == pytest.approx(want, abs=1e-6)

    def test_power_log_continuation_matches_brute_force(self):
        # the head holds n = 2..16, so alpha_20 sums 1/n over n = 2..21
        x = dx.power_log_sequence(1.0, 1.0, 0.0, 16)
        want = math.fsum(1.0 / n for n in range(2, 22)) / math.log(21.0)
        # without f'''/720 at both ends alpha_20 is 1.9e-8 off
        got = dx.log_average(x, np.array([20]))[0]
        assert got == pytest.approx(want, abs=1e-10)
        # without f'''(17)/720 the tail is 2.3e-8 high (3.6e-8 relative)
        assert dx.power_trace(x, 2.0) == pytest.approx(
            oracles.mp_zeta(2.0) - 1.0, abs=1e-10
        )

    def test_power_sum_carries_the_third_derivative_term(self):
        # without f'''(65)/720 each sum is 6.3e-11 to 6.9e-11 relative off
        x = dx.power_log_sequence(1.0, 1.2, 0.0, 64)
        for k in dx.estimators.ZETA_SCHEDULE:
            s = 1.0 + 1.0 / k
            assert dx.power_trace(x, s) == pytest.approx(
                oracles.mp_zeta(1.2 * s) - 1.0, rel=1e-13)

    @given(
        st.floats(0.5, 3.0),
        st.floats(0.6, 2.0),
        st.floats(-1.0, 1.0),
        st.integers(16, 64),
        st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_log_continuation_property(self, c, a, b, H, extra):
        # head plus tail closure against the brute-force sum over
        # n = 2..k+1, within the Euler-Maclaurin error
        x = dx.power_log_sequence(c, a, b, H)
        k = x.length + extra
        want = math.fsum(
            c * math.log(n) ** b * n ** (-a) for n in range(2, k + 2)
        ) / math.log(1.0 + k)
        got = dx.log_average(x, np.array([k]))[0]
        assert got == pytest.approx(want, rel=1e-6)

    def test_log_tail_against_quadrature(self):
        from scipy import integrate

        tail = dx.PowerLogTail(1.0, 1.2, 1.5)
        want, _ = integrate.quad(
            lambda x: x ** (-1.2) * math.log(x) ** 1.5, 64, np.inf
        )
        got = tail_sum(tail, 64)
        # EM correction shifts the integral by ~g(64)/2; compare loosely
        assert got == pytest.approx(want, rel=2e-2)


class TestTailQuadrature:
    @pytest.mark.parametrize("a,b,x0,x1", [
        (1.5, -2.0, 65, None),  # the e^-y map of [x0, inf)
        (0.5, 1.0, 65, 1e6),  # a growing integrand, mapped from x1 down
    ])
    def test_tail_integral_with_a_log_factor(self, a, b, x0, x1):
        got = dx.PowerLogTail(1.0, a, b).integral(x0, x1)
        want = oracles.mp_tail_integral(1.0, a, b, x0, x1)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [2**17, 2**18, 2**19])
    @pytest.mark.parametrize("b", [0.0, -1.0, 0.5])
    def test_integral_at_power_one_is_within_roundoff(self, b, k):
        # the tail past the 2^16-value harmonic head: as differences of
        # rounded logs near 12, log(k) - log(65537) is 3.3e-16 to 5.0e-16
        # off at these k, and log log k - log log 65537 2.9e-15 relative
        got = dx.PowerLogTail(1.0, 1.0, b).integral(65537, k)
        with mpmath.workdps(40):
            u0, u1 = mpmath.log(65537), mpmath.log(k)
            want = mpmath.log(u1 / u0) if b == -1.0 else \
                (u1 ** (b + 1) - u0 ** (b + 1)) / (b + 1)
            err = abs(got - want)
        assert err <= (1.5e-16 if b == 0.0 else 4e-16 * want)

    @pytest.mark.parametrize("integrate,want", [
        (lambda: sequences.tail_quad(lambda x: x**5, [0.0, 1.0, 2.0]),
         32.0 / 3.0),
        # the e^-y map: e^-y over [0, inf) is 8 (1 - w)^7 in w
        (lambda: sequences._exp_tail(lambda y: np.exp(-y)), 1.0),
    ], ids=["plain", "exp_map"])
    def test_polynomial_is_exact_within_its_bound(self, integrate, want,
                                                  monkeypatch):
        # the bound checked is the one tail_quad computes on the way
        runs, quad = [], sequences.tail_quad

        def recorded(f, edges):
            runs.append(quad(f, edges))
            return runs[-1]

        monkeypatch.setattr(sequences, "tail_quad", recorded)
        integrate()
        (got, bound), = runs
        assert abs(got - want) <= bound <= 1e-12 * got

    def test_unresolved_integrand_raises(self):
        # 1/sqrt(x) at 0: bisection gains only a factor sqrt(2) per level
        with pytest.raises(ValueError, match="error bound"):
            sequences.tail_quad(lambda x: 1.0 / np.sqrt(x), [0.0, 1.0])
        with pytest.raises(ValueError, match="not finite"):
            sequences.tail_quad(lambda x: np.sqrt(x - 0.5), [0.0, 1.0])


class TestOscillatorTail:
    """The oscillator tail against the 40-digit oracle that sums from
    the first index past the head (oracles.mp_osc_tail)."""

    TAIL = sequences.OscillatorTail()

    @pytest.mark.parametrize("lo,hi", [(101, 202), (65537, 10**7),
                                       (65537, 2**40)])
    def test_closed_form_sum(self, lo, hi):
        # s = 1: the integral is c F(u), F(u) = 2u + u (sin - cos)(log u)/2
        want = float(oracles.mp_osc_tail(lo, hi))
        assert tail_sum(self.TAIL, lo, hi) == pytest.approx(
            want, rel=sequences.TAIL_RTOL)

    @pytest.mark.parametrize("k", estimators.ZETA_SCHEDULE)
    @pytest.mark.parametrize("lo", [101, 65537])
    def test_zeta_tail_on_the_schedule(self, k, lo):
        s = 1.0 + 1.0 / k
        want = float(oracles.mp_osc_tail(lo, s=s))
        assert tail_power_sum(self.TAIL, s, lo) == pytest.approx(
            want, rel=sequences.TAIL_RTOL)

    @pytest.mark.parametrize("t", estimators.HEAT_SCHEDULE)
    @pytest.mark.parametrize("lo", [101, 65537])
    def test_heat_tail_on_the_schedule(self, t, lo):
        want = float(oracles.mp_osc_tail(lo, t=t))
        assert tail_heat_sum(self.TAIL, t, 1.0, lo) == pytest.approx(
            want, rel=sequences.TAIL_RTOL)

    def test_powered_sum_between_two_ends(self):
        tail = self.TAIL.powered(2.0)
        want = float(oracles.mp_osc_tail(101, 1000, s=2))
        assert tail_sum(tail, 101, 1000) == pytest.approx(
            want, rel=sequences.TAIL_RTOL)
        assert tail_power_sum(self.TAIL, 1.0, 101) == math.inf
        assert tail_power_sum(self.TAIL, 0.5, 101) == math.inf

    @pytest.mark.parametrize("s", [1.0, 1.5, -1.0])
    @pytest.mark.parametrize("n", [5.0, 101.0, 65537.0])
    def test_slopes_against_mpmath_derivatives(self, s, n):
        # n^k h^(k)/h of h = value**s; s = -1 is the heat tail's
        with mpmath.workdps(40):
            def h(x):
                return oracles.mp_osc_mu(x) ** s

            want = [float(n**k * mpmath.diff(h, n, k) / h(n))
                    for k in (1, 2, 3)]
        got = self.TAIL.slopes(math.log(n), s)
        assert got == pytest.approx(want, rel=1e-12)


def _full_build(x):
    """x with every value to its horizon stored: the tail formula at
    each index, sorted nonincreasingly."""
    n = np.arange(1, x.horizon + 1, dtype=np.float64) + x.tail.offset
    v = np.sort(np.asarray(x.tail.value(n)))[::-1].copy()
    return dx.SingularSequence(v, x.tail)


class TestHeadRule:
    # model sequences store at most 2^16 values and read the rest from
    # their exact tail, scanned to their horizon
    H = 2**20

    @pytest.mark.parametrize("build", [
        lambda H: dx.harmonic_sequence(H),
        *(lambda H, b=b: dx.power_log_sequence(1.0, 1.0, b, H + 1)
          for b in (-1.0, 0.0, 1.0, 3.0)),
    ], ids=["harmonic", "pl-b-1", "pl-b0", "pl-b1", "pl-b3"])
    def test_cut_reads_as_the_full_build(self, build):
        x = build(self.H)
        full = _full_build(x)
        assert (x.length, x.horizon, full.length) == (2**16, self.H, self.H)
        np.testing.assert_array_equal(x.head, full.head[:2**16])
        for name, method in estimators.METHODS.items():
            got, want = (method(s, estimators.ZETA_SCHEDULE,
                                estimators.HEAT_SCHEDULE) for s in (x, full))
            assert got.status == want.status, name
            if math.isnan(want.value):
                assert math.isnan(got.value), name
                continue
            tol = 1e-10 * abs(want.value)
            if want.error_estimate < tol:
                tol = want.error_estimate
            assert abs(got.value - want.value) <= tol, name

    def test_a_sorted_head_is_cut_only_where_the_cut_is_exact(self):
        # at log_power 4 the smallest of the first 2^16 values, mu at
        # n = 2, sits below the tail's next value, so the full sort
        # interleaves them: every value is stored
        x = dx.power_log_sequence(1.0, 1.0, 4.0, 2**18)
        assert float(x.tail.value(2)) < float(x.tail.value(2**16 + 2))
        assert x.head.size == x.length == x.horizon == 2**18 - 1
        cut = dx.power_log_sequence(1.0, 1.0, 3.0, 2**18)
        assert (cut.length, cut.horizon) == (2**16, 2**18 - 1)
        np.testing.assert_array_equal(cut.head,
                                      _full_build(cut).head[:2**16])

    def test_a_huge_horizon_stores_one_head(self):
        t0 = time.perf_counter()
        x = dx.harmonic_sequence(10**15)
        assert time.perf_counter() - t0 < 1.0
        assert (x.head.size, x.horizon) == (2**16, 10**15)
        e = dx.dixmier_estimate(x)
        assert e.status == "Converged"
        assert e.value == pytest.approx(1.0, abs=1e-9)

    def test_kinds_at_their_default_horizons(self):
        for x in (dx.harmonic_sequence(), dx.oscillator_model(),
                  dx.power_log_sequence(1.0, 1.0, 0.0)):
            assert x.length <= 2**16 < x.horizon


class TestLogAverage:
    def test_frozen_harmonic_alpha_100(self):
        h = dx.harmonic_sequence(1024)
        got = dx.log_average(h, np.array([100]))[0]
        assert got == pytest.approx(
            oracles.FROZEN["harmonic_alpha_100"], abs=1e-14
        )
        assert got == pytest.approx(oracles.brute_alpha(h.values, 100),
                                    rel=1e-13)

    def test_harmonic_norm_attained_at_first_entry(self):
        h = dx.harmonic_sequence(4096)
        assert dx.norm_1_inf(h) == pytest.approx(
            oracles.FROZEN["harmonic_norm"], abs=1e-14
        )
        assert dx.norm_1_inf(h) == pytest.approx(1.0 / math.log(2.0),
                                                 abs=1e-15)

    def test_beyond_head_requires_tail(self):
        x = dx.SingularSequence(1.0 / np.arange(1.0, 65.0))
        with pytest.raises(ValueError, match="tail"):
            dx.log_average(x, np.array([128]))

    def test_beyond_head_uses_tail(self):
        h = dx.harmonic_sequence(64)
        full = dx.harmonic_sequence(4096)
        got = dx.log_average(h, np.array([2048]))[0]
        want = dx.log_average(full, np.array([2048]))[0]
        assert got == pytest.approx(want, rel=1e-6)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_alpha_bounded_by_norm(self, seed):
        v = dx.decreasing_rearrangement(_rng(seed).random(512))
        ks = 2 ** np.arange(1, 10, dtype=np.int64)
        alphas = dx.log_average(v, ks)
        assert np.all(alphas <= dx.norm_1_inf(v) + 1e-12)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, seed, c):
        v = dx.decreasing_rearrangement(_rng(seed).random(256) + 1e-6)
        scaled = dx.SingularSequence(c * v.values)
        ks = 2 ** np.arange(1, 9, dtype=np.int64)
        a1 = dx.log_average(v, ks)
        a2 = dx.log_average(scaled, ks)
        np.testing.assert_allclose(a2, c * a1, rtol=1e-6)

    def test_norm_sees_tail_limit_beyond_head(self):
        # head alone peaks below the tail limsup; the norm must not
        x = dx.harmonic_sequence(128, coeff=1.0)
        grown = dx.SingularSequence(
            x.values, dx.PowerLogTail(1.0, 1.0, 0.0)
        )
        assert dx.norm_1_inf(grown) >= 1.0 - 1e-12

    def test_norm_refuses_a_log_average_past_the_float_range(self):
        # 1e308 / sqrt(k): alpha_5 passes the float64 range, and the norm
        # says so as log_average does, plain and on runs; a tail whose
        # log average diverges still has norm inf
        past = "log average lies past the float64 range"
        for x in (dx.SingularSequence(1e308 / np.sqrt(np.arange(1.0, 1025.0))),
                  dx.SingularSequence([1e308], counts=[2])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=past):
                    dx.log_average(x, [x.length])
                with pytest.raises(ValueError, match=past):
                    dx.norm_1_inf(x)
        assert dx.norm_1_inf(dx.power_log_sequence(1.0, 1.0, 0.5, 4096)) == (
            math.inf)


class TestSubmajorization:
    def test_exact_on_simple_pair(self):
        x = np.array([1.0, 0.5, 0.25])
        y = np.array([1.0, 0.5, 0.25 + 1e-15])
        assert dx.submajorizes(y, x)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_plain_pairs_match_the_integer_oracle(self, seed):
        r = _rng(seed)
        x = dx.decreasing_rearrangement(r.random(128))
        y = dx.decreasing_rearrangement(r.random(128))
        want = oracles.exact_dominates(x.values, y.values)
        assert dx.submajorizes(x, y) == want

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_damped_copy_always_submajorized(self, seed):
        r = _rng(seed)
        x = dx.decreasing_rearrangement(r.random(256) + 1e-9)
        damp = dx.SingularSequence(x.values * r.uniform(0.1, 1.0))
        assert dx.submajorizes(x, damp)

    def test_run_length_pairs_match_the_integer_oracle(self):
        # values whose sums round, so that prefix sums of the two inputs
        # tie or sit an ulp apart
        pool = np.array([2.0, 0.7, 1.0 / 3.0, 0.3, 1.0 / 7.0, 0.1, 1e-300,
                         0.0])
        r = _rng(11)
        for _ in range(200):
            head = np.sort(r.choice(pool, r.integers(1, pool.size + 1),
                                    replace=False))[::-1]
            x = dx.SingularSequence(head, None, r.integers(1, 6, head.size))
            v = x.values.copy()
            mode = r.integers(3)
            if mode == 1:  # one value an ulp up or down
                i = r.integers(v.size)
                v[i] = np.nextafter(v[i], 3.0 if r.random() < 0.5 else 0.0)
                v = np.sort(v)[::-1]
            elif mode == 2:
                v = v[: r.integers(v.size + 1)]
            if r.random() < 0.5:
                y = dx.SingularSequence(v)
            else:  # runs of one, merged where values tie
                y = dx.SingularSequence(v, None, np.ones(v.size, np.int64))
            for a, b in ((x, y), (y, x)):
                want = oracles.exact_dominates(a.values, b.values)
                assert dx.submajorizes(a, b) == want

    def test_equal_run_length_pairs_in_both_directions(self):
        r = _rng(5)
        head = np.unique(r.random(300) + 1e-3)[::-1].copy()
        x = dx.SingularSequence(head, None, r.integers(1, 40, head.size))
        # the same sequence plain, and split into other runs
        for y in (dx.SingularSequence(x.values),
                  dx.SingularSequence(x.values, None,
                                      np.ones(x.length, dtype=np.int64))):
            assert dx.submajorizes(x, y)
            assert dx.submajorizes(y, x)
        lattice = dx.torus_spectrum(2, 200)
        expanded = dx.SingularSequence(lattice.values)
        assert dx.submajorizes(lattice, expanded)
        assert dx.submajorizes(expanded, lattice)

    def test_charges_its_footprint_before_the_kernel(self, monkeypatch):
        x = dx.SingularSequence(1 / np.arange(1, 10**6 + 1))
        y = x.scaled(0.5)
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "100")
        with pytest.raises(dx.BudgetError, match="submajorization"):
            dx.submajorizes(x, y)

    def test_charge_admits_a_pair_that_fits(self, monkeypatch):
        # a fixed 256 B per run charged this pair 488 MB
        h = dx.SingularSequence(1 / np.arange(1, 10**6 + 1))
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "300")
        assert dx.submajorizes(h, h.scaled(0.5))

    @pytest.mark.parametrize("name", ["harmonic", "oscillator", "lattice",
                                      "wide"])
    def test_charge_covers_what_the_kernel_holds(self, monkeypatch, name):
        n = 70_000  # past one chunk of the prefix-sum stream
        x = {
            "harmonic": lambda: dx.SingularSequence(1 / np.arange(1, n + 1)),
            "oscillator": lambda: dx.SingularSequence(oracles.osc_values(n)),
            "lattice": lambda: dx.torus_spectrum(3, 60),
            # about 1000 binary orders: wide exact integer sums
            "wide": lambda: dx.SingularSequence(
                2.0 ** -np.linspace(0.0, 1000.0, n)),
        }[name]()
        charged = []
        monkeypatch.setattr(sequences, "_check_budget",
                            lambda what, need: charged.append(need))
        # self pairs take the exact pass at every end, scaled ones never
        for y in (x, x.scaled(0.5)):
            assert dx.submajorizes(x, y)
            tracemalloc.start()
            try:
                kernels.prefix_dominates(x.head, y.head, x.counts, y.counts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert charged.pop() >= peak

    def test_values_near_the_top_of_the_float_range(self):
        # every float64 sum of two such values overflows; the pairs are
        # decided on exact sums, with no warning
        big = 1.7e308
        down = float(np.nextafter(big, 0.0))
        for x, y in (([big, big], [big, big]), ([big, big], [big, down]),
                     ([big, big, 1.0], [big, big, 2.0]), ([big], [big, 1.0])):
            runs = [dx.SingularSequence(v, None, np.ones(len(v), np.int64))
                    for v in (x, y)]
            for a, b in ((x, y), (y, x), runs, runs[::-1]):
                want = oracles.exact_dominates(dx.as_sequence(a).values,
                                               dx.as_sequence(b).values)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert dx.submajorizes(a, b) == want

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_scaled_pairs_decide_alike(self, k):
        # 30-bit values in [2^-21, 1) scale exactly by 2^k: random, tied
        # and dyadic-split pairs, plain and run-length, decide as at k = 0
        r = _rng(abs(k) + 1)
        for _ in range(30):
            m = int(r.integers(1, 30))
            head = np.unique(r.integers(2**29, 2**30, m) * 2.0**-30
                             * 2.0 ** -r.integers(0, 20, m))[::-1].copy()
            x = dx.SingularSequence(head, None, r.integers(1, 4, head.size))
            w = x.values
            i = int(r.integers(w.size))
            for y in (dx.SingularSequence(np.sort(w * r.uniform(
                          0.5, 1.02, w.size))[::-1].copy()),
                      dx.SingularSequence(np.sort(np.append(
                          np.delete(w, i), [w[i] / 2] * 2))[::-1].copy()),
                      dx.SingularSequence(w), x):
                for a, b in ((x, y), (y, x)):
                    want = oracles.exact_dominates(a.values, b.values)
                    assert dx.submajorizes(a, b) == want
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        assert dx.submajorizes(a.scaled(2.0**k),
                                               b.scaled(2.0**k)) == want

    def test_subadditivity_of_rearranged_sums(self):
        r = _rng(7)
        x = r.random(512)
        y = r.random(512)
        z = dx.decreasing_rearrangement(x + y).values
        lhs = np.cumsum(z)
        rhs = (np.cumsum(dx.decreasing_rearrangement(x).values)
               + np.cumsum(dx.decreasing_rearrangement(y).values))
        assert np.all(lhs <= rhs + 1e-9)


class TestTildeMu:
    def test_exact_reconstruction_layout(self):
        t1 = np.array([3.0, 1.0])
        t2 = np.array([2.0])
        t3 = np.array([1.0, 1.0, 1.0])
        t4 = np.array([0.5, 0.5, 0.5])
        got = dx.tilde_mu(t1, t2, t3, t4)
        want = np.array([3 - 2 + 0.5j, 1 + 0.5j, 0.5j])
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_runs_read_as_their_values(self):
        x = dx.torus_spectrum(2, 30)
        y = dx.torus_spectrum(3, 8)
        got = dx.tilde_mu(x, y, y, x)
        want = dx.tilde_mu(*(s.values for s in (x, y, y, x)))
        np.testing.assert_array_equal(got, want)

    def test_charges_its_footprint_before_allocating(self, monkeypatch):
        x = dx.torus_spectrum(2, 400)  # 502,625 values on runs
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "10")
        with pytest.raises(dx.BudgetError):
            dx.tilde_mu(x, x, x, x)


class TestZ1AndRiesz:
    def test_harmonic_z1_frozen(self):
        h = dx.harmonic_sequence(10**6)
        assert dx.zeta_norm_z1(h) == pytest.approx(
            oracles.FROZEN["harmonic_z1"], abs=1e-6
        )

    def test_z1_matches_the_euler_maclaurin_zeta(self):
        h = dx.harmonic_sequence(10**4)
        ks = 2 ** np.arange(3, 15, dtype=np.int64)
        via_tail = dx.zeta_norm_z1(h, k_schedule=ks)
        want = max(oracles.harm_zeta_em(1.0 + 1.0 / k, 10**4)
                   ** (k / (k + 1.0)) / k for k in map(float, ks))
        assert want == pytest.approx(via_tail, rel=1e-7)

    def test_z1_scales_with_the_input(self):
        # at coeff 2^1000 the power sums passed the float64 range and z1
        # read inf; each scale now reads 2^k times the coeff-1 value
        want = dx.zeta_norm_z1(dx.harmonic_sequence(4096))
        for k in (-1000, -500, 500, 1000, 1023):
            h = dx.harmonic_sequence(4096, coeff=2.0**k)
            assert dx.zeta_norm_z1(h) == pytest.approx(math.ldexp(want, k),
                                                       rel=1e-12)
        osc = dx.oscillator_model(10**4)
        ks = 2 ** np.arange(3, 12, dtype=np.int64)
        want = dx.zeta_norm_z1(osc, k_schedule=ks)
        for k in (-1000, 1000):
            assert dx.zeta_norm_z1(osc.scaled(2.0**k), k_schedule=ks) == (
                pytest.approx(math.ldexp(want, k), rel=1e-12))

    def test_z1_rescales_only_traces_past_the_range(self, monkeypatch):
        # leads outside [1, 2) whose traces stay in range read the limsup
        # of their own traces, bit for bit, with no rescaled copy
        copies = []
        scaled = dx.SingularSequence.scaled
        monkeypatch.setattr(dx.SingularSequence, "scaled",
                            lambda x, c: copies.append(c) or scaled(x, c))
        ks = 2 ** np.arange(3, 12, dtype=np.int64)
        osc = dx.oscillator_model(10**4)
        for x in (dx.harmonic_sequence(4096, coeff=0.5),
                  dx.harmonic_sequence(4096, coeff=3.0),
                  dx.harmonic_sequence(4096, coeff=2.0**500),
                  dx.harmonic_sequence(4096, coeff=2.0**-1000),
                  osc.scaled(2.0**-500)):
            copies.clear()
            own = max(dx.power_trace(x, 1.0 + 1.0 / k) ** (k / (k + 1.0)) / k
                      for k in map(float, ks))
            assert dx.zeta_norm_z1(x, k_schedule=ks) == own
            assert copies == []
        dx.zeta_norm_z1(dx.harmonic_sequence(4096, coeff=2.0**1000),
                        k_schedule=ks)
        assert copies == [2.0**-1000]

    def test_riesz_proxy_on_harmonic(self):
        h = dx.harmonic_sequence(2**16)
        r = dx.riesz_seminorm_proxy(h)
        # trailing dyadic window of alpha_k for 1/n stays near 1
        assert 1.0 <= r <= 1.2

    def test_z1_schedule_is_the_zeta_schedule(self):
        # k was cast to int64: [1.5, 2.5] ran as [1, 2], [2, 2.5] read
        # "strictly increasing", NaN and 1e20 raised from the cast
        h = dx.harmonic_sequence(10**4)
        for ks in ([1.5, 2.5], [2, 2.5], 2 ** np.arange(3, 9)):
            want = max(dx.power_trace(h, 1.0 + 1.0 / k) ** (k / (k + 1.0)) / k
                       for k in map(float, ks))
            assert dx.zeta_norm_z1(h, k_schedule=ks) == want
        for ks in ([math.nan], [0.5, 2.0], [2.0, 2.0], [4.0, 2.0], []):
            with pytest.raises(ValueError, match="k schedule"):
                dx.zeta_norm_z1(h, k_schedule=ks)
        # s = 1 + 1e-20 rounds to 1, where the harmonic sum diverges: it
        # read inf, and is refused now
        with pytest.raises(ValueError, match="entry 0 .* at 1"):
            dx.zeta_norm_z1(h, k_schedule=[1e20])

    def test_zeta_schedule_stops_below_2_to_the_53(self):
        # from k = 2^53 on, s = 1 + 1/k is 1.0: the zeta estimate read a
        # divergent sum at s = 1 instead of refusing the schedule
        h = dx.harmonic_sequence(10**4)
        assert sequences._zeta_schedule([2.0**53 - 1]).size == 1
        for ks, entry in (([2.0**53], 0), ([1e15, 1e16, 1e17], 1)):
            with pytest.raises(ValueError,
                               match=r"k schedule entry %d .* k < 2\^53"
                               % entry):
                sequences._zeta_schedule(ks)
            with pytest.raises(ValueError, match="entry %d" % entry):
                dx.zeta_residue_estimate(h, ks)

    def test_riesz_needs_enough_data(self):
        with pytest.raises(ValueError):
            dx.riesz_seminorm_proxy(np.array([1.0, 0.5]))


def _positions(band):
    """(offset, position) of an exponent against its threshold: just
    beyond the band above (+1) or below (-1), or inside it (0) at the
    threshold and 1e-12 within each edge."""
    out = [(band + 1e-12, 1), (-band - 1e-12, -1), (0.0, 0)]
    if band:
        out += [(band - 1e-12, 0), (1e-12 - band, 0)]
    return out


class TestMembershipRule:
    """Verdicts of mu_n ~ C (log n)^b n^-a from its exponents: a against
    1 and 1/p decides, and where a sits on its threshold b does (b <= 0
    for weak-l_p, b < 1 for u_(1,inf), b = 1 unresolved in a band)."""

    PS = (0.5, 1.0, 2.0)  # thresholds 1/p = 2, 1, 1/2

    @pytest.mark.parametrize("band", [0.0, sequences._FIT_TOL])
    def test_table_at_each_threshold(self, band):
        cases = [(a_thr, pa, b_thr, pb, a_thr + da, b_thr + db)
                 for a_thr in (1.0 / p for p in self.PS)
                 for da, pa in _positions(band)
                 for b_thr in (0.0, 1.0)
                 for db, pb in _positions(band)]
        assert len(cases) == 3 * 2 * len(_positions(band)) ** 2
        for a_thr, pa, b_thr, pb, a, b in cases:
            def a_at(t):  # a's position against threshold t
                return pa if t == a_thr else (1 if a_thr > t else -1)

            def b_at(t):
                return pb if t == b_thr else (1 if b_thr > t else -1)

            def weak(t):
                return a_at(t) > 0 if a_at(t) else b_at(0.0) <= 0

            if a_at(1.0):
                u = a_at(1.0) > 0
            elif b_at(1.0):
                u = b_at(1.0) < 0
            else:
                u = None if band else False
            want = (weak(1.0), weak(1.0), u,
                    {p: weak(1.0 / p) for p in self.PS})
            assert sequences._membership(a, b, self.PS, band) == want, (a, b)

    def test_fitted_band_edges(self):
        t = sequences._FIT_TOL
        rule = sequences._membership
        assert rule(1.0, t - 1e-12, (), t)[:3] == (True, True, True)
        assert rule(1.0, t + 1e-12, (), t)[:3] == (False, False, True)
        assert rule(1.0, 1.0, (), t)[2] is None
        assert rule(1.0, 1.0 + t + 1e-12, (), t)[2] is False
        assert rule(1.0, 1.0, (), 0.0)[2] is False  # exact b = 1 is out

    @pytest.mark.parametrize("a, b, want", [
        (1.0 + 1e-12, 9.0, (0.0, 0.0)),
        (1.0 - 1e-12, -9.0, (math.inf, math.inf)),
        (1.0, -1e-12, (0.0, 0.0)),
        (1.0, 0.0, (3.0, 0.0)),
        (1.0, 1e-12, (math.inf, 0.0)),
        (1.0, 1.0 - 1e-12, (math.inf, 0.0)),
        (1.0, 1.0, (math.inf, 3.0)),
        (1.0, 1.0 + 1e-12, (math.inf, math.inf)),
    ])
    def test_tail_limsups(self, a, b, want):
        # limsup n mu = limsup C (log n)^b n^(1-a), and over log n; on a
        # power-log tail limsup alpha_k, the first entry, is limsup n mu
        assert sequences._tail_limsups(dx.PowerLogTail(3.0, a, b)) == (
            want[0],) + want

    def test_oscillator_limsups_keep_alpha_apart_from_n_mu(self):
        # alpha_k ~ 2 + (sin log U - cos log U)/2 with U = log k peaks at
        # 2 + sqrt(2)/2, while n mu = 2 + sin log log n peaks at 3
        got = sequences._tail_limsups(sequences.OscillatorTail(2.0))
        assert got[0] == pytest.approx(2.0 * (2.0 + math.sqrt(2.0) / 2.0),
                                       rel=1e-15)
        assert got[1:] == (6.0, 0.0)
        assert sequences._tail_limsups(sequences.OscillatorTail(2.0, 1.5)) == (
            0.0, 0.0, 0.0)


class TestIdealMembership:
    def test_harmonic_is_member_exactly(self):
        rep = dx.ideal_membership(dx.harmonic_sequence(4096), ps=(2.0,))
        assert rep.in_m1inf is True
        assert rep.in_weak_l1 is True
        assert rep.witness_weak_l1 == pytest.approx(1.0, rel=1e-12)
        assert rep.weak_lp[2.0] is True

    def test_supercritical_growth_is_excluded(self):
        x = dx.power_log_sequence(1.0, 0.5, 0.0, 4096)
        rep = dx.ideal_membership(x)
        assert rep.in_m1inf is False

    def test_log_boundary_case_excluded(self):
        # mu_n = log(n)/n diverges in alpha_k like log k
        x = dx.power_log_sequence(1.0, 1.0, 1.0, 4096)
        rep = dx.ideal_membership(x)
        assert rep.in_m1inf is False

    def test_short_head_without_tail_is_undecided(self):
        x = dx.SingularSequence(1.0 / np.arange(1.0, 33.0))
        rep = dx.ideal_membership(x)
        assert rep.in_m1inf is None

    def test_finite_support_is_member(self):
        x = dx.SingularSequence(np.array([2.0, 1.0, 0.0, 0.0]))
        rep = dx.ideal_membership(x)
        assert rep.in_m1inf is True

    def test_exact_summable_tail_is_inside_everything(self):
        tail = dx.PowerLogTail(3.0, 1.5, 2.0, offset=40)
        x = dx.SingularSequence(tail.value(np.arange(41.0, 141.0)),
                                tail=tail)
        rep = dx.ideal_membership(x, ps=(0.5, 1.0))
        assert (rep.in_m1inf, rep.in_weak_l1, rep.in_u1inf) == (
            True, True, True)
        assert (rep.witness_weak_l1, rep.witness_u1inf) == (0.0, 0.0)
        assert rep.weak_lp == {0.5: False, 1.0: True}
        assert rep.fitted_exponents == (1.5, 2.0)
        # alpha_k tends to the limit 0, so the norm is the finite peak
        # the tail reaches past the head, at k = 6025 between the dyadic
        # checkpoints 3200 and 6400 (they read 2.903312 at best)
        v = tail.value(np.arange(41.0, 41.0 + 2**16))
        alphas = np.cumsum(v) / np.log1p(np.arange(1, v.size + 1))
        assert int(np.argmax(alphas)) + 1 == 6025
        assert dx.norm_1_inf(x) == pytest.approx(float(np.max(alphas)),
                                                 rel=1e-12)

    @staticmethod
    def _fitted(a, b, ps=()):
        n = np.arange(16.0, 4112.0)
        rep = dx.ideal_membership(dx.SingularSequence(np.log(n) ** b
                                                      * n ** -a), ps=ps)
        assert rep.window == (1024, 4096)
        return rep

    def test_fitted_power_beyond_the_band_above(self):
        rep = self._fitted(1.2, 0.0)
        assert rep.fitted_exponents[0] > 1.0 + sequences._FIT_TOL
        assert (rep.in_m1inf, rep.in_weak_l1, rep.in_u1inf) == (
            True, True, True)
        n = np.arange(1024.0, 4097.0)
        mu = np.log(n + 15.0) ** 0.0 * (n + 15.0) ** -1.2
        assert rep.witness_weak_l1 <= float(np.max(n * mu))
        assert 0.0 < rep.witness_u1inf < rep.witness_weak_l1

    def test_fitted_power_beyond_the_band_below(self):
        rep = self._fitted(0.8, 0.0)
        assert rep.fitted_exponents[0] < 1.0 - sequences._FIT_TOL
        assert (rep.in_m1inf, rep.in_weak_l1, rep.in_u1inf) == (
            False, False, False)
        assert rep.witness_weak_l1 == rep.witness_u1inf == math.inf

    def test_fitted_log_power_beyond_the_band_at_the_critical_power(self):
        rep = self._fitted(1.0, 1.2)
        a_hat, b_hat = rep.fitted_exponents
        assert abs(a_hat - 1.0) <= sequences._FIT_TOL
        assert b_hat > 1.0 + sequences._FIT_TOL
        assert (rep.in_weak_l1, rep.in_u1inf) == (False, False)
        assert rep.witness_u1inf == math.inf

    def test_fitted_weak_lp_on_both_strict_sides(self):
        # p = 2: the power against 1/2, outside the band either way
        above, below = self._fitted(0.6, 0.0, (2.0,)), self._fitted(
            0.4, 0.0, (2.0,))
        assert above.fitted_exponents[0] > 0.5 + sequences._FIT_TOL
        assert below.fitted_exponents[0] < 0.5 - sequences._FIT_TOL
        assert (above.weak_lp, below.weak_lp) == ({2.0: True},
                                                  {2.0: False})


class TestTauberianClassification:
    def test_harmonic_converges_to_one(self):
        v = dx.tauberian_classify(dx.harmonic_sequence(10**6))
        assert v.status == "Tauberian"
        assert v.limit_estimate == pytest.approx(
            oracles.FROZEN["harmonic_limit_1e6"], abs=1e-4
        )
        assert v.limit_estimate == pytest.approx(1.0, abs=1e-3)
        assert v.oscillation_amplitude <= 1e-2

    def test_oscillator_is_non_tauberian(self, oscillator_1e7):
        v = dx.tauberian_classify(oscillator_1e7)
        assert v.status == "NonTauberian"
        assert v.oscillation_amplitude == pytest.approx(
            oracles.FROZEN["osc_band"], abs=5e-3
        )
        assert v.limit_estimate is None

    def test_short_horizon_undetermined(self):
        v = dx.tauberian_classify(dx.harmonic_sequence(512))
        assert v.status == "Undetermined"

    @pytest.mark.parametrize("horizon", [64, 100, 127])
    def test_a_capped_scan_judges_at_least_three_checkpoints(self, horizon):
        # the last third of 6 checkpoints is 2, whose line leaves no
        # residual: sorted random values read Tauberian at every cap
        # from 64 to 127
        v = np.sort(_rng(3).random(4096))[::-1].copy()
        x = dx.SingularSequence(v, horizon=horizon)
        assert dx.tauberian_classify(x).status == "NonTauberian"

    def test_zero_sequence_converges_to_zero(self):
        x = dx.SingularSequence(np.zeros(2048))
        v = dx.tauberian_classify(x)
        assert v.status == "Tauberian"
        assert v.limit_estimate == pytest.approx(0.0, abs=1e-12)

    def test_singularity_first_hundred_entries_do_not_matter(self):
        base = dx.harmonic_sequence(10**6)
        bumped = 1 / np.arange(1, 10**6 + 1)
        bumped[:100] = bumped[0] * 2.0
        v1 = dx.tauberian_classify(base)
        v2 = dx.tauberian_classify(dx.SingularSequence(bumped))
        assert v2.status == "Tauberian"
        assert abs(v2.limit_estimate - v1.limit_estimate) < 1e-3

    def test_scaling_scales_the_limit(self):
        base = dx.harmonic_sequence(10**6)
        for c in (0.5, 2.0, 10.0):
            v = dx.tauberian_classify(base.scaled(c))
            assert v.status == "Tauberian"
            want = c * dx.tauberian_classify(base).limit_estimate
            assert v.limit_estimate == pytest.approx(want, rel=1e-6)

    def test_oscillator_head_values(self):
        x = dx.oscillator_model(1024)
        want = oracles.osc_values(1024)
        np.testing.assert_allclose(x.values, np.sort(want)[::-1], rtol=1e-15)
