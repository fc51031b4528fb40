import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dixlab as dx
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


class TestTailCalculus:
    def test_tail_sum_matches_direct_sum(self):
        tail = dx.PowerLogTail(1.0, 1.0, 0.0)
        want = math.fsum(1.0 / n for n in range(100, 10_001))
        got = tail_sum(tail, 100, 10_000)
        assert got == pytest.approx(want, rel=1e-8)

    def test_tail_power_sum_matches_mpmath(self):
        tail = dx.PowerLogTail(1.0, 1.0, 0.0)
        s = 1.02
        want = oracles.mp_zeta(s) - math.fsum(
            n ** (-s) for n in range(1, 100)
        )
        assert tail_power_sum(tail, s, 100) == pytest.approx(want, rel=1e-9)

    def test_tail_heat_sum_matches_brute(self):
        tail = dx.PowerLogTail(1.0, 1.0, 0.0)
        t, alpha = 500.0, 1.0
        want = math.fsum(
            math.exp(-((t / n) ** (-alpha))) for n in range(50, 200_000)
        )
        got = tail_heat_sum(tail, t, alpha, 50)
        assert got == pytest.approx(want, rel=1e-6)

    def test_power_log_continuation_matches_brute_force(self):
        # the head holds n = 2..16, so alpha_20 sums 1/n over n = 2..21
        x = dx.power_log_sequence(1.0, 1.0, 0.0, 16)
        want = math.fsum(1.0 / n for n in range(2, 22)) / math.log(21.0)
        got = dx.log_average(x, np.array([20])).alphas[0]
        assert got == pytest.approx(want, abs=1e-7)
        # the first omitted Euler-Maclaurin term, f'''(17)/720, is 2.4e-8
        assert x.power_sum(2.0) == pytest.approx(
            oracles.mp_zeta(2.0) - 1.0, abs=5e-8
        )

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
        got = dx.log_average(x, np.array([k])).alphas[0]
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


class TestLogAverage:
    def test_frozen_harmonic_alpha_100(self):
        h = dx.harmonic_sequence(1024)
        got = dx.log_average(h, np.array([100])).alphas[0]
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
        got = dx.log_average(h, np.array([2048])).alphas[0]
        want = dx.log_average(full, np.array([2048])).alphas[0]
        assert got == pytest.approx(want, rel=1e-6)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_alpha_bounded_by_norm(self, seed):
        v = dx.decreasing_rearrangement(_rng(seed).random(512))
        ks = 2 ** np.arange(1, 10, dtype=np.int64)
        alphas = dx.log_average(v, ks).alphas
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
        a1 = dx.log_average(v, ks).alphas
        a2 = dx.log_average(scaled, ks).alphas
        np.testing.assert_allclose(a2, c * a1, rtol=1e-6)

    def test_norm_sees_tail_limit_beyond_head(self):
        # head alone peaks below the tail limsup; the norm must not
        x = dx.harmonic_sequence(128, coeff=1.0)
        grown = dx.SingularSequence(
            x.values, dx.PowerLogTail(1.0, 1.0, 0.0)
        )
        assert dx.norm_1_inf(grown) >= 1.0 - 1e-12


class TestSubmajorization:
    def test_exact_on_simple_pair(self):
        x = np.array([1.0, 0.5, 0.25])
        y = np.array([1.0, 0.5, 0.25 + 1e-15])
        assert dx.submajorizes(y, x)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_fsum_brute(self, seed):
        r = _rng(seed)
        x = dx.decreasing_rearrangement(r.random(128))
        y = dx.decreasing_rearrangement(r.random(128))
        lhs = np.cumsum(x.values)
        rhs = np.cumsum(y.values)
        want = bool(np.all(lhs >= rhs))
        assert dx.submajorizes(x, y) == want

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_damped_copy_always_submajorized(self, seed):
        r = _rng(seed)
        x = dx.decreasing_rearrangement(r.random(256) + 1e-9)
        damp = dx.SingularSequence(x.values * r.uniform(0.1, 1.0))
        assert dx.submajorizes(x, damp)

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


class TestZ1AndRiesz:
    def test_harmonic_z1_frozen(self):
        h = dx.harmonic_sequence(10**6)
        assert dx.zeta_norm_z1(h) == pytest.approx(
            oracles.FROZEN["harmonic_z1"], abs=1e-6
        )

    def test_z1_accepts_exact_evaluator(self):
        h = dx.harmonic_sequence(10**4)
        ks = 2 ** np.arange(3, 15, dtype=np.int64)
        via_tail = dx.zeta_norm_z1(h, k_schedule=ks)
        via_fn = dx.zeta_norm_z1(
            h, k_schedule=ks,
            power_sum_fn=lambda s: oracles.harm_zeta_em(s, 10**4),
        )
        assert via_fn == pytest.approx(via_tail, rel=1e-7)

    def test_riesz_proxy_on_harmonic(self):
        h = dx.harmonic_sequence(2**16)
        r = dx.riesz_seminorm_proxy(h)
        # trailing dyadic window of alpha_k for 1/n stays near 1
        assert 1.0 <= r <= 1.2

    def test_riesz_needs_enough_data(self):
        with pytest.raises(ValueError):
            dx.riesz_seminorm_proxy(np.array([1.0, 0.5]))


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
        v = dx.tauberian_classify(oscillator_1e7.spectrum())
        assert v.status == "NonTauberian"
        assert v.oscillation_amplitude == pytest.approx(
            oracles.FROZEN["osc_band"], abs=5e-3
        )
        assert v.limit_estimate is None

    def test_short_horizon_undetermined(self):
        v = dx.tauberian_classify(dx.harmonic_sequence(512))
        assert v.status == "Undetermined"

    def test_zero_sequence_converges_to_zero(self):
        x = dx.SingularSequence(np.zeros(2048))
        v = dx.tauberian_classify(x)
        assert v.status == "Tauberian"
        assert v.limit_estimate == pytest.approx(0.0, abs=1e-12)

    def test_singularity_first_hundred_entries_do_not_matter(self):
        base = dx.harmonic_sequence(10**6)
        bumped = np.array(base.values)
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
        x = dx.oscillator_sequence(1024)
        want = oracles.osc_values(1024)
        np.testing.assert_allclose(x.values, np.sort(want)[::-1], rtol=1e-15)
