import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dixlab import kernels

import oracles


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _sorted_desc(values):
    return np.sort(np.asarray(values, dtype=np.float64))[::-1].copy()


class TestCompensatedSums:
    def test_comp_sum_matches_fsum(self):
        v = _rng(1).random(100_000)
        assert kernels.comp_sum(v) == pytest.approx(
            math.fsum(v.tolist()), rel=1e-15
        )

    def test_comp_sum_hard_cancellation_scale(self):
        # large spread: naive summation loses digits, compensated must not
        v = np.concatenate([[1e16], np.full(10_000, 1.0), [-1e16]])
        assert kernels.comp_sum(v) == pytest.approx(10_000.0, rel=1e-12)

    def test_power_sum_matches_fsum(self):
        v = _rng(2).random(50_000) + 1e-9
        for s in (0.5, 1.0, 1.25, 3.0):
            want = math.fsum((float(x) ** s for x in v))
            assert kernels.power_sum(v, s) == pytest.approx(want, rel=1e-13)


    def test_power_sum_float64_terms_near_the_zeta_pole(self):
        # 1e5 terms over six decades at s = 1 + 1/200: float64 terms
        # summed in extended precision stay within two float64 ulps
        v = 10.0 ** -_rng(3).uniform(0.0, 6.0, 100_000)
        s = 1.0 + 1.0 / 200.0
        want = oracles.mp_power_sum(v, s)
        got = kernels.power_sum(v, s)
        assert abs((got - want) / want) <= 4e-16


class TestHeatSum:
    def test_matches_brute_force(self):
        v = _sorted_desc(_rng(4).random(5_000) + 1e-6)
        for t, alpha in ((10.0, 1.0), (100.0, 0.5), (1e4, 2.0)):
            want = oracles.brute_heat(v, t, alpha)
            assert kernels.heat_sum(v, t, alpha) == pytest.approx(
                want, rel=1e-12
            )

    def test_zero_entries_contribute_nothing(self):
        v = np.array([1.0, 0.5, 0.0, 0.0])
        want = oracles.brute_heat(v[:2], 10.0, 1.0)
        assert kernels.heat_sum(v, 10.0, 1.0) == pytest.approx(want, rel=1e-14)


class TestLogAverages:
    def test_prefix_matches_brute(self):
        v = _sorted_desc(_rng(5).random(4_096))
        ks = np.array([1, 2, 10, 100, 1000, 4096], dtype=np.int64)
        got = kernels.prefix_log_average(v, ks)
        want = [oracles.brute_alpha(v, int(k)) for k in ks]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_max_matches_brute(self):
        v = _sorted_desc(_rng(6).random(2_048))
        sup, arg = kernels.max_log_average(v)
        assert sup == pytest.approx(oracles.brute_norm_1_inf(v), rel=1e-13)
        assert sup == pytest.approx(
            oracles.brute_alpha(v, int(arg)), rel=1e-13
        )

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_harmonic_alpha_against_fsum(self, k):
        v = 1.0 / np.arange(1.0, 512.0)
        got = kernels.prefix_log_average(v, np.array([k], dtype=np.int64))
        assert got[0] == pytest.approx(oracles.brute_alpha(v, k), rel=1e-13)


class TestPrefixDominates:
    def test_simple_cases(self):
        x = np.array([1.0, 0.5, 0.25])
        y = np.array([0.9, 0.5, 0.2])
        assert kernels.prefix_dominates(x, y)
        assert not kernels.prefix_dominates(y, x)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_cumsum(self, seed):
        r = _rng(seed)
        x = _sorted_desc(r.random(64))
        y = _sorted_desc(r.random(64))
        want = bool(np.all(np.cumsum(x) >= np.cumsum(y) - 1e-12))
        assert kernels.prefix_dominates(x, y) == want


class TestLatticeW:
    @pytest.mark.parametrize("n,radius", [(1, 7), (2, 11), (3, 6)])
    def test_matches_brute_enumeration(self, n, radius):
        pts = oracles.brute_lattice_points(n, radius)
        want = sorted(1 + sum(c * c for c in p) for p in pts)
        got = sorted(kernels.lattice_w(n, radius).tolist())
        assert [int(w) for w in got] == want

    def test_exact_boundary_inclusion(self):
        # radius 5: (3, 4) sits exactly on the circle and must be counted
        w = kernels.lattice_w(2, 5)
        assert int(np.sum(w == 26)) == 12  # (+-3,+-4),(+-4,+-3),(0,+-5),(+-5,0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            kernels.lattice_w(4, 3)
