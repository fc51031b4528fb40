import math

import numpy as np
import pytest

import dixlab as dx
from dixlab import kernels, models

import oracles


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestLatticeCounting:
    @pytest.mark.parametrize("n,radius", [(1, 9), (2, 12), (3, 7)])
    def test_count_matches_brute_enumeration(self, n, radius):
        want = len(oracles.brute_lattice_points(n, radius))
        assert models.lattice_count(n, radius) == want

    def test_torus_spectrum_head_matches_brute(self):
        pts = oracles.brute_lattice_points(2, 20)
        want = sorted(
            ((1 + a * a + b * b) ** (-1.0) for a, b in pts), reverse=True
        )
        spec = models.torus_spectrum(2, 20)
        np.testing.assert_allclose(spec.values, want, rtol=1e-15)
        assert spec.tail is not None

    def test_spectrum_default_power_scales_like_harmonic(self):
        # p = n/2 makes mu_k ~ vol / k; alpha must stay bounded
        spec = models.torus_spectrum(2, 150)
        a = dx.norm_1_inf(spec)
        assert math.pi <= a <= 1.3 * math.pi


class TestLatticeZeta:
    def test_one_dimensional_against_mpmath(self):
        # sum over Z of (1+m^2)^(-q) with p=1, against direct summation
        q = 1.3
        direct = 1.0 + 2.0 * math.fsum(
            (1.0 + m * m) ** (-q) for m in range(1, 2_000_000)
        )
        got = models.lattice_zeta(1, q, 4000, power=1.0)
        assert got.value == pytest.approx(direct, rel=1e-6)

    def test_two_dimensional_tail_improves_truncation(self):
        q = 1.5
        small = models.lattice_zeta(2, q, 60, power=1.0).value
        big = models.lattice_zeta(2, q, 600, power=1.0).value
        assert small == pytest.approx(big, rel=1e-4)

    def test_model_zeta_matches_lattice_zeta(self):
        m = dx.LatticeModel(2, 100)
        for s in (1.005, 1.04, 1.5):
            want = models.lattice_zeta(2, s, 100).value
            assert m.zeta(s) == pytest.approx(want, rel=1e-14)

    def test_one_lattice_enumeration_per_model(self, monkeypatch):
        calls = []
        enumerate_points = kernels.lattice_w

        def counting(n, radius):
            calls.append((n, radius))
            return enumerate_points(n, radius)

        monkeypatch.setattr(kernels, "lattice_w", counting)
        m = dx.LatticeModel(2, 100)
        dx.dixmier_estimate(m)
        dx.zeta_residue_estimate(m)
        dx.heat_estimate(m)
        assert calls == [(2, 100)]

    def test_subcritical_exponent_rejected(self):
        with pytest.raises(ValueError):
            models.lattice_zeta(2, 0.9, 50, power=1.0)

    def test_heat_tail_model_matches_larger_cutoff(self):
        t = 1e4
        small = dx.LatticeModel(2, 120).heat(t)
        big = dx.LatticeModel(2, 600).heat(t)
        head_only = oracles.brute_heat(
            dx.LatticeModel(2, 120).spectrum().values, t, 1.0
        ) / t
        assert small > head_only  # the tail genuinely adds mass here
        assert small == pytest.approx(big, rel=1e-3)


class TestCubeBasisAndExpectation:
    def test_cube_basis_orders_by_eigenvalue_then_cantor(self):
        pts, w = models.cube_basis(2, 2)
        assert w.shape == (25,)
        assert np.all(np.diff(w) >= 0)  # weights ascend = eigenvalues descend
        # ties broken by the pairing index, strictly
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                ci = models.cantor_index(pts[i:i + 1])[0]
                cj = models.cantor_index(pts[i + 1:i + 2])[0]
                assert ci < cj

    def test_expectation_sequence_of_multiplier_is_mean(self):
        f = dx.FourierMultiplier({(0,): 2.0, (1,): 0.5, (-1,): 0.5})
        got = models.expectation_sequence(f, basis=8)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, 2.0, rtol=1e-12)

    def test_expectation_sequence_of_matrix_diagonal(self):
        a = np.diag([3.0, 1.0, -1.0])
        np.testing.assert_allclose(
            models.expectation_sequence(a), [3.0, 1.0, -1.0]
        )


class TestFourierMultiplier:
    def test_real_flag_requires_hermitian_coefficients(self):
        with pytest.raises(ValueError):
            dx.FourierMultiplier({(1,): 1.0 + 0j, (-1,): 2.0 + 0j})

    def test_mean_value_matches_grid_quadrature(self):
        f = dx.FourierMultiplier({(0,): 2.0, (1,): 0.5, (-1,): 0.5})
        assert f.mean_value() == pytest.approx(2.0, abs=1e-12)

    def test_value_on_grid_reconstructs_cosine(self):
        f = dx.FourierMultiplier({(0,): 2.0, (1,): 0.5, (-1,): 0.5})
        got = f.value_on_grid(9)
        xs = 2.0 * math.pi * np.arange(9) / 9.0
        np.testing.assert_allclose(
            np.ravel(got), 2.0 + np.cos(xs), rtol=0, atol=1e-12
        )


class TestMultiplicationMatrix:
    def test_entries_match_symbol_formula(self):
        f = dx.FourierMultiplier(
            {(0,): 2.0, (1,): 0.5, (-1,): 0.5, (3,): 0.25, (-3,): 0.25}
        )
        M = 30
        op = models.multiplication_matrix(f, 1, M)
        pts, w = models.cube_basis(1, M)
        r = _rng(1)
        coeffs = dict(f.coefficients)
        for _ in range(100):
            i = int(r.integers(0, op.size))
            j = int(r.integers(0, op.size))
            diff = tuple(int(d) for d in (pts[i] - pts[j]))
            want = coeffs.get(diff, 0.0) * w[j] ** (-0.5)
            assert op.entries[i, j] == pytest.approx(complex(want),
                                                     abs=1e-15)

    def test_truncation_warning_recorded(self):
        f = dx.FourierMultiplier({(0,): 1.0, (5,): 0.5, (-5,): 0.5})
        op = models.multiplication_matrix(f, 1, 2)
        assert "ignored" in op.provenance
        assert "(5,)" in op.provenance

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "1")
        f = dx.FourierMultiplier({(0, 0): 1.0})
        with pytest.raises(models.BudgetError):
            models.multiplication_matrix(f, 2, 200)


class TestSingularValuesAndDecomposition:
    def test_unitary_invariance(self):
        r = _rng(2)
        m = r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16))
        q, _ = np.linalg.qr(
            r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16))
        )
        s1 = models.singular_values(m).values
        s2 = models.singular_values(q @ m @ q.conj().T).values
        assert float(np.max(np.abs(s1 - s2))) <= 1e-8

    def test_values_match_numpy(self):
        r = _rng(3)
        m = r.standard_normal((12, 12))
        want = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(models.singular_values(m).values, want,
                                   rtol=1e-10)

    def test_diagonal_decomposition(self):
        t1, t2, t3, t4 = models.hermitian_decompose(np.diag([3.0, -2.0]))
        np.testing.assert_allclose(t1, np.diag([3.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(t2, np.diag([0.0, 2.0]), atol=1e-14)
        assert np.allclose(t3, 0.0) and np.allclose(t4, 0.0)

    def test_decomposition_reconstructs_and_annihilates(self):
        r = _rng(4)
        m = r.standard_normal((10, 10)) + 1j * r.standard_normal((10, 10))
        t1, t2, t3, t4 = models.hermitian_decompose(m)
        recon = (t1 - t2) + 1j * (t3 - t4)
        scale = float(np.linalg.norm(m))
        assert float(np.linalg.norm(recon - m)) <= 1e-10 * scale
        assert float(np.linalg.norm(t1 @ t2)) <= 1e-8 * scale**2
        assert float(np.linalg.norm(t3 @ t4)) <= 1e-8 * scale**2
        for t in (t1, t2, t3, t4):
            lam = np.linalg.eigvalsh(t)
            assert lam.min() >= -1e-10 * max(scale, 1.0)


class TestNCTorus:
    def test_tau0_reads_the_constant_coefficient(self):
        a = dx.nc_element({(0, 0): 2.5 + 1j, (1, 2): 3.0}, theta=0.3)
        assert dx.nc_tau0(a) == 2.5 + 1j

    def test_product_printed_convention_vu_is_lambda_uv(self):
        theta = 0.3
        u = dx.nc_monomial(1, 0, theta)
        v = dx.nc_monomial(0, 1, theta)
        uv = dx.nc_product(u, v)
        vu = dx.nc_product(v, u)
        lam = complex(np.exp(2j * math.pi * theta))
        got = vu.coefficients[(1, 1)]
        want = lam * uv.coefficients[(1, 1)]
        assert got == pytest.approx(want, abs=1e-15)

    def test_star_is_an_involution(self):
        r = _rng(5)
        coeffs = {
            (int(r.integers(-3, 4)), int(r.integers(-3, 4))):
                complex(r.standard_normal(), r.standard_normal())
            for _ in range(6)
        }
        a = dx.nc_element(coeffs, theta=0.3)
        again = dx.nc_star(dx.nc_star(a))
        assert set(again.coefficients) == set(a.coefficients)
        for k, v in a.coefficients.items():
            assert again.coefficients[k] == pytest.approx(v, abs=1e-15)

    def test_tau0_of_a_star_a_is_coefficient_energy(self):
        r = _rng(6)
        coeffs = {
            (int(r.integers(-3, 4)), int(r.integers(-3, 4))):
                complex(r.standard_normal(), r.standard_normal())
            for _ in range(8)
        }
        a = dx.nc_element(coeffs, theta=(math.sqrt(5) - 1) / 2)
        got = dx.nc_tau0(dx.nc_product(dx.nc_star(a), a))
        want = sum(abs(c) ** 2 for c in a.coefficients.values())
        assert got.real == pytest.approx(want, rel=1e-13)
        assert abs(got.imag) <= 1e-13 * want

    def test_product_is_associative(self):
        theta = 0.3
        r = _rng(7)

        def rand_elem():
            return dx.nc_element(
                {
                    (int(r.integers(-2, 3)), int(r.integers(-2, 3))):
                        complex(r.standard_normal(), r.standard_normal())
                    for _ in range(4)
                },
                theta,
            )

        a, b, c = rand_elem(), rand_elem(), rand_elem()
        left = dx.nc_product(dx.nc_product(a, b), c)
        right = dx.nc_product(a, dx.nc_product(b, c))
        assert set(left.coefficients) == set(right.coefficients)
        for k in left.coefficients:
            assert left.coefficients[k] == pytest.approx(
                right.coefficients[k], abs=1e-12
            )

    def test_theta_mismatch_rejected(self):
        a = dx.nc_element({(0, 0): 1.0}, theta=0.1)
        b = dx.nc_element({(0, 0): 1.0}, theta=0.2)
        with pytest.raises(ValueError):
            dx.nc_product(a, b)

    def test_commutative_case_reduces_to_fourier_product(self):
        a = dx.nc_element({(1, 0): 1.0, (0, 1): 2.0}, theta=0.0)
        b = dx.nc_element({(1, 0): 3.0}, theta=0.0)
        ab = dx.nc_product(a, b)
        assert ab.coefficients[(2, 0)] == pytest.approx(3.0)
        assert ab.coefficients[(1, 1)] == pytest.approx(6.0)

    def test_nc_spectrum_is_commutative_torus_spectrum(self):
        s1 = dx.nc_torus_spectrum(50)
        s2 = models.torus_spectrum(2, 50)
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_connes_rhs_is_exact(self):
        f = dx.FourierMultiplier({(0, 0): 1.0})
        assert dx.connes_rhs(f, 2) == math.pi
        g = dx.FourierMultiplier({(0,): 3.0})
        assert dx.connes_rhs(g, 1) == 6.0


class TestDominationCheck:
    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            models.domination_check(np.ones((2, 8)), np.ones(9))

    def test_negative_candidate_rejected(self):
        with pytest.raises(ValueError):
            models.domination_check(np.ones((1, 4)), -np.ones(4))

    def test_accepts_dominating_candidate(self):
        grid = np.linspace(0, 1, 17)
        basis = np.stack([grid, grid**2])
        assert models.domination_check(basis, grid + 1e-9)
        assert not models.domination_check(basis, 0.5 * grid)
