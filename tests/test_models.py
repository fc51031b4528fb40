import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import linalg

import dixlab as dx
from dixlab import estimators, kernels, models, sequences

import oracles


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestLatticeCounting:
    @pytest.mark.parametrize("n,radius", [(1, 9), (2, 12), (3, 7)])
    def test_count_matches_brute_enumeration(self, n, radius):
        want = len(oracles.brute_lattice_points(n, radius))
        assert models.lattice_count(n, radius) == want

    @pytest.mark.parametrize("n,radius", [(0, 3), (4, 3), (2, 0), (3, -1)])
    def test_rejects_bad_dimension_and_radius(self, n, radius):
        # models._shells checks both for every lattice path; the kernel
        # takes them as given
        with pytest.raises(ValueError):
            models.lattice_count(n, radius)
        with pytest.raises(ValueError):
            models.torus_spectrum(n, radius)

    def test_count_table_respects_budget(self, monkeypatch):
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "1")
        with pytest.raises(models.BudgetError):
            models.lattice_count(2, 1000)

    @pytest.mark.parametrize("n,radius", [(2, 1000), (3, 80), (3, 644),
                                          (3, 645)])
    def test_charge_covers_what_the_shell_pass_holds(self, monkeypatch, n,
                                                     radius):
        # (3, 644) is the last 3-torus with an int32 table, (3, 645) the
        # first with an int64 one
        charged = []
        monkeypatch.setattr(models, "_check_budget",
                            lambda what, need: charged.append(need))
        tracemalloc.start()
        try:
            models._shells(n, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(charged) == 1 and charged[0] >= peak

    def test_one_dimensional_large_radius_within_default_budget(
        self, monkeypatch
    ):
        # the 1-torus has radius + 1 shells, not a radius^2 table
        monkeypatch.delenv("DIXLAB_BUDGET_MB", raising=False)
        assert models.lattice_count(1, 10**6) == 2 * 10**6 + 1
        spec = dx.torus_spectrum(1, 10**5)
        assert spec.values.size == 2 * 10**5 + 1
        np.testing.assert_allclose(
            spec.values[:5], [1.0, 2**-0.5, 2**-0.5, 5**-0.5, 5**-0.5],
            rtol=1e-15,
        )

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
        got = dx.power_trace(dx.torus_spectrum(1, 4000, 1.0), q)
        assert got == pytest.approx(direct, rel=1e-6)

    def test_one_dimensional_residue_converges_at_large_radius(self):
        # quad lost the tail here and gave 0.603 Oscillating
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = dx.zeta_residue_estimate(dx.torus_spectrum(1, 10**5))
        assert est.status == "Converged"
        assert est.value == pytest.approx(2.0, rel=1e-3)

    @pytest.mark.parametrize("n,radius,big_radius,q,rel", [
        (2, 60, 600, 1.5, 1e-4),
        # near the pole at the default power n/2
        (2, 200, 2000, 1.04, 1e-6),
        (1, 200, 20000, 1.04, 5e-5),
    ])
    def test_two_dimensional_tail_improves_truncation(self, n, radius,
                                                      big_radius, q, rel):
        small = dx.power_trace(dx.torus_spectrum(n, radius), q)
        big = dx.power_trace(dx.torus_spectrum(n, big_radius), q)
        assert small == pytest.approx(big, rel=rel)

    @pytest.mark.parametrize("n,radius,p", [
        (1, 200, 0.5), (1, 1000, 0.5), (2, 60, 1.0), (2, 200, 1.0),
        (2, 100, 1.5), (3, 40, 1.5), (3, 80, 1.5),
    ])
    def test_zeta_tail_is_the_weyl_hurwitz_sum(self, n, radius, p):
        # past the ball the s-th powers sum as the Weyl tail's, on the
        # zeta schedule s = n(1 + 1/k)/(2p) down to the pole at n/(2p)
        x = dx.torus_spectrum(n, radius, p)
        for k in (1, 25, 200, 1024):
            s = n * (1.0 + 1.0 / k) / (2.0 * p)
            assert sequences.tail_power_sum(
                x.tail, s, x.length + 1) == pytest.approx(
                oracles.weyl_zeta_tail(n, p, s, x.length), rel=1e-13)

    def test_one_lattice_enumeration_per_model(self, monkeypatch):
        calls = []
        enumerate_shells = kernels.shell_counts

        def counting(n, radius):
            calls.append((n, radius))
            return enumerate_shells(n, radius)

        monkeypatch.setattr(kernels, "shell_counts", counting)
        m = dx.torus_spectrum(2, 100)
        dx.dixmier_estimate(m)
        dx.zeta_residue_estimate(m)
        dx.heat_estimate(m)
        assert calls == [(2, 100)]

    def test_subcritical_exponent_rejected(self):
        with pytest.raises(ValueError, match="s=0.9"):
            dx.power_trace(dx.torus_spectrum(2, 50, 1.0), 0.9)

    def test_spectrum_reads_the_weyl_tail_sum(self):
        # the head plus the Weyl tail's Euler-Maclaurin sum, bitwise
        est = dx.zeta_residue_estimate(dx.torus_spectrum(2, 200))
        assert est.value == 3.1415780988398674

    @pytest.mark.parametrize("n,radius", [(2, 200), (3, 60)])
    @pytest.mark.parametrize("k", [1, -1, 100, -100])
    @pytest.mark.parametrize("s", [1.005, 1.04])
    def test_scaled_spectrum_scales_the_power_trace(self, n, radius, k, s):
        # 2^(ks) times the trace of the unscaled spectrum: the head
        # kernel sum plus the Weyl tail's Euler-Maclaurin sum
        x = dx.torus_spectrum(n, radius)
        exact = (kernels.power_sum(x.head, s, counts=x.counts)
                 + sequences.tail_sum(x.tail.powered(s), x.length + 1))
        assert dx.power_trace(x.scaled(2.0**k), s) == pytest.approx(
            2.0 ** (k * s) * exact, rel=1e-14)
        assert dx.power_trace(x, s) == exact

    def test_heat_tail_model_matches_larger_cutoff(self):
        t = 1e4
        small = dx.heat_trace(dx.torus_spectrum(2, 120), t)
        big = dx.heat_trace(dx.torus_spectrum(2, 600), t)
        head_only = oracles.brute_heat(
            dx.torus_spectrum(2, 120).values, t, 1.0
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

    def test_expectation_sequence_in_a_rotated_basis(self):
        # columns (e1 +- e2)/sqrt 2 read the mean of the first two
        # diagonal entries and pick up the off-diagonal 0.5
        a = np.array([[3.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, -1.0]])
        r = 1.0 / math.sqrt(2.0)
        u = np.array([[r, r, 0.0], [r, -r, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(models.expectation_sequence(a, basis=u),
                                   [2.5, 1.5, -1.0], rtol=1e-14)
        with pytest.raises(ValueError, match="matching shape"):
            models.expectation_sequence(a, basis=np.eye(2))


class TestFourierMultiplier:
    def test_real_flag_requires_hermitian_coefficients(self):
        with pytest.raises(ValueError):
            dx.FourierMultiplier({(1,): 1.0 + 0j, (-1,): 2.0 + 0j})


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
        # array fields: equality is identity, not an ambiguous array test
        assert op == op and op != models.multiplication_matrix(f, 1, 2)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "1")
        f = dx.FourierMultiplier({(0, 0): 1.0})
        with pytest.raises(models.BudgetError):
            models.multiplication_matrix(f, 2, 200)

    @pytest.mark.parametrize("power", [0.0, -1.0, math.inf, math.nan])
    def test_power_must_be_positive_and_finite(self, power):
        f = dx.FourierMultiplier({(0,): 2.0, (1,): 0.5, (-1,): 0.5})
        with pytest.raises(ValueError, match="operator power"):
            models.multiplication_matrix(f, 1, 8, power)
        with pytest.raises(ValueError, match="operator power"):
            dx.torus_spectrum(2, 10, power)


# the workload symbol 2 + cos(x + phi)
_WORKLOAD = {(0,): 2.0, (1,): 0.5 * np.exp(1.234j),
             (-1,): 0.5 * np.exp(-1.234j)}


def _symbol(case, degree):
    """Degree-d symbols: random phases, the reflection-symmetric phi=0
    cosine, and complex coefficients with no reality condition."""
    r = _rng(10 + degree)
    if case == "phases":
        coeffs = {(0,): 2.0}
        for k in range(1, degree + 1):
            c = 0.5 / k * np.exp(2j * math.pi * r.random())
            coeffs[(k,)], coeffs[(-k,)] = c, np.conj(c)
        return dx.FourierMultiplier(coeffs)
    if case == "symmetric":
        return dx.FourierMultiplier(
            {(0,): 2.0, (degree,): 0.5, (-degree,): 0.5}
        )
    coeffs = {(k,): complex(r.standard_normal(), r.standard_normal())
              for k in range(-degree, degree + 1)}
    return dx.FourierMultiplier(coeffs, real_flag=False)


class TestBandSingularValues:
    @pytest.mark.parametrize("M", [1, 2, 5, 17, 64, 200])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("case,power", [
        ("phases", None), ("symmetric", None), ("complex", None),
        ("phases", 0.8), ("complex", 1.7),
    ])
    def test_matches_dense_oracle(self, case, power, degree, M):
        op = models.multiplication_matrix(_symbol(case, degree), 1, M,
                                          power)
        got = models._band_singular_values(op)
        want = linalg.svdvals(op.entries)
        # both solvers are accurate to a multiple of eps * sigma_1, so
        # the tiniest values agree to 1e-12 of sigma_1, not of themselves
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * want[0])

    def test_path_follows_size_against_bandwidth(self, monkeypatch):
        sizes = []
        band = models._band_singular_values

        def spy(op):
            sizes.append(op.size)
            return band(op)

        monkeypatch.setattr(models, "_band_singular_values", spy)
        narrow = _symbol("phases", 1)  # 401 >= 70 * 3
        wide = dx.FourierMultiplier(
            {(k,): 1.0 / (1 + abs(k)) for k in range(-10, 11)}
        )  # 401 < 70 * 21
        for op in (models.multiplication_matrix(narrow, 1, 200),
                   models.multiplication_matrix(wide, 1, 200)):
            np.testing.assert_allclose(
                models.singular_values(op).values,
                linalg.svdvals(op.entries), rtol=1e-12, atol=0.0,
            )
        assert sizes == [401]

    def test_two_dimensional_operator_stays_dense(self, monkeypatch):
        monkeypatch.setattr(models, "_band_singular_values", None)
        f = dx.FourierMultiplier(
            {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25j,
             (0, -1): -0.25j}
        )
        op = models.multiplication_matrix(f, 2, 6)
        got = models.singular_values(op).values
        np.testing.assert_array_equal(
            got, models.singular_values(op.entries).values
        )
        np.testing.assert_allclose(got, linalg.svdvals(op.entries),
                                   rtol=1e-12)

    @pytest.mark.parametrize("corruption", ["shifted", "nan", "repeated",
                                            "solver"])
    def test_corrupted_value_fails_certificate(self, monkeypatch,
                                               corruption):
        eig_banded = linalg.eig_banded

        def corrupted(*args, **kwargs):
            if corruption == "solver":
                raise linalg.LinAlgError("no convergence")
            lam = eig_banded(*args, **kwargs)
            if corruption == "repeated":  # sigma_3 twice, sigma_2 lost
                lam[-2] = lam[-3]
            else:
                lam[-3] = math.nan if corruption == "nan" else (
                    lam[-3] + 1e-6 * lam[-1])
            return lam

        monkeypatch.setattr(models.linalg, "eig_banded", corrupted)
        op = models.multiplication_matrix(_symbol("symmetric", 1), 1, 200)
        reason = {"shifted": "residual", "nan": "at nan",
                  "repeated": "repeated or lost",
                  "solver": "solver failed: no convergence"}[corruption]
        with pytest.raises(models.CertificateError, match=reason):
            models.singular_values(op)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160,
                                       1e200, 1e300])
    def test_certificate_holds_at_any_scale(self, scale):
        # at 1e+-160 and 1e200 the squares and vector norms overflowed or
        # underflowed into a NaN residual or Frobenius gap
        f = _symbol("symmetric", 1)
        scaled = dx.FourierMultiplier(
            {k: c * scale for k, c in f.coefficients.items()})
        op = models.multiplication_matrix(scaled, 1, 150)
        assert models._takes_band_path(op)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = models.singular_values(op).values
        want = models.singular_values(
            models.multiplication_matrix(f, 1, 150)).values
        np.testing.assert_allclose(got / scale, want, rtol=1e-12)

    def test_subnormal_symbol_is_formed_in_a_finite_unit(self):
        # the units of max |a| (2^1023, capped) and of ||A||_F (2^3) would
        # multiply to 2^1026 = inf; capped at 2^1023, the Gram band is
        # formed and the values are those of the unit symbol, to
        # subnormal precision
        f = _symbol("symmetric", 1)
        scale = 2e-310
        scaled = dx.FourierMultiplier(
            {k: c * scale for k, c in f.coefficients.items()})
        got = models.singular_values(
            models.multiplication_matrix(scaled, 1, 150)).values
        want = models.singular_values(
            models.multiplication_matrix(f, 1, 150)).values
        np.testing.assert_allclose(got, want * scale, rtol=0.0,
                                   atol=2.0 * 5e-324)

    def test_exactly_singular_shift_is_retried(self):
        # H = 0: every shift sigma = 0 is exactly singular until nudged
        op = models.multiplication_matrix(dx.FourierMultiplier({(0,): 0.0}),
                                          1, 60)
        assert np.array_equal(models.singular_values(op).values,
                              np.zeros(121))

    @pytest.mark.parametrize("M", [1, 2, 17])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("case", ["phases", "complex"])
    def test_gram_band_matches_dense_gram_matrix(self, case, degree, M):
        op = models.multiplication_matrix(_symbol(case, degree), 1, M)
        natural = np.argsort(op.basis_points[:, 0])  # m = -M..M
        A = op.entries[np.ix_(natural, natural)]
        want = A.conj().T @ A
        g = models._gram_band(models._symbol_band(op))
        got = np.zeros_like(want)
        for q in range(min(g.shape[0], op.size)):
            got += np.diag(g[q, :op.size - q], -q)
            if q:
                got += np.diag(g[q, :op.size - q].conj(), q)
        sigma_1 = linalg.svdvals(A)[0]
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-14 * sigma_1**2)

    def _count_solves(self, monkeypatch, op):
        """Singular values of op, and the number of inverse-iteration
        steps on the N x N Gram band and on the 2N Golub-Kahan band."""
        sizes = []
        step = models._inverse_step

        def spy(gb, *args):
            sizes.append(gb.shape[1])
            return step(gb, *args)

        monkeypatch.setattr(models, "_inverse_step", spy)
        got = models.singular_values(op).values
        return got, sizes.count(op.size), sizes.count(2 * op.size)

    def test_gram_vectors_certify_the_workload_symbol(self, monkeypatch):
        c = 0.5 * np.exp(1.234j)  # 2 + cos(x + phi)
        op = models.multiplication_matrix(
            dx.FourierMultiplier({(0,): 2.0, (1,): c, (-1,): np.conj(c)}),
            1, 300)
        got, gram, golub_kahan = self._count_solves(monkeypatch, op)
        # 601 values, 278 of them within _SHARE * sigma_1 of a twin
        assert (gram, golub_kahan) == (323, 0)
        want = linalg.svdvals(op.entries)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * want[0])

    @pytest.mark.parametrize("M", [300, 600])
    def test_every_workload_value_keeps_its_own_residual(self, monkeypatch,
                                                         M):
        # twins share a vector, not a residual: each is checked with its
        # own sigma, and sharing leaves the worst 1000x inside the bound
        c = 0.5 * np.exp(1.234j)  # 2 + cos(x + phi)
        op = models.multiplication_matrix(
            dx.FourierMultiplier({(0,): 2.0, (1,): c, (-1,): np.conj(c)}),
            1, M)
        seen = []
        certify = models._certify

        def spy(sigma, resid, frobenius):
            seen.append((sigma, resid))
            return certify(sigma, resid, frobenius)

        monkeypatch.setattr(models, "_certify", spy)
        models._band_singular_values(op)
        (sigma, resid), = seen
        assert resid.shape == sigma.shape == (op.size,)
        assert np.max(resid) <= 1e-11 * sigma[0]

    @pytest.mark.parametrize("sigma,stepped", [
        ([1.0, 1.0, 1.0], [0]),  # equal values share one step
        ([1.0, 1.0 - 2.0 * models._SHARE], [0, 1]),
        # each 0.6 _SHARE below the one before: the third is 1.2 _SHARE
        # below the lead and starts a cluster, which the fourth joins
        (1.0 - 0.6 * models._SHARE * np.arange(4), [0, 2]),
        # 1e-14 sigma_1 apart, on either side of _GRAM_MIN_SIGMA
        ([1.0, models._GRAM_MIN_SIGMA, models._GRAM_MIN_SIGMA - 1e-14],
         [0, 1, 2]),
    ])
    def test_one_inverse_step_per_cluster(self, monkeypatch, sigma,
                                          stepped):
        # made-up values of 2 + cos x at M = 20, which the certificate
        # refuses once every step is taken; a step's shift is sigma^2 on
        # the Gram band and sigma on the 2N band
        a = models._symbol_band(models.multiplication_matrix(
            dx.FourierMultiplier({(0,): 2.0, (1,): 0.5, (-1,): 0.5}), 1, 20))
        sigma = np.asarray(sigma)
        shifts = []
        step = models._inverse_step

        def spy(gb, shift, *args):
            gram = gb.shape[1] == a.shape[1]
            shifts.append(math.sqrt(shift) if gram else shift)
            return step(gb, shift, *args)

        monkeypatch.setattr(models, "_inverse_step", spy)
        with pytest.raises(models.CertificateError):
            models._certify_band(a, sigma, models._gram_band(a),
                                 models._golub_kahan_band(a))
        assert shifts == list(sigma[stepped])

    def _spy_certificate(self, monkeypatch, N):
        """Lists that fill as the band certificate of an N x N truncation
        runs: each step's (on the 2N band, shift, vector), each _certify
        call's (sigma, resid), and the rows multiplied by A and by A*."""
        steps, seen, rows = [], [], {False: 0, True: 0}
        step, certify = models._inverse_step, models._certify
        band_apply = models._band_apply

        def step_spy(gb, shift, *args):
            x = step(gb, shift, *args)
            steps.append((gb.shape[1] == 2 * N, shift, x))
            return x

        def certify_spy(sigma, resid, frobenius):
            seen.append((sigma, resid))
            return certify(sigma, resid, frobenius)

        def apply_spy(a, X, adjoint=False):
            rows[adjoint] += X.shape[0]
            return band_apply(a, X, adjoint)

        monkeypatch.setattr(models, "_inverse_step", step_spy)
        monkeypatch.setattr(models, "_certify", certify_spy)
        monkeypatch.setattr(models, "_band_apply", apply_spy)
        return steps, seen, rows

    @staticmethod
    def _assert_dense_residuals(A, sigma, resid, steps):
        """Each resid_i is ||Hx - sigma_i x|| / ||x|| on the dense H =
        [[0, A], [A*, 0]] to 1e-14 sigma_1, x built from the step of its
        cluster's lead: x = (A v / sigma_i, v) on the Gram band."""
        wide = models._on_golub_kahan(sigma)
        k, lead = -1, math.nan
        for s, on_h, got in zip(sigma, wide, resid):
            if (k < 0 or on_h != steps[k][0]
                    or not abs(s - lead) <= models._SHARE * sigma[0]):
                k, lead = k + 1, s
                assert steps[k][:2] == (on_h, s if on_h else s * s)
            x = steps[k][2]
            u, v = (x[0::2], x[1::2]) if on_h else (A @ x / s, x)
            want = np.linalg.norm(np.concatenate(
                [A @ v - s * u, A.conj().T @ u - s * v])) / math.hypot(
                    np.linalg.norm(u), np.linalg.norm(v))
            assert abs(got - want) <= 1e-14 * sigma[0]
        assert k + 1 == len(steps)

    @pytest.mark.parametrize("coefficients,real,M", [
        (_WORKLOAD, True, 60),
        # 20 values on the 2N band
        ({(0,): 1.0, (1,): 0.5, (-1,): 0.5}, True, 200),
        # 60 values sharing a step
        ({(0,): 1.0, (1,): 2.0}, False, 150),
    ])
    def test_each_residual_is_its_dense_residual(self, monkeypatch,
                                                 coefficients, real, M):
        # the certificate reads every residual from its lead's products,
        # multiplying each lead's vector once by A and once by A*
        op = models.multiplication_matrix(
            dx.FourierMultiplier(coefficients, real_flag=real), 1, M)
        steps, seen, rows = self._spy_certificate(monkeypatch, op.size)
        models._band_singular_values(op)
        (sigma, resid), = seen
        assert rows == {False: len(steps), True: len(steps)}
        # the certificate's power-of-two unit, and A in the band's order
        unit = 2.0 ** round(math.log2(sigma[0]
                                      / linalg.svdvals(op.entries)[0]))
        natural = np.argsort(op.basis_points[:, 0])
        self._assert_dense_residuals(
            op.entries[np.ix_(natural, natural)] * unit, sigma, resid, steps)

    def test_made_up_values_read_their_dense_residual(self, monkeypatch):
        # values that are not singular values of 2 + cos x at M = 20 have
        # residuals far above rounding, twins and the 2N band included;
        # the certificate refuses them once every residual is read
        op = models.multiplication_matrix(
            dx.FourierMultiplier({(0,): 2.0, (1,): 0.5, (-1,): 0.5}), 1, 20)
        a = models._symbol_band(op)
        sigma = np.array([1.0, 0.5, 0.5 - 1e-13, 1e-5, 1e-5 - 1e-13])
        steps, seen, rows = self._spy_certificate(monkeypatch, op.size)
        with pytest.raises(models.CertificateError, match="residual"):
            models._certify_band(a, sigma, models._gram_band(a),
                                 models._golub_kahan_band(a))
        (_, resid), = seen
        assert len(steps) == 3 and np.all(resid > 1e-6)
        natural = np.argsort(op.basis_points[:, 0])
        self._assert_dense_residuals(op.entries[np.ix_(natural, natural)],
                                     sigma, resid, steps)

    @pytest.mark.parametrize("coefficients,M", [
        (_WORKLOAD, 300), (_WORKLOAD, 600),
        ({(0,): 1.0, (1,): 0.5, (-1,): 0.5}, 200),
    ])
    def test_charge_covers_what_the_band_path_holds(self, monkeypatch,
                                                    coefficients, M):
        op = models.multiplication_matrix(dx.FourierMultiplier(coefficients),
                                          1, M)
        charged = []
        monkeypatch.setattr(models, "_check_budget",
                            lambda what, need: charged.append(need))
        tracemalloc.start()
        try:
            models._band_singular_values(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(charged) == 1 and charged[0] >= peak

    @pytest.mark.parametrize("coefficients,M", [
        ({(0,): 1.0, (1,): 0.5, (-1,): 0.5}, 200), (_WORKLOAD, 300),
        ({(0,): 2.0, (2,): 0.5j, (-2,): -0.5j, (3,): 0.25, (-3,): 0.25}, 100),
    ])
    def test_band_apply_holds_two_block_arrays(self, coefficients, M):
        # A X and A* X for a block of _BLOCK rows: the result and one
        # product buffer (numpy's iteration buffers held four blocks),
        # and the sums of a product per diagonal, bitwise
        op = models.multiplication_matrix(dx.FourierMultiplier(coefficients),
                                          1, M)
        a = models._symbol_band(op)
        d, N = (a.shape[0] - 1) // 2, op.size
        r = _rng(M)
        X = r.standard_normal((models._BLOCK, N)) \
            + 1j * r.standard_normal((models._BLOCK, N))
        for adjoint in (False, True):
            want = np.zeros_like(X)
            for k in range(-d, d + 1):
                lo, hi = max(0, -k), min(N, N - k)
                if adjoint:
                    want[:, lo:hi] += a[d + k, lo:hi] * X[:, lo + k:hi + k]
                else:
                    want[:, lo + k:hi + k] += a[d + k, lo:hi] * X[:, lo:hi]
            tracemalloc.start()
            try:
                got = models._band_apply(a, X, adjoint)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
            # and a few KiB of views and loop state
            assert peak <= 2 * X.nbytes + 8192

    @pytest.mark.parametrize("coefficients,M,golub_kahan", [
        (_WORKLOAD, 300, False), ({(0,): 1.0, (1,): 0.5, (-1,): 0.5}, 200,
                                  True),
    ])
    def test_lead_sums_hold_three_block_arrays(self, monkeypatch,
                                               coefficients, M, golub_kahan):
        # A v, R and one product buffer (the row scalings' temporaries and
        # numpy's iteration buffers held 4.1-4.3 blocks), and the four
        # sums of the full-block expressions, bitwise
        def want_sums(a, ac, l, on_h, V, W):
            AV = models._band_apply(a, V)
            W[~on_h] = AV[~on_h]
            R = models._band_apply(ac, W, adjoint=True)
            R -= np.where(on_h, l, l * l)[:, None] * V
            d = models._dots
            sums = np.stack([d(R, R), d(R, V), d(V, V),
                             np.where(on_h, 0.0, d(W, W))])
            if on_h.any():
                AV -= l[:, None] * W
                sums[:3] += np.where(on_h, [d(AV, AV), d(AV, W), d(W, W)],
                                     0.0)
            return sums

        lead_sums, seen = models._lead_sums, []

        def spy(a, ac, l, on_h, V, W):
            want = want_sums(a, ac, l, on_h, V.copy(), W.copy())
            tracemalloc.start()
            try:
                got = lead_sums(a, ac, l, on_h, V, W)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(got, want)
            # and a few KiB of views, iteration buffers and the sums
            assert peak <= 3 * V.nbytes + 8192
            seen.append(on_h.any())
            return got

        monkeypatch.setattr(models, "_lead_sums", spy)
        op = models.multiplication_matrix(dx.FourierMultiplier(coefficients),
                                          1, M)
        models._band_singular_values(op)
        assert seen and any(seen) == golub_kahan

    def _spy_eig_banded(self, monkeypatch):
        """The shapes of the bands eig_banded is called on, as a list
        that fills as it runs."""
        shapes = []
        eig_banded = linalg.eig_banded

        def spy(ab, *args, **kwargs):
            shapes.append(ab.shape)
            return eig_banded(ab, *args, **kwargs)

        monkeypatch.setattr(models.linalg, "eig_banded", spy)
        return shapes

    @pytest.mark.parametrize("M", [300, 600])
    def test_workload_symbol_takes_one_gram_band_eigensolve(
            self, monkeypatch, M):
        # sigma_N is 1.4e-3 sigma_1 at M = 300 and 7.1e-4 at M = 600: every
        # value comes from the N-column Gram band, none from the 2N band
        c = 0.5 * np.exp(1.234j)  # 2 + cos(x + phi)
        op = models.multiplication_matrix(
            dx.FourierMultiplier({(0,): 2.0, (1,): c, (-1,): np.conj(c)}),
            1, M)
        shapes = self._spy_eig_banded(monkeypatch)
        got = models._band_singular_values(op)
        assert shapes == [(3, op.size)]
        monkeypatch.undo()
        lam = linalg.eig_banded(
            models._golub_kahan_band(models._symbol_band(op)), lower=True,
            eigvals_only=True)
        want = lam[op.size:][::-1]
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * want[0])

    def test_small_values_come_from_the_golub_kahan_band(self, monkeypatch):
        # 1 + cos x vanishes at x = pi: sigma_N is 2.8e-7 sigma_1, where
        # the square root of a Gram eigenvalue alone is 1.2e-12 sigma_1 off
        op = models.multiplication_matrix(
            dx.FourierMultiplier({(0,): 1.0, (1,): 0.5, (-1,): 0.5}), 1, 200)
        shapes = self._spy_eig_banded(monkeypatch)
        got = models._band_singular_values(op)
        assert shapes == [(3, op.size), (4, 2 * op.size)]
        assert np.all(np.diff(got) <= 0.0)
        want = linalg.svdvals(op.entries)
        assert want[-1] < models._GRAM_MIN_SIGMA * want[0]
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * want[0])

    @pytest.mark.parametrize("coefficients,real,M,split", [
        # cos x: sigma_N 4.8e-18 sigma_1
        ({(1,): 0.5, (-1,): 0.5}, True, 150, (300, 1)),
        # 1 + 2 e^{ix}: sigma_N 1.2e-17 sigma_1, 60 values sharing a step
        ({(0,): 1.0, (1,): 2.0}, False, 150, (240, 1)),
        # 1 + cos x: 20 values in [2.8e-7, 1e-4) sigma_1
        ({(0,): 1.0, (1,): 0.5, (-1,): 0.5}, True, 200, (381, 20)),
    ])
    def test_small_values_are_certified_on_the_golub_kahan_band(
            self, monkeypatch, coefficients, real, M, split):
        # the values below _GRAM_MIN_SIGMA * sigma_1 take their inverse
        # step on the 2N band, the rest on the Gram band, one step per
        # cluster of values within _SHARE * sigma_1
        op = models.multiplication_matrix(
            dx.FourierMultiplier(coefficients, real_flag=real), 1, M)
        assert models._takes_band_path(op)
        got, gram, golub_kahan = self._count_solves(monkeypatch, op)
        assert (gram, golub_kahan) == split
        want = linalg.svdvals(op.entries)
        assert golub_kahan == np.sum(want < models._GRAM_MIN_SIGMA * want[0])
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * want[0])

    @pytest.mark.parametrize("coefficients,M,golub_kahan", [
        ({(0,): 2.0, (1,): 0.5, (-1,): 0.5}, 300, 0),
        ({(1,): 0.5, (-1,): 0.5}, 150, 1),
        ({(0,): 1.0, (1,): 0.5, (-1,): 0.5}, 200, 1),
    ])
    def test_each_band_is_formed_once(self, monkeypatch, coefficients, M,
                                      golub_kahan):
        # the certificate reads the bands the eigenvalue step formed
        calls = []
        for name in ("_gram_band", "_golub_kahan_band"):
            def spy(a, name=name, band=getattr(models, name)):
                calls.append(name)
                return band(a)
            monkeypatch.setattr(models, name, spy)
        models.singular_values(models.multiplication_matrix(
            dx.FourierMultiplier(coefficients), 1, M))
        assert calls.count("_gram_band") == 1
        assert calls.count("_golub_kahan_band") == golub_kahan

    def test_band_path_charges_the_band_not_a_dense_svd(self, monkeypatch):
        op = models.multiplication_matrix(_symbol("phases", 1), 1, 300)
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "10")  # entries: 5.5 MB
        assert models.singular_values(op).values.size == 601
        with pytest.raises(models.BudgetError, match="dense SVD"):
            models.singular_values(op.entries)

    def test_dense_svd_charges_the_entries_too(self, monkeypatch):
        # n = 2, M = 10: N = 441, and 14 MB holds 64 but not 80 bytes per
        # entry, so only a charge that counts the live entries refuses
        f = dx.FourierMultiplier({(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5})
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "14")
        op = models.multiplication_matrix(f, 2, 10)
        assert 64 * op.size**2 < 14 * 2**20 < 80 * op.size**2
        with pytest.raises(models.BudgetError, match="dense SVD"):
            models.singular_values(op)
        with pytest.raises(models.BudgetError, match="decomposition"):
            models.hermitian_decompose(op)
        # both refused before assembling: the entries (3 MB) are unbuilt
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "2")
        with pytest.raises(models.BudgetError, match="matrix assembly"):
            op.entries

    def test_band_path_runs_where_the_entries_do_not_fit(self, monkeypatch):
        # 2 + cos x at M = 300: N = 601, the entries need 5.5 MB and the
        # band about 1.7 MB
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "4")
        op = models.multiplication_matrix(_symbol("symmetric", 1), 1, 300)
        got = models.singular_values(op).values
        with pytest.raises(models.BudgetError, match="matrix assembly"):
            op.entries  # still unassembled
        monkeypatch.delenv("DIXLAB_BUDGET_MB")
        want = linalg.svdvals(op.entries)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * want[0])


class TestSingularValuesAndDecomposition:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170, 1e-150, 1.0,
                                       1e100, 1e160, 1e200, 1e300])
    def test_dense_certificate_at_any_scale(self, monkeypatch, scale):
        # 2 + cos x at M = 4 takes the dense SVD.  (A*A)v and s^2 left the
        # float range: past 1e160 or below 1e-150 a wrong value passed,
        # and at 1e100 a right one failed
        f = _symbol("symmetric", 1)
        op = models.multiplication_matrix(dx.FourierMultiplier(
            {k: c * scale for k, c in f.coefficients.items()}), 1, 4)
        assert not models._takes_band_path(op)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = models.singular_values(op).values
        want = linalg.svdvals(models.multiplication_matrix(f, 1, 4).entries)
        np.testing.assert_allclose(got / scale, want, rtol=1e-12)
        svd = linalg.svd

        def wrong(*args, **kwargs):  # s_4 halfway to s_5, order kept
            u, s, vh = svd(*args, **kwargs)
            s[3] = 0.5 * (s[3] + s[4])
            return u, s, vh

        monkeypatch.setattr(models.linalg, "svd", wrong)
        with pytest.raises(models.CertificateError, match="residual"):
            models.singular_values(op)

    @pytest.mark.parametrize("corruption", ["nan", "repeated", "solver"])
    def test_dense_corrupted_value_fails_certificate(self, monkeypatch,
                                                     corruption):
        # a NaN residual compared false against the bound and passed, and
        # sigma_2 written over sigma_3 with its vectors passed the Gram
        # residual: 1.18906 twice, 1.14141 lost
        svd = linalg.svd

        def corrupted(*args, **kwargs):
            if corruption == "solver":
                raise linalg.LinAlgError("no convergence")
            u, s, vh = svd(*args, **kwargs)
            if corruption == "repeated":
                u[:, 2], s[2], vh[2] = u[:, 1], s[1], vh[1]
            else:
                s[3] = math.nan
            return u, s, vh

        monkeypatch.setattr(models.linalg, "svd", corrupted)
        f = dx.FourierMultiplier(
            {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25j,
             (0, -1): -0.25j}
        )
        op = models.multiplication_matrix(f, 2, 6)
        reason = {"nan": "residual nan", "repeated": "repeated or lost",
                  "solver": "solver failed: no convergence"}[corruption]
        with pytest.raises(models.CertificateError, match=reason):
            models.singular_values(op)

    @pytest.mark.parametrize("dimension,halfwidth", [(1, 150), (2, 4)])
    def test_sigma_1_past_the_float_range_is_refused(self, dimension,
                                                     halfwidth):
        # 1.7e308 + 8.5e307 cos x_1 has sigma_1 of about 2.5e308.  After
        # RuntimeWarnings the band path failed its certificate at an
        # overflowed shift and the dense path on a NaN residual
        pad = (0,) * (dimension - 1)
        f = dx.FourierMultiplier({(0,) + pad: 1.7e308, (1,) + pad: 4.25e307,
                                  (-1,) + pad: 4.25e307})
        op = models.multiplication_matrix(f, dimension, halfwidth)
        assert models._takes_band_path(op) == (dimension == 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma_1 lies past the "
                               "float64 range"):
                models.singular_values(op)

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

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e100, 1e160, 1e200])
    def test_decomposition_certificate_holds_at_any_scale(self, monkeypatch,
                                                          scale):
        # at 1e160 and 1e200 both sides of the orthogonality check
        # overflowed to inf, and at 1e-200 underflowed to 0, so a split
        # whose parts overlap passed
        r = _rng(4)
        m = scale * (r.standard_normal((10, 10))
                     + 1j * r.standard_normal((10, 10)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            models.hermitian_decompose(m)
        positive_parts = models._positive_parts

        def overlapping(H):
            pos, neg = positive_parts(H)
            shift = np.max(np.abs(H)) * np.eye(H.shape[0])
            return pos + shift, neg + shift

        def unbalanced(H):
            pos, neg = positive_parts(H)
            return pos + np.max(np.abs(H)) * np.eye(H.shape[0]), neg

        monkeypatch.setattr(models, "_positive_parts", overlapping)
        with pytest.raises(models.CertificateError, match="not orthogonal"):
            models.hermitian_decompose(m)
        monkeypatch.setattr(models, "_positive_parts", unbalanced)
        with pytest.raises(models.CertificateError,
                           match="reconstruction failed"):
            models.hermitian_decompose(m)

    def test_decomposition_is_formed_in_the_unit(self):
        # A + A^H overflowed before the unit was applied, and scipy refused
        # the infinite H.  In the unit, 1e308 [[1, 1], [1, -1]] splits:
        # its positive part peaks at 1.21e308.  At 1.6e308 that part lies
        # past the float range
        m = np.array([[1.0, 1.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t1, t2, t3, t4 = models.hermitian_decompose(1e308 * m)
            r = math.sqrt(2.0)
            np.testing.assert_allclose(
                t1 / 1e308, [[(r + 1.0) / 2.0, 0.5], [0.5, (r - 1.0) / 2.0]],
                rtol=0.0, atol=1e-14)
            np.testing.assert_allclose((t1 - t2) / 1e308, m, rtol=0.0,
                                       atol=1e-14)
            assert not (t3.any() or t4.any())
            with pytest.raises(ValueError, match="positive part lies past "
                               "the float64 range"):
                models.hermitian_decompose(1.6e308 * m)


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

    @pytest.mark.parametrize("theta", [-0.5, 1.0, math.nan])
    def test_nc_spectrum_checks_theta_as_the_algebra_does(self, theta):
        for build in (lambda: dx.nc_torus_spectrum(50, theta),
                      lambda: dx.nc_identity(theta)):
            with pytest.raises(sequences.FieldError,
                               match=r"theta must lie in \[0, 1\)") as err:
                build()
            assert err.value.field == "theta"

    def test_connes_rhs_is_exact(self):
        f = dx.FourierMultiplier({(0, 0): 1.0})
        assert dx.connes_rhs(f, 2) == math.pi
        g = dx.FourierMultiplier({(0,): 3.0})
        assert dx.connes_rhs(g, 1) == 6.0
        h = dx.FourierMultiplier({(0,): 3.0}, real_flag=False)
        assert dx.connes_rhs(h, 1) == 6.0 + 0j
        assert isinstance(dx.connes_rhs(h, 1), complex)


class TestDominationCheck:
    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            models.domination_check(np.ones((2, 8)), np.ones(9))

    @pytest.mark.parametrize("profiles,candidate,match", [
        (np.ones((1, 4)), -np.ones(4), "candidate profile"),
        (-np.ones((1, 4)), np.ones(4), "profiles"),
    ], ids=["candidate", "profiles"])
    def test_negative_profile_rejected(self, profiles, candidate, match):
        with pytest.raises(ValueError, match=match + " must be nonnegative"):
            models.domination_check(profiles, candidate)

    def test_accepts_dominating_candidate(self):
        grid = np.linspace(0, 1, 17)
        basis = np.stack([grid, grid**2])
        assert models.domination_check(basis, grid + 1e-9)
        assert not models.domination_check(basis, 0.5 * grid)
        assert models.domination_check(grid, grid)  # one profile


# ------------------------------------------------- run-length lattice spectra


def _expanded(x):
    """x with its runs expanded into a plain head, the same tail."""
    return dx.SingularSequence(np.repeat(x.head, x.counts), x.tail)


@pytest.fixture(scope="module", params=[(2, 2000), (3, 200)],
                ids=["2-torus-R2000", "3-torus-R200"])
def shells_and_points(request):
    """A torus spectrum as shells and counts, and the same spectrum as
    one value per lattice point."""
    n, radius = request.param
    x = models.torus_spectrum(n, radius)
    return x, _expanded(x)


class TestRunLengthLatticeGate:
    # every estimator reads the run-length spectrum as it reads one
    # value per lattice point, to 1e-12 relative

    RTOL = 1e-12

    def test_same_sequence(self, shells_and_points):
        x, plain = shells_and_points
        assert x.counts is not None and plain.counts is None
        assert x.length == plain.length and x.head.size < plain.length / 10
        ends = np.cumsum(x.counts)
        np.testing.assert_array_equal(x.at(ends), plain.head[ends - 1])

    def test_dixmier(self, shells_and_points):
        x, plain = shells_and_points
        a, b = dx.dixmier_estimate(x), dx.dixmier_estimate(plain)
        assert a.status == b.status == "Converged"
        assert a.value == pytest.approx(b.value, rel=self.RTOL)
        np.testing.assert_allclose(a.raw_series[1], b.raw_series[1],
                                   rtol=self.RTOL, atol=0)
        # the residual band is a difference of alphas near 1
        assert a.oscillation == pytest.approx(b.oscillation,
                                              abs=self.RTOL * a.value)

    def test_log_average_inside_and_at_the_ends_of_runs(self,
                                                        shells_and_points):
        x, plain = shells_and_points
        ends = np.cumsum(x.counts)
        ks = np.unique(np.concatenate([ends[1::997], ends[1::997] - 1,
                                       [1, 2, 3, x.length]]))
        np.testing.assert_allclose(dx.log_average(x, ks),
                                   dx.log_average(plain, ks),
                                   rtol=self.RTOL, atol=0)

    def test_zeta(self, shells_and_points):
        x, plain = shells_and_points
        a = dx.zeta_residue_estimate(x)
        b = dx.zeta_residue_estimate(plain)
        assert a.status == b.status
        assert a.value == pytest.approx(b.value, rel=self.RTOL)
        # the head on one value per point plus the Weyl tail's sum
        n = int(round(-2.0 * math.log(x.head[1]) / math.log(2.0)))
        radius = 2000 if n == 2 else 200
        s = 1.0 + 1.0 / 50.0
        want = (kernels.power_sum(plain.head, s)
                + sequences.tail_sum(x.tail.powered(s), x.length + 1))
        got = dx.power_trace(dx.torus_spectrum(n, radius), s)
        assert got == pytest.approx(want, rel=self.RTOL)

    @pytest.mark.parametrize("smoothing,schedule", [
        ("raw", (1e4, 1e5, 1e6)), ("cesaro", (2.0, 4.0)),
    ])
    def test_heat(self, shells_and_points, smoothing, schedule):
        x, plain = shells_and_points
        a = dx.heat_estimate(x, schedule, 1.0, smoothing)
        b = dx.heat_estimate(plain, schedule, 1.0, smoothing)
        assert a.status == b.status
        np.testing.assert_allclose(a.raw_series[1], b.raw_series[1],
                                   rtol=self.RTOL, atol=0)

    def test_norm_and_ideal_membership(self, shells_and_points):
        x, plain = shells_and_points
        a = dx.ideal_membership(x, ps=(1.0, 2.0))
        b = dx.ideal_membership(plain, ps=(1.0, 2.0))
        for field in ("norm_1_inf", "riesz_proxy", "z1_norm"):
            assert getattr(a, field) == pytest.approx(getattr(b, field),
                                                      rel=self.RTOL)
        for field in ("in_m1inf", "in_weak_l1", "witness_weak_l1",
                      "in_u1inf", "witness_u1inf", "weak_lp", "window",
                      "fitted_exponents"):
            assert getattr(a, field) == getattr(b, field)


class TestRunLengthLatticePaths:
    def test_fitted_membership_reads_runs_without_expanding(self,
                                                            monkeypatch):
        # no tail: the windowed fit reads values at 96 indices
        x = models.torus_spectrum(2, 300)
        bare = dx.SingularSequence(x.head, None, x.counts)
        want = dx.ideal_membership(_expanded(bare), ps=(1.0,))

        def refuse(head, counts):
            raise AssertionError("runs expanded")

        monkeypatch.setattr(sequences, "_expand_runs", refuse)
        got = dx.ideal_membership(bare, ps=(1.0,))
        assert got.window == want.window
        np.testing.assert_allclose(got.fitted_exponents,
                                   want.fitted_exponents, rtol=1e-12)
        assert got.witness_weak_l1 == pytest.approx(want.witness_weak_l1,
                                                    rel=1e-12)
        assert got.norm_1_inf == pytest.approx(want.norm_1_inf, rel=1e-12)
        # the bare-head zeta guard reads the last value the same way
        assert (dx.zeta_residue_estimate(bare).status
                == dx.zeta_residue_estimate(_expanded(bare)).status)

    def test_sublattice_product_zeta_on_shells(self):
        # the even sublattice of Z^2 as stride-2 shells of the coarse
        # lattice, against one value per point
        model = dx.torus_spectrum(2, 400)
        got = dx.product_zeta_sequence(dx.SublatticeProjection(2), model)
        keys, counts = models._shells(2, 200)
        w = np.repeat(4.0 * keys + 1.0, counts)
        for k, v in zip(*got.raw_series):
            q = 1.0 + 1.0 / k
            want = (kernels.power_sum(w, -q) + sequences.tail_sum(
                model.tail.powered(q), model.length + 1) / 4.0) / k
            assert v == pytest.approx(want, rel=1e-12)
        # bitwise; 1.167e-4 relative off pi/4
        assert got.value == 0.7853065134711181

    def test_three_torus_at_radius_1000(self, monkeypatch):
        # 4.19e9 lattice points on 833,337 shells, under the default
        # budget: no path held one value per point before
        monkeypatch.delenv("DIXLAB_BUDGET_MB", raising=False)
        radius = 1000
        x = dx.torus_spectrum(3, radius)
        assert x.head.size == 833_337
        # sum over the columns (a, b) of the 2c + 1 points on each
        m2 = np.arange(-radius, radius + 1, dtype=np.int64) ** 2
        rest = radius * radius - (m2[:, None] + m2[None, :])
        rest = rest[rest >= 0]
        c = np.sqrt(rest.astype(np.float64)).astype(np.int64)
        c -= c * c > rest
        c += (c + 1) * (c + 1) <= rest
        assert x.length == int(np.sum(2 * c + 1)) == 4_188_781_437
        target = 4.0 * math.pi / 3.0
        for est, tol in ((dx.dixmier_estimate(x), 1e-4),
                         (dx.zeta_residue_estimate(x), 1e-3),
                         (dx.heat_estimate(x, (1e4, 1e5, 1e6)), 1e-3)):
            assert est.status == "Converged"
            assert est.value == pytest.approx(target, rel=tol)

    def test_no_reader_expands_the_runs(self, monkeypatch):
        # 1.13e8 values on 75,004 runs: 863 MB expanded, over the budget
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "200")
        x = dx.torus_spectrum(3, 300)
        assert x.head.size == 75_004 and x.length > 10**8
        with pytest.raises(dx.BudgetError):
            x.values
        for method in ("dixmier", "zeta", "heat_raw", "heat_cesaro"):
            estimators.METHODS[method](x, estimators.ZETA_SCHEDULE,
                                       estimators.HEAT_SCHEDULE)
        dx.norm_1_inf(x)
        dx.riesz_seminorm_proxy(x)
        dx.zeta_norm_z1(x)
        dx.ideal_membership(x, ps=(1.0, 2.0))
        assert dx.submajorizes(x, x)
        dx.holder_check(x, x, 2.0)
        dx.measurability_report(x)
        # tilde_mu returns one value per index by contract
        with pytest.raises(dx.BudgetError):
            dx.tilde_mu(x, x, x, x)


@pytest.mark.parametrize("call,error,match", [
    (lambda: dx.connes_rhs({(0,): 1.0}, 1), TypeError,
     "first argument must be a FourierMultiplier"),
    (lambda: dx.connes_rhs(dx.FourierMultiplier({(0,): 1.0}), 2),
     ValueError, "multiplier dimension 1 != n=2"),
    (lambda: models.cube_basis(2, -1), ValueError,
     "cube halfwidth must be >= 0"),
    (lambda: dx.FourierMultiplier({(0,): 1.0, (0, 0): 1.0}), ValueError,
     "mixed key dimensions"),
    (lambda: dx.FourierMultiplier({}), ValueError,
     "at least one coefficient"),
    (lambda: models.singular_values(np.ones((2, 3))), ValueError,
     "need a square dense matrix"),
    (lambda: models.expectation_sequence(dx.FourierMultiplier({(0,): 1.0})),
     ValueError, "need a basis length"),
    (lambda: dx.NCTorusElement({(0, 0): math.nan}, 0.0), ValueError,
     "coefficients must be finite"),
])
def test_refusal_names_its_rule(call, error, match):
    with pytest.raises(error, match=match):
        call()
