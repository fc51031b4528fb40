import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import special
from hypothesis import given, settings, strategies as st

from dixlab import kernels, models, sequences

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


class TestBlockSums:
    # every kernel sum accumulates in blocks of _CHUNK, a multiple of
    # numpy's 8192-element reduction buffer, so it adds exactly as one
    # np.sum over the same terms
    LENGTHS = [1, kernels._CHUNK - 1, kernels._CHUNK, kernels._CHUNK + 1,
               3 * kernels._CHUNK + 5]

    @staticmethod
    def _values(n):
        return 0.5 + 0.5 * _rng(n).random(n)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_comp_sum_is_one_np_sum(self, n):
        v = self._values(n) * 10.0 ** _rng(n + 1).uniform(-8, 8, n)
        want = np.sum(v, dtype=np.longdouble)
        # also before the rounding to float64, which hides a regrouping
        got = kernels._block_sum(v)
        assert got.dtype == np.longdouble and got == want
        assert kernels.comp_sum(v) == float(want)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_power_sum_is_one_np_sum(self, n):
        v = self._values(n)
        s = 1.0 + 1.0 / 200.0
        assert kernels.power_sum(v, s) == float(
            np.sum(v ** s, dtype=np.longdouble))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_heat_sum_is_one_np_sum(self, n):
        # exponents in [1/2, 2]: no term lies below the cut
        v = _sorted_desc(self._values(n))
        for t, alpha in ((1.0, 1.0), (2.0, 0.5), (1.5, 2.0)):
            terms = np.exp(-((t * v) ** -alpha))
            assert kernels.heat_sum(v, t, alpha) == float(
                np.sum(terms, dtype=np.longdouble))


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

    @staticmethod
    def _full(values, t, alpha):
        # every positive entry evaluated, subnormal and zero terms included
        v = values[values > 0.0]
        with np.errstate(all="ignore"):
            terms = np.exp(-((t * v) ** -alpha))
        return float(np.sum(terms, dtype=np.longdouble)), terms

    @staticmethod
    def _across_band(t, alpha):
        # exponents (t*v)^-alpha from 1e-2 to 1e3, dense over 700..760:
        # normal, subnormal (708..745) and zero (past 745) terms
        xs = np.concatenate([np.geomspace(1e-2, 700.0, 2000),
                             np.linspace(700.0, 760.0, 3001),
                             np.geomspace(760.0, 1e3, 50)])
        return xs ** (-1.0 / alpha) / t

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e4])
    def test_underflow_band_matches_full_evaluation(self, t, alpha):
        v = self._across_band(t, alpha)
        want, terms = self._full(v, t, alpha)
        assert np.any((terms > 0.0) & (terms < np.finfo(np.float64).tiny))
        assert np.any(terms == 0.0)
        assert kernels.heat_sum(v, t, alpha) == pytest.approx(want, rel=1e-15)
        assert kernels.heat_sum(v, t, alpha) == pytest.approx(
            oracles.brute_heat(v, t, alpha), rel=1e-14
        )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_t_sweeps_the_band_across_a_harmonic_head(self, alpha):
        # the subnormal band (708 < (t/n)^-alpha < 745) slides over the head
        v = 1.0 / np.arange(1.0, 20_001.0)
        for n_band in (1.0, 30.0, 1000.0, 15_000.0, 40_000.0):
            t = n_band * 726.0 ** (-1.0 / alpha)
            want, _ = self._full(v, t, alpha)
            assert kernels.heat_sum(v, t, alpha) == pytest.approx(
                want, rel=1e-15
            )

    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
    def test_cut_below_the_leading_term_is_invisible(self, t):
        # exponents n/t: the cut x_lead + ln N + 64 ln 2 (about 58 + 1/t)
        # skips most of the terms a 708 cut would keep
        v = 1.0 / np.arange(1.0, 1e6 + 1.0)
        want, terms = self._full(v, t, 1.0)
        x_cut = 1.0 / t + math.log(v.size) + 64.0 * math.log(2.0)
        kept_at_708 = np.count_nonzero(terms >= math.exp(-708.0))
        assert kept_at_708 > 2 * np.count_nonzero(terms > math.exp(-x_cut))
        got = kernels.heat_sum(v, t, 1.0)
        assert abs(got - want) <= 2.0 ** -63 * want  # equal, in float64

    def test_tiny_sum_keeps_subnormal_terms(self):
        assert kernels.heat_sum([1.0], 1.0 / 720.0, 1.0) == math.exp(-720.0)
        v = np.array([1.0, 0.99, 0.5])
        want, terms = self._full(v, 1.0 / 715.0, 1.0)
        assert 0.0 < want < np.finfo(np.float64).tiny
        assert kernels.heat_sum(v, 1.0 / 715.0, 1.0) == want
        assert kernels.heat_sum([1.0], 1.0 / 760.0, 1.0) == 0.0

    def test_leading_exponent_beyond_the_float_range(self):
        # (t * max v)^-alpha overflows, or t * max v underflows to 0.0
        assert kernels.heat_sum([1e-300, 0.0], 1e-10, 2.0) == 0.0
        assert kernels.heat_sum([1e-200], 1e-200, 1.0) == 0.0

    def test_zero_entries_raise_no_warning(self):
        v = np.array([1.0, 0.5, 1e-300, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.heat_sum(v, 10.0, 1.0)
        assert got == pytest.approx(oracles.brute_heat(v[:2], 10.0, 1.0),
                                    rel=1e-14)

    @pytest.mark.parametrize("t,alpha", [(0.0, 1.0), (-1.0, 1.0),
                                         (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_t_and_alpha(self, t, alpha):
        with pytest.raises(ValueError):
            kernels.heat_sum([1.0], t, alpha)


class TestHeatSumOnSequenceHeads:
    # the kept prefix of a nonincreasing head is summed with the float
    # operations of the masked, order-agnostic sum it replaced
    HEADS = {
        # every value stored, past one chunk of the stream
        "harmonic": lambda: sequences.SingularSequence(
            1 / np.arange(1, 10**5 + 1)),
        "power_log": lambda: sequences.SingularSequence(np.sort(
            sequences.PowerLogTail(1.0, 1.0, 2.0).value(
                np.arange(2.0, 10**5 + 1)))[::-1].copy()),
        "oscillator": lambda: sequences.SingularSequence(
            oracles.osc_values(10**5)),
        "torus1": lambda: models.torus_spectrum(1, 1000),
        "torus2": lambda: models.torus_spectrum(2, 300),
        "torus3": lambda: models.torus_spectrum(3, 60),
    }

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", sorted(HEADS))
    def test_bitwise_equal_to_the_masked_sum(self, name, alpha):
        x = self.HEADS[name]()
        # leading exponents 650 and 726: the first cut keeps less than
        # 2^-900 and the sum is taken again, through the subnormal band
        edge = np.array([650.0, 726.0]) ** (-1.0 / alpha) / x.head[0]
        got = []
        for t in np.concatenate([np.geomspace(1e-3, 1e7, 25), edge]):
            want = oracles.masked_heat_sum(x.head, t, alpha, x.counts)
            got.append(kernels.heat_sum(x.head, t, alpha, x.counts))
            assert got[-1] == want, t
        tiny = np.finfo(np.float64).tiny
        assert any(0.0 < g < tiny for g in got)
        assert any(tiny <= g < 2.0 ** -900 for g in got)

    @pytest.mark.parametrize("counts", [None, [3, 4]])
    def test_empty_and_all_zero_heads(self, counts):
        assert kernels.heat_sum(np.empty(0), 1.0, 1.0) == 0.0
        x = sequences.SingularSequence(np.zeros(2), counts=counts)
        assert kernels.heat_sum(x.head, 1.0, 1.0, x.counts) == 0.0
        assert oracles.masked_heat_sum(x.head, 1.0, 1.0, x.counts) == 0.0


class TestLogAverages:
    def test_prefix_matches_brute(self):
        v = _sorted_desc(_rng(5).random(4_096))
        ks = np.array([1, 2, 10, 100, 1000, 4096], dtype=np.int64)
        got = kernels.prefix_log_average(v, ks)
        want = [oracles.brute_alpha(v, int(k)) for k in ks]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("v,counts", [([1e308, 1e308], None),
                                          ([1e308], [2])])
    def test_prefix_past_the_float_range_raises(self, v, counts):
        # alpha_1 = 1e308 / log 2 = 1.44e308, alpha_2 = 2e308 / log 3 is
        # past the float64 range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.prefix_log_average(v, [1], counts)[0] < math.inf
            with pytest.raises(ValueError, match="float64 range at k = 2"):
                kernels.prefix_log_average(v, [1, 2], counts)
            assert kernels.max_log_average(v[:1]) < math.inf
            with pytest.raises(ValueError, match="float64 range at k = 2"):
                kernels.max_log_average(v, counts)

    def test_max_matches_brute(self):
        v = _sorted_desc(_rng(6).random(2_048))
        sup = kernels.max_log_average(v)
        assert sup == pytest.approx(oracles.brute_norm_1_inf(v), rel=1e-13)

    def test_max_of_nothing_raises(self):
        with pytest.raises(ValueError, match="no log average"):
            kernels.max_log_average(np.empty(0))

    def test_prefix_at_chunk_edges_equals_one_cumsum(self):
        c = kernels._CHUNK
        v = _sorted_desc(_rng(8).random(3 * c + 17))
        ks = np.array([1, c - 1, c, c + 1, 2 * c, 2 * c + 1, v.size],
                      dtype=np.int64)
        sums = np.cumsum(v, dtype=np.longdouble)
        want = (sums[ks - 1] / np.log(1.0 + ks.astype(np.longdouble)))
        np.testing.assert_array_equal(kernels.prefix_log_average(v, ks),
                                      want.astype(np.float64))
        # a prefix that stops short of the data reads the same sums
        np.testing.assert_array_equal(
            kernels.prefix_log_average(v, ks[:4]),
            want[:4].astype(np.float64),
        )

    def test_max_equals_one_cumsum_across_chunks(self):
        c = kernels._CHUNK
        v = np.concatenate([np.full(c + 5, 1e-9), np.full(c, 1.0)])
        alpha = (np.cumsum(v, dtype=np.longdouble)
                 / np.log1p(np.arange(1, v.size + 1, dtype=np.float64)))
        i = int(np.argmax(alpha))
        assert i + 1 > c
        assert kernels.max_log_average(v) == float(alpha[i])
        # every alpha_k is 0, in every chunk
        assert kernels.max_log_average(np.zeros(2 * c + 3)) == 0.0

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
    def test_plain_pairs_match_the_integer_oracle(self, seed):
        r = _rng(seed)
        x = _sorted_desc(r.random(64))
        y = _sorted_desc(r.random(64))
        want = oracles.exact_dominates(x, y)
        assert kernels.prefix_dominates(x, y) == want

    @staticmethod
    def _assert_exact(x, y):
        """Both directions, each input plain, as runs of one, and as the
        runs its tied values make."""
        def forms(v):
            first = np.flatnonzero(np.diff(v, prepend=np.inf))
            yield v, None
            yield v, np.ones(v.size, dtype=np.int64)
            yield v[first], np.diff(np.append(first, v.size))
        for a, b in ((x, y), (y, x)):
            want = oracles.exact_dominates(a, b)
            for (va, ca), (vb, cb) in itertools.product(forms(a), forms(b)):
                assert kernels.prefix_dominates(va, vb, ca, cb) == want, (
                    a, b, ca, cb)

    def test_tied_prefix_sums_decided_exactly(self):
        # y's second partial sum, 0.5 + 2^-66, exceeds x's, 0.5 + 2^-67
        x = np.array([0.5, 2.0**-67, 2.0**-67, 2.0**-68])
        y = np.array([0.5, 2.0**-66, 2.0**-68])
        assert not kernels.prefix_dominates(x, y)
        self._assert_exact(x, y)

    def test_dyadic_split_pairs(self):
        # one value split into halves: prefix sums tie or differ by less
        # than an extended-precision ulp of the total
        r = _rng(3)
        for _ in range(300):
            m = int(r.integers(1, 8))
            x = _sorted_desc(r.random(m) * 2.0 ** r.integers(-80, 2, m))
            i = int(r.integers(m))
            y = _sorted_desc(np.append(np.delete(x, i), [x[i] / 2] * 2))
            self._assert_exact(x, y)

    def test_empty_and_zero_padded_inputs(self):
        x = _sorted_desc([3.0, 1.0, 1.0, 0.25])
        for y in (np.empty(0), np.zeros(2), x[:2], np.nextafter(x[:3], 4.0),
                  _sorted_desc([3.0, 1.0, 1.25])):
            self._assert_exact(x, y)
        self._assert_exact(np.empty(0), np.empty(0))


class TestFloatFirstPass:
    # the float64 pass decides an end only outside its error bound, and
    # hands every end to the exact pass where a sum passes the float
    # range; each pair is checked in both directions, plain and on runs,
    # with warnings raised as errors

    @staticmethod
    def _assert_exact(x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TestPrefixDominates._assert_exact(x, y)

    @staticmethod
    def _exact_pass_ends(monkeypatch, x, y, x_counts=None, y_counts=None):
        """The ends prefix_dominates hands to the exact pass (None if
        it never runs), and its verdict."""
        seen = []
        sums = kernels._prefix_sums

        def spy(values, ks, counts=None, e0=None):
            if e0 is not None:
                seen.append(ks.tolist())
            return sums(values, ks, counts, e0)

        monkeypatch.setattr(kernels, "_prefix_sums", spy)
        got = kernels.prefix_dominates(x, y, x_counts, y_counts)
        monkeypatch.undo()
        return (seen[0] if seen else None), got

    def test_values_near_the_top_of_the_float_range(self):
        # every sum of two such values overflows float64
        big = 1.7e308
        down = np.nextafter(big, 0.0)
        for x, y in (([big, big], [big, big]), ([big, big], [big, down]),
                     ([big, big, big], [big, big]), ([big], [big, 1.0]),
                     ([1.79e308] * 3, [1.79e308, 1.79e308, 1e308]),
                     ([big, 2.0**-1074], [big, 2.0**-1073])):
            self._assert_exact(np.array(x), np.array(y))

    def test_subnormal_heads(self):
        t = 2.0**-1074
        r = _rng(21)
        for _ in range(100):
            x = _sorted_desc(r.integers(0, 40, r.integers(1, 9)) * t)
            y = _sorted_desc(r.integers(0, 40, r.integers(1, 9)) * t)
            self._assert_exact(x, y)
            self._assert_exact(x, x.copy())

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gaps_either_side_of_the_bound(self, monkeypatch, sign):
        # dyadic x with sums below 4, and y = x but for its first value
        # moved by d = j 2^-51: every float64 sum is exact, so every
        # end's gap is sign * d, and the exact pass runs iff d is within
        # the bound
        x = np.array([1.0, 0.5, 0.5, 0.25, 0.125])
        runs = (np.array([1.0, 0.5, 0.25, 0.125]), np.array([1, 2, 1, 1]))
        decided = set()
        for j in range(5, 25):
            d = j * 2.0**-51
            y = x.copy()
            y[0] -= sign * d
            ends, got = self._exact_pass_ends(monkeypatch, x, y)
            assert got == (sign > 0)
            bound = (kernels._float_sums(x, None, None, 5)[1]
                     + kernels._float_sums(y, None, None, 5)[1])
            assert (ends is not None) == (d <= bound)
            decided.add(ends is None)
            self._assert_exact(x, y)
            assert kernels.prefix_dominates(runs[0], y, runs[1]) == (sign > 0)
        assert decided == {True, False}

    def test_random_pairs_never_reach_the_exact_pass(self, monkeypatch):
        # pairs drawn as the benchmark battery draws them
        converted = []
        as_ints = kernels._as_ints
        monkeypatch.setattr(kernels, "_as_ints", lambda v, e0: (
            converted.append(v.size), as_ints(v, e0))[1])
        r = _rng(23)
        for i in range(200):
            m = int(r.integers(32, 257))
            x = _sorted_desc(r.random(m) + 1e-9)
            y = _sorted_desc(x * r.uniform(0.0, 1.05, m) if i % 2 == 0
                             else r.random(m) + 1e-9)
            assert kernels.prefix_dominates(x, y) == (
                oracles.exact_dominates(x, y))
        assert converted == []

    def test_every_tied_end_reaches_the_exact_pass(self, monkeypatch):
        # self pairs tie at every compared end, dyadic splits at some
        r = _rng(24)

        def expand(values, counts):
            if counts is None:
                return values, set(range(1, values.size + 1))
            return np.repeat(values, counts), set(np.cumsum(counts).tolist())

        def exact_sums(values, n):
            s = list(itertools.accumulate(map(Fraction, values.tolist())))
            return s + s[-1:] * (n - len(s))

        for _ in range(40):
            v, c = _runs(int(r.integers(2**32)), int(r.integers(1, 30)))
            w = np.repeat(v, c)
            i = int(r.integers(w.size))
            split = _sorted_desc(np.append(np.delete(w, i), [w[i] / 2] * 2))
            for (a, ca), (b, cb), same in (((v, c), (w, None), True),
                                           ((w, None), (w, None), True),
                                           ((v, c), (v, c), True),
                                           ((w, None), (split, None), False),
                                           ((v, c), (split, None), False)):
                (ea, ends_a), (eb, ends_b) = expand(a, ca), expand(b, cb)
                n = max(ea.size, eb.size)
                ends = ends_a | ends_b
                sa, sb = exact_sums(ea, n), exact_sums(eb, n)
                tied = {k for k in ends if sa[k - 1] == sb[k - 1]}
                seen, got = self._exact_pass_ends(monkeypatch, a, b, ca, cb)
                assert got == all(p >= q for p, q in zip(sa, sb))
                assert tied <= set(seen or ())
                if same:
                    assert set(seen) == ends


class TestStreamedPrefixSums:
    # both passes of prefix_dominates read _prefix_sums chunk by chunk;
    # the sums must be those of one full cumsum wherever the ks fall

    @staticmethod
    def _ks(n):
        c = kernels._CHUNK
        edges = [e + d for e in (c, 2 * c) for d in (-1, 0, 1)]
        return np.array([1] + [k for k in edges if k < n] + [n - 1, n, n + 5],
                        dtype=np.int64)

    def test_plain_sums_equal_one_cumsum(self):
        v = _sorted_desc(_rng(12).random(2 * kernels._CHUNK + 9))
        ks = self._ks(v.size)
        want = np.cumsum(v, dtype=np.longdouble)[np.minimum(ks, v.size) - 1]
        got = kernels._prefix_sums(v, ks)
        assert got.dtype == np.longdouble
        assert (got == want).all()

    def test_run_length_sums_equal_one_cumsum(self):
        v, c = _runs(13, 2 * kernels._CHUNK + 9, max_count=4, zeros=3)
        ends = np.cumsum(c)
        ks = np.unique(np.concatenate([self._ks(int(ends[-1])),
                                       ends[kernels._CHUNK - 1:][:3]]))
        whole = np.concatenate(
            [[0], np.cumsum(v.astype(np.longdouble) * c)])
        r = np.searchsorted(ends, np.minimum(ks, ends[-1]))
        want = (whole[r] + v[r].astype(np.longdouble)
                * (np.minimum(ks, ends[-1]) - (ends[r] - c[r])))
        assert (kernels._prefix_sums(v, ks, c) == want).all()

    def test_exact_sums_count_units_of_two_to_e0(self):
        v, c = _runs(14, kernels._CHUNK + 40, max_count=3, zeros=2)
        v[-2] = 2.0 ** -1060  # a subnormal value
        w = np.repeat(v, c)
        e0 = kernels._exact_unit(v)
        units = [n << (-e0 - d.bit_length() + 1)
                 for n, d in map(float.as_integer_ratio, w.tolist())]
        want = list(itertools.accumulate(units))
        ks = self._ks(w.size)
        got = kernels._prefix_sums(v, ks, c, e0)
        assert got.tolist() == [want[min(k, w.size) - 1] for k in ks]
        got = kernels._prefix_sums(w, ks, None, e0)
        assert got.tolist() == [want[min(k, w.size) - 1] for k in ks]

    @staticmethod
    def _tiny_tail(r, n_big, n_tiny):
        # past n_big the values are some 2^-70 of the head: prefix sums
        # that differ there sit far inside the extended-precision bound,
        # so the exact pass decides every end, across chunk edges
        big = np.sort(r.uniform(0.5, 1.0, n_big))[::-1]
        tiny = np.sort(r.uniform(0.5, 1.0, n_tiny))[::-1] * 2.0 ** -70
        return np.concatenate([big, tiny])

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_plain_dyadic_split_at_a_chunk_edge(self, shift):
        c = kernels._CHUNK
        i = c + shift  # the split value, the first tiny one
        x = self._tiny_tail(_rng(15 + shift), i, c + 7)
        y = _sorted_desc(np.concatenate([np.delete(x, i), [x[i] / 2] * 2]))
        assert x.size > 2 * c
        for a, b in ((x, y), (y, x)):
            assert kernels.prefix_dominates(a, b) == (
                oracles.exact_dominates(a, b))

    def test_run_length_dyadic_split_at_a_chunk_edge(self):
        c = kernels._CHUNK
        r = _rng(18)
        i = c  # the first run of the second chunk
        v = self._tiny_tail(r, i, c + 7)
        cv = r.integers(1, 3, v.size)
        w = np.repeat(v, cv)
        j = int(cv[:i].sum())  # one entry of the first tiny run, split
        z = _sorted_desc(np.concatenate([np.delete(w, j), [w[j] / 2] * 2]))
        first = np.flatnonzero(np.diff(z, prepend=np.inf))
        y, cy = z[first], np.diff(np.append(first, z.size))
        assert v.size > c and y.size > c
        for (a, ca), (b, cb) in (((v, cv), (y, cy)), ((y, cy), (v, cv))):
            want = oracles.exact_dominates(np.repeat(a, ca),
                                           np.repeat(b, cb))
            assert kernels.prefix_dominates(a, b, ca, cb) == want


class TestShellCounts:
    @given(st.sampled_from((1, 2, 3)), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_enumeration(self, n, radius):
        norms = [sum(c * c for c in p)
                 for p in oracles.brute_lattice_points(n, radius)]
        want_keys, want_counts = np.unique(norms, return_counts=True)
        keys, counts = kernels.shell_counts(n, radius)
        np.testing.assert_array_equal(keys, want_keys)
        np.testing.assert_array_equal(counts, want_counts)

    @pytest.mark.parametrize("n,radius,dtype", [
        # (2 R + 1)^3 = 2,141,700,569 < 2^31 at R = 644, past it at 645
        (3, 644, np.int32), (3, 645, np.int64), (2, 1000, np.int32),
    ])
    def test_exact_on_both_sides_of_the_table_dtype(self, n, radius, dtype):
        assert kernels._table_dtype(n, radius) == dtype
        keys, counts = kernels.shell_counts(n, radius)
        want_keys, want_counts = oracles.int64_shell_counts(n, radius)
        assert keys.dtype == counts.dtype == np.int64
        np.testing.assert_array_equal(keys, want_keys)
        np.testing.assert_array_equal(counts, want_counts)
        assert int(counts.sum()) == oracles.ball_point_count(n, radius)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_the_ordered_pass(self, n):
        # the unordered first step, its diagonal and its last a with
        # 2 a^2 <= R^2 at every radius from 1 to 60
        for radius in range(1, 61):
            keys, counts = kernels.shell_counts(n, radius)
            want_keys, want_counts = oracles.int64_shell_counts(n, radius)
            np.testing.assert_array_equal(keys, want_keys)
            np.testing.assert_array_equal(counts, want_counts)


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


class TestHeatGammaSum:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_closes_the_log_scale_heat_mean(self, alpha):
        # Gamma(1/alpha + 1) [S(T) - S(1)] = sum_v int_1^T e^-(s v)^-alpha
        # ds / s^2, eigenvalues spread over (0, 3]
        v = _sorted_desc(3.0 * _rng(7).random(12))
        for T in (2.0, 100.0, 1e4):
            got = math.gamma(1.0 / alpha + 1.0) * (
                kernels.heat_gamma_sum(v, T, alpha)
                - kernels.heat_gamma_sum(v, 1.0, alpha))
            want = oracles.mp_log_heat_integral(v, T, alpha)
            assert got == pytest.approx(want, rel=1e-12, abs=0), T

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e4])
    def test_cut_matches_full_evaluation(self, t, alpha):
        # exponents from 1e-2 to 1e3: for alpha < 1, Q(1/alpha, x) falls
        # slower than e^-x, and the factor v makes up the difference
        v = TestHeatSum._across_band(t, alpha)
        with np.errstate(all="ignore"):
            terms = v * special.gammaincc(1.0 / alpha, (t * v) ** -alpha)
        want = float(np.sum(terms, dtype=np.longdouble))
        assert kernels.heat_gamma_sum(v, t, alpha) == pytest.approx(
            want, rel=1e-15, abs=0)

    def test_runs_zeros_and_overflow(self):
        v, c = _runs(8, 2 * kernels._CHUNK + 5, zeros=3)
        w = np.repeat(v, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t, alpha in ((1.0, 1.0), (1e3, 0.5), (1e-2, 2.0)):
                assert kernels.heat_gamma_sum(v, t, alpha, c) == (
                    pytest.approx(kernels.heat_gamma_sum(w, t, alpha),
                                  rel=1e-15))
            # t * v past the float range: x = 0 and Q = 1, the term is v
            assert kernels.heat_gamma_sum([1e300, 0.0], 1e10, 1.0) == 1e300
            assert kernels.heat_gamma_sum(np.zeros(3), 1.0, 1.0) == 0.0


def _runs(seed, n_runs, max_count=5, zeros=0):
    """Strictly decreasing positive values (then one run of zeros when
    zeros > 0) with random counts in 1..max_count."""
    r = _rng(seed)
    v = np.unique(r.random(n_runs) + 1e-6)[::-1].copy()
    c = r.integers(1, max_count + 1, v.size)
    if zeros:
        v, c = np.append(v, 0.0), np.append(c, zeros)
    return v, c


class TestRunLength:
    # a run-length input (values, counts) must sum as its expansion
    # np.repeat(values, counts) does, term for term

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sums_match_the_expansion(self, seed):
        v, c = _runs(seed, 3 * kernels._CHUNK + 11, zeros=4)
        w = np.repeat(v, c)
        assert kernels.comp_sum(v, c) == pytest.approx(kernels.comp_sum(w),
                                                       rel=1e-15)
        for s in (0.5, 1.0 + 1.0 / 200.0, 3.0):
            assert kernels.power_sum(v[:-1], s, c[:-1]) == pytest.approx(
                kernels.power_sum(w[w > 0], s), rel=1e-15)
        for t, alpha in ((1.0, 1.0), (1e3, 0.5), (1e-2, 2.0)):
            assert kernels.heat_sum(v, t, alpha, c) == pytest.approx(
                kernels.heat_sum(w, t, alpha), rel=1e-15)

    def test_counts_must_match_values(self):
        with pytest.raises(ValueError, match="counts must match values"):
            kernels.comp_sum([2.0, 1.0], [1])

    def test_counts_of_one_are_the_plain_sums(self):
        v, _ = _runs(3, 1000)
        ones = np.ones(v.size, dtype=np.int64)
        assert kernels.comp_sum(v, ones) == kernels.comp_sum(v)
        assert kernels.power_sum(v, 1.5, ones) == kernels.power_sum(v, 1.5)
        assert kernels.heat_sum(v, 2.0, 1.0, ones) == kernels.heat_sum(
            v, 2.0, 1.0)

    def test_heat_cut_uses_the_total_count(self):
        # two runs: exp(-1) once and exp(-x1) 2e6 - 1 times, x1 one unit
        # past the cut that the number of runs would give (1 + ln 2 + 64
        # ln 2); the total count puts the cut at 1 + ln(2e6) + 64 ln 2,
        # which keeps the second run, some 2e-14 of the sum
        x1 = 1.0 + math.log(2.0) + 64.0 * math.log(2.0) + 1.0
        v = np.array([1.0, 1.0 / x1])
        c = np.array([1, 2 * 10**6 - 1])
        got = kernels.heat_sum(v, 1.0, 1.0, c)
        want = kernels.heat_sum(np.repeat(v, c), 1.0, 1.0)
        assert c[1] * math.exp(-x1) > 1e-14 * want
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("seed", [4, 5])
    def test_prefix_log_average_matches_the_expansion(self, seed):
        v, c = _runs(seed, 2 * kernels._CHUNK + 7, max_count=9, zeros=3)
        w = np.repeat(v, c)
        ends = np.cumsum(c)
        ks = np.unique(np.concatenate([
            [1, 2, 3], ends[:5], ends[:5] + 1, ends[-3:], ends[-3:] - 1,
            _rng(seed).integers(1, w.size + 1, 50)]))
        np.testing.assert_allclose(kernels.prefix_log_average(v, ks, c),
                                   kernels.prefix_log_average(w, ks),
                                   rtol=1e-15, atol=0)
        # checkpoints that all sit in the first run
        np.testing.assert_allclose(
            kernels.prefix_log_average(v[:1], [1, 2], [5]),
            kernels.prefix_log_average(np.repeat(v[:1], 5), [1, 2]),
            rtol=1e-15, atol=0)

    @staticmethod
    def _brute_max(w):
        # every prefix of the expansion
        alpha = (np.cumsum(w, dtype=np.longdouble)
                 / np.log1p(np.arange(1, w.size + 1, dtype=np.float64)))
        return float(np.max(alpha))

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_max_log_average_matches_a_brute_force_scan(self, seed):
        v, c = _runs(seed, kernels._CHUNK + 300, max_count=40, zeros=7)
        # a long first run puts the maximum at a run's last index
        c[0] = 30
        got = kernels.max_log_average(v, c)
        want = self._brute_max(np.repeat(v, c))
        assert got == pytest.approx(want, rel=1e-15)

    def test_max_log_average_where_alphas_tie(self):
        # alpha_1 = 1/log 2 = 2/log 4 = alpha_3 exactly, above alpha_2
        assert kernels.max_log_average([1.0, 0.5], [1, 2]) == (
            1.0 / math.log(2.0))
        # all alphas 0, in one run and after a run of zeros
        assert kernels.max_log_average([0.0], [10**6]) == 0.0
        v, c = np.array([1e-300, 0.0]), np.array([3, 10**5])
        assert kernels.max_log_average(v, c) == self._brute_max(
            np.repeat(v, c))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_prefix_dominates_matches_exact_sums(self, seed):
        r = _rng(seed)
        x, cx = _runs(seed, int(r.integers(1, 40)), max_count=6)
        if seed % 2:
            # a damped copy of x with its own runs: near ties throughout
            y = np.unique(x * r.uniform(0.5, 1.02, x.size))[::-1].copy()
            cy = r.integers(1, 7, y.size)
        else:
            y, cy = _runs(seed + 1, int(r.integers(1, 40)), max_count=6)
        want = oracles.exact_dominates(np.repeat(x, cx), np.repeat(y, cy))
        assert kernels.prefix_dominates(x, y, cx, cy) == want
        # one side plain
        assert kernels.prefix_dominates(np.repeat(x, cx), y, None, cy) == want
        assert kernels.prefix_dominates(x, y, cx, None) == (
            oracles.exact_dominates(np.repeat(x, cx), y))

    def test_prefix_dominates_zero_pads_the_shorter_runs(self):
        x, cx = np.array([1.0]), np.array([3])
        y, cy = np.array([1.0, 0.25]), np.array([2, 4])
        assert kernels.prefix_dominates(x, y, cx, cy)  # 3 = 3 at k = 6
        assert not kernels.prefix_dominates(x, y, cx, [2, 5])  # 3 < 3.25
        # a shorter run of the same value: 2 < 3 from k = 3 on
        assert kernels.prefix_dominates(x, y[:1], cx, [2])
        assert not kernels.prefix_dominates(y[:1], x, [2], cx)
