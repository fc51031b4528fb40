import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from dixlab import maps


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _random_step(seed, n=40, lo=0.0, kind="step"):
    r = _rng(seed)
    b = np.sort(r.random(n) * 50.0) + lo
    b[0] = lo
    vals = r.random(n) * 4.0 - 1.0
    return maps.PiecewiseFunction(
        kind, b, vals, lo, float(b[-1] + 1.0 + r.random()), float(vals[-1])
    )


class TestPiecewiseValidation:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            maps.PiecewiseFunction(
                "step", np.array([0.0, 2.0, 1.0]), np.zeros(3), 0.0, 5.0, 0.0
            )

    def test_first_breakpoint_pins_domain_start(self):
        with pytest.raises(ValueError):
            maps.PiecewiseFunction(
                "step", np.array([0.5, 1.0]), np.zeros(2), 0.0, 5.0, 0.0
            )

    def test_step_horizon_strictly_past_last_knot(self):
        with pytest.raises(ValueError):
            maps.PiecewiseFunction(
                "step", np.array([0.0, 1.0]), np.zeros(2), 0.0, 1.0, 0.0
            )

    def test_evaluate_tail_and_left_limit(self):
        f = maps.PiecewiseFunction(
            "step", np.array([0.0, 2.0]), np.array([1.0, 5.0]), 0.0, 4.0,
            -3.0,
        )
        assert maps.evaluate(f, 1.0) == 1.0
        assert maps.evaluate(f, 2.0) == 5.0
        assert maps.evaluate(f, 3.999) == 5.0
        assert maps.evaluate(f, 4.0) == -3.0  # tail constant past horizon
        assert maps.evaluate(f, 100.0) == -3.0

    @pytest.mark.parametrize("tail", [math.nan, math.inf, -math.inf])
    def test_non_finite_tail_value_rejected(self, tail):
        # a NaN tail read sup_norm() 1.0 and evaluated to NaN past the
        # horizon
        with pytest.raises(ValueError, match="tail_value"):
            maps.PiecewiseFunction("step", np.array([0.0]),
                                   np.array([1.0]), 0.0, 1.0, tail)

    def test_evaluate_rejects_non_finite_points(self):
        # NaN passed the domain_start guard and read the last value
        f = maps.floor_embed(np.arange(1.0, 21.0))
        for t in (math.nan, math.inf, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="finite"):
                maps.evaluate(f, t)


class TestIntegration:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_integral_matches_quadrature(self, seed):
        f = _random_step(seed)
        t0 = f.domain_start + 0.3
        t1 = f.horizon - 0.2
        want, _ = sci_integrate.quad(
            lambda t: maps.evaluate(f, t), t0, t1, limit=300,
            points=f.breakpoints[
                (f.breakpoints > t0) & (f.breakpoints < t1)
            ],
        )
        assert maps.integral(f, t0, t1) == pytest.approx(want, rel=1e-9)

    def test_integral_equals_the_per_piece_sum(self):
        # reference: one piece at a time, endpoint values read singly;
        # the vectorized pass must agree bit for bit
        def per_piece(f, t0, t1):
            cuts = [b for b in f.breakpoints if t0 < b < t1]
            if t0 < f.horizon < t1:
                cuts.append(f.horizon)
            grid = sorted({t0, t1, *cuts})
            parts = []
            for a, b in zip(grid[:-1], grid[1:]):
                va = vb = f.tail_value
                if a < f.horizon:
                    va = vb = float(maps._raw_values(f, np.float64(a)))
                    if f.kind == "linear":
                        vb = float(maps._raw_values(f, np.float64(b)))
                parts.append((vb + va) * 0.5 * (b - a))
            return math.fsum(parts)

        for seed in (1, 2, 3):
            for kind in ("step", "linear"):
                # a tail apart from the last value shows where it starts
                f = dataclasses.replace(_random_step(seed, kind=kind),
                                        tail_value=7.5)
                ts = np.sort(_rng(seed).random(6) * (f.horizon + 5.0))
                for t0 in ts:
                    for t1 in ts[ts >= t0]:
                        assert maps.integral(f, t0, t1) == per_piece(
                            f, float(t0), float(t1))

    def test_cumulative_matches_pointwise_integral(self):
        f = _random_step(7)
        ts = np.linspace(f.domain_start, f.horizon, 113)
        got = maps.cumulative_integral(f, ts)
        want = [maps.integral(f, f.domain_start, t) for t in ts]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_non_finite_bounds_rejected(self):
        # integral(f, 0, nan) returned nan; the cumulative forms let
        # NaN past their range checks the same way
        f = maps.floor_embed(np.arange(1.0, 21.0))
        for t0, t1 in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                maps.integral(f, t0, t1)
        with pytest.raises(ValueError):
            maps.cumulative_integral(f, np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            maps.log_cesaro_window(f, 1.0, math.nan)

    def test_linear_integral_exact_trapezoid(self):
        b = np.array([0.0, 1.0, 3.0])
        v = np.array([0.0, 2.0, 0.0])
        f = maps.PiecewiseFunction("linear", b, v, 0.0, 3.0, 0.0)
        assert maps.integral(f, 0.0, 3.0) == pytest.approx(3.0, abs=1e-15)

    def test_log_cesaro_window_matches_quadrature(self):
        f = _random_step(11)
        t0, t1 = 5.0, 9.0

        def inner(s):
            return maps.integral(f, 0.0, s) / s

        want, _ = sci_integrate.quad(inner, t0, t1, limit=200)
        got = maps.log_cesaro_window(f, t0, t1)
        assert got == pytest.approx(want, rel=1e-9)
        assert maps.log_cesaro_window(f, t0, t0) == 0.0


class TestEmbeddingsAndRestriction:
    def test_floor_embed_restrict_identity(self):
        a = _rng(3).random(50) * 3.0
        assert np.array_equal(maps.restrict(maps.floor_embed(a)), a)

    def test_linear_embed_restrict_identity(self):
        a = _rng(4).random(50) * 3.0
        assert np.array_equal(maps.restrict(maps.linear_embed(a)), a)

    def test_floor_embed_is_right_continuous_step(self):
        a = np.array([2.0, 7.0, 1.0])
        f = maps.floor_embed(a)
        assert maps.evaluate(f, 0.999) == 2.0
        assert maps.evaluate(f, 1.0) == 7.0

    def test_window_avg_exact_on_step_data(self):
        f = maps.floor_embed(_rng(5).random(30))
        E = maps.window_avg(f)
        for t in (0.0, 0.25, 3.7, 11.5, 28.9):
            want = maps.unit_window_integral(f, t)
            assert maps.evaluate(E, t) == pytest.approx(want, abs=1e-13)

    def test_window_avg_knot_exact_on_linear_data(self):
        f = maps.linear_embed(_rng(6).random(30))
        E = maps.window_avg(f)
        for t in E.breakpoints[:-1]:
            want = maps.unit_window_integral(f, float(t))
            assert maps.evaluate(E, float(t)) == pytest.approx(want,
                                                               abs=1e-13)

    def test_window_sequence_matches_unit_integrals(self):
        f = maps.floor_embed(_rng(8).random(20))
        got = maps.window_sequence(f, 19)
        want = [maps.unit_window_integral(f, float(k)) for k in range(19)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_window_sequence_reaches_the_horizon(self):
        # 20 values hold 20 full windows, the last one ending at 20
        a = _rng(8).random(20)
        f = maps.floor_embed(a)
        np.testing.assert_allclose(maps.window_sequence(f, 20), a,
                                   rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(maps.window_sequence(f, 19, start=1),
                                   a[1:], rtol=1e-12, atol=1e-13)
        for count, start in ((21, 0), (20, 1)):
            with pytest.raises(ValueError, match="past the horizon"):
                maps.window_sequence(f, count, start)


class TestContinuousMaps:
    def test_shift_cont_is_exact_translation(self):
        for kind in ("step", "linear"):
            f = _random_step(9, kind=kind)
            g = maps.shift_cont(f, 4.5)
            assert g.kind == kind
            # knot values are f's own, never re-read at (b - a) + a
            kept = g.values.size - 1
            assert np.array_equal(g.values[1:], f.values[-kept:])
            for t in (f.domain_start + 0.05, 3.71, 17.3):
                if t + 4.5 < f.horizon:
                    want = maps.evaluate(f, t + 4.5)
                    if kind == "step":
                        assert maps.evaluate(g, t) == want
                    else:  # (t - (b - a)) and ((t + a) - b) may round apart
                        assert maps.evaluate(g, t) == pytest.approx(
                            want, rel=1e-12, abs=1e-12)

    def test_dilate_cont_rescales_argument(self):
        # doubling is exact, so linear interpolation commutes with it
        for kind in ("step", "linear"):
            f = _random_step(10, kind=kind)
            g = maps.dilate_cont(f, 2.0)
            assert g.kind == kind
            for t in (0.1, 5.3, 20.7):
                if t / 2.0 < f.horizon:
                    assert maps.evaluate(g, t) == maps.evaluate(f, t / 2.0)

    def test_map_parameters_must_be_finite(self):
        # NaN slipped past the a <= 0 guards; an infinite power exponent
        # returned a one-knot function
        f = maps.linear_embed(np.arange(1.0, 21.0))
        for op in (maps.shift_cont, maps.dilate_cont, maps.power_cont):
            for a in (math.nan, math.inf):
                with pytest.raises(ValueError, match="positive and finite"):
                    op(f, a)

    def test_cesaro_cont_matches_discrete_at_integers(self):
        a = _rng(11).random(64)
        f = maps.floor_embed(a)
        ca = maps.cesaro_discrete(a)
        for n in (1, 7, 31, 64):
            got = maps.cesaro_cont_at(f, float(n))
            assert got == pytest.approx(float(ca[n - 1]), rel=1e-13)
        assert maps.cesaro_cont_at(f, 0.0) == a[0]  # the limit at 0
        # one unit: no knot past 0 and no geometric fill
        g = maps.cesaro_cont(maps.floor_embed([5.0]))
        assert (g.breakpoints.tolist(), g.values.tolist(), g.tail_value) == (
            [0.0], [5.0], 5.0)

    def test_cesaro_cont_function_knot_exact(self):
        f = maps.linear_embed(_rng(12).random(40))
        C = maps.cesaro_cont(f)
        for t in C.breakpoints[1:]:
            assert maps.evaluate(C, float(t)) == pytest.approx(
                maps.cesaro_cont_at(f, float(t)), abs=1e-12
            )
        assert C.tail_value == pytest.approx(
            maps.cesaro_cont_at(f, f.horizon), abs=1e-12
        )

    def test_power_cont_exact_on_steps(self):
        f = _random_step(13)
        g = maps.power_cont(f, 2.0)
        for t in (1.7, 4.4, 6.9):
            if t * t < f.horizon and t >= g.domain_start:
                assert maps.evaluate(g, t) == maps.evaluate(f, t * t)

    def test_power_cont_resamples_linear_data(self):
        # f(t) = t on [0, 40): P_2 f(t) = t^2 at every knot of the
        # geometric resample, and the result is flagged
        f = maps.linear_embed(np.arange(40.0))
        g = maps.power_cont(f, 2.0)
        assert g.kind == "linear" and "geometric resample" in g.note
        assert g.horizon == pytest.approx(math.sqrt(40.0), rel=1e-15)
        np.testing.assert_allclose(g.values, g.breakpoints**2, rtol=1e-12)
        ratios = g.breakpoints[2:] / g.breakpoints[1:-1]
        assert float(np.max(ratios)) <= maps.RESAMPLE_RATIO * (1 + 1e-12)


class TestConjugation:
    def test_log_exp_round_trip_on_steps(self):
        a = _rng(14).random(48) + 0.25
        f = maps.floor_embed(a)
        g = maps.exp_conjugate(maps.log_conjugate(f))
        for t in (0.4, 7.25, 31.8, 46.6):
            assert maps.evaluate(g, t) == maps.evaluate(f, t)

    def test_log_exp_conjugates_of_linear_data(self):
        # f(t) = t is exact linear data: exp_conjugate reads it at e^u,
        # log_conjugate reads 0.5 u at log t, and both stay knot-exact
        f = maps.PiecewiseFunction("linear", np.arange(1.0, 41.0),
                                   np.arange(1.0, 41.0), 1.0, 40.0, 40.0)
        g = maps.exp_conjugate(f)
        assert g.kind == "linear"
        assert g.note == "knot-exact log reparametrization"
        assert g.horizon == pytest.approx(math.log(40.0), rel=1e-15)
        np.testing.assert_allclose(g.values, np.exp(g.breakpoints),
                                   rtol=1e-13)
        h = maps.log_conjugate(maps.linear_embed(np.arange(5.0) * 0.5))
        assert h.kind == "linear" and h.domain_start == 1.0
        assert h.horizon == pytest.approx(math.exp(5.0), rel=1e-15)
        inside = h.breakpoints < math.exp(4.0)
        np.testing.assert_allclose(h.values[inside],
                                   0.5 * np.log(h.breakpoints[inside]),
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("conjugate,start", [
        (maps.exp_conjugate, 1.0), (maps.log_conjugate, 0.0)])
    def test_empty_domain_is_refused_by_name(self, conjugate, start):
        # a linear function whose one knot is its horizon lives on
        # [start, start): the refusal names that domain, not arguments
        # the caller never passed
        f = maps.PiecewiseFunction("linear", [start], [2.0], start, start,
                                   0.0)
        with pytest.raises(ValueError, match=r"domain \[%g, %g\) is empty"
                           % (start, start)):
            conjugate(f)

    def test_conjugated_shift_is_dilation(self):
        # log-domain translation by c acts as t -> t * e^c
        a = _rng(15).random(200) + 0.5
        f = maps.PiecewiseFunction(
            "step", np.arange(1.0, 201.0), a, 1.0, 201.0, float(a[-1])
        )
        c = math.log(2.0)
        g = maps.conjugate_map(maps.shift_cont, f, c)
        for t in (3.3, 21.6, 77.7):
            if 2.0 * t < f.horizon and t < g.horizon:
                assert maps.evaluate(g, t) == pytest.approx(
                    maps.evaluate(f, 2.0 * t), abs=1e-12
                )


class TestCommutatorDefects:
    def test_shift_embed_defect_is_exactly_zero(self):
        for embed in ("floor_embed", "linear_embed"):
            for seed in range(10):
                a = _rng(seed).random(300) * 2.0
                d = maps.commutator_defect(("shift", embed), a,
                                           t=111.3, j=5)
                assert d == 0.0

    def test_shift_window_defect_is_exactly_zero(self):
        for seed in range(10):
            f = maps.floor_embed(_rng(seed).random(300) * 2.0)
            d = maps.commutator_defect(("shift", "window_restrict"), f,
                                       t=97, j=4)
            assert d == 0.0

    @pytest.mark.parametrize("pair", [
        ("cesaro", "floor_embed"),
        ("cesaro", "linear_embed"),
    ])
    def test_cesaro_embed_defect_envelope(self, pair):
        t = 100.0
        for seed in range(10):
            a = _rng(seed).random(128) * 2.0
            f_sup = float(np.max(np.abs(a)))
            d = maps.commutator_defect(pair, a, t=t)
            assert d <= 3.0 * f_sup / t

    def test_cesaro_window_defect_envelope(self):
        t = 100
        for seed in range(10):
            f = maps.floor_embed(_rng(seed).random(128) * 2.0)
            d = maps.commutator_defect(("cesaro", "window_restrict"), f, t=t)
            assert d <= 3.0 * f.sup_norm() / t

    def test_window_defects_reach_the_horizon(self):
        # on 20 values the Cesaro pair reads windows 0..n, so n = 19 is
        # the last index whatever j; the shift pair reads window n + j
        f = maps.floor_embed(_rng(3).random(20))
        cesaro = ("cesaro", "window_restrict")
        shift = ("shift", "window_restrict")
        assert maps.commutator_defect(cesaro, f, t=19) <= 3.0 / 19
        assert maps.commutator_defect(cesaro, f, t=18, j=2) <= 3.0 / 18
        assert maps.commutator_defect(shift, f, t=17, j=2) == 0.0
        for pair, n, j in ((cesaro, 20, 1), (shift, 18, 2)):
            with pytest.raises(ValueError, match="past the horizon"):
                maps.commutator_defect(pair, f, t=n, j=j)

    def test_window_indices_must_be_integers(self):
        # t = -0.5 read index 0, t = 18.9 index 18, and a count of 2.5
        # returned 3 windows; an integral float such as 1e2 still passes
        f = maps.floor_embed(_rng(3).random(128))
        for pair in (("cesaro", "window_restrict"),
                     ("shift", "window_restrict")):
            for t in (-0.5, 18.9):
                with pytest.raises(ValueError, match="integer"):
                    maps.commutator_defect(pair, f, t=t)
            assert maps.commutator_defect(pair, f, t=1e2) == \
                maps.commutator_defect(pair, f, t=100)
        with pytest.raises(ValueError, match="integer"):
            maps.window_sequence(f, 2.5)
        np.testing.assert_array_equal(maps.window_sequence(f, 1e2),
                                      maps.window_sequence(f, 100))

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            maps.commutator_defect(("shift", "nonsense"), np.ones(4), t=1.0)


def _outcome(call):
    """The bytes of call()'s float64 value, or its ValueError's text."""
    try:
        got = call()
    except ValueError as e:
        return "ValueError: %s" % e
    return np.asarray(got, dtype=np.float64).tobytes()


def _whole_cesaro(a):
    """Running means of all of a, summed in extended precision."""
    sums = np.cumsum(np.asarray(a).astype(np.longdouble))
    return (sums / np.arange(1, len(a) + 1)).astype(np.float64)


def _whole_prefix(f):
    """int from b_0 to b_i at every breakpoint of f."""
    b, v = f.breakpoints, f.values
    w = v[:-1] if f.kind == "step" else 0.5 * (v[:-1] + v[1:])
    return np.concatenate([[0.0], np.cumsum(w * np.diff(b))])


def _whole_cumulative(f, ts):
    """int from 0 to each t, over every piece of f."""
    b, v = f.breakpoints, f.values
    A = _whole_prefix(f)
    idx = np.searchsorted(b, ts, side="right") - 1
    if f.kind == "step":
        local = v[idx] * (ts - b[idx])
    else:
        local = 0.5 * (v[idx] + maps._raw_values(f, ts)) * (ts - b[idx])
    return A[idx] + local


def _whole_log_window(f, t0, t1):
    """int_t0^t1 (1/s) int_0^s f, every piece of f read and masked."""
    b, v = f.breakpoints, f.values
    A = _whole_prefix(f)
    ends = np.concatenate([b[1:], [f.horizon]])
    v_end = v if f.kind == "step" else np.concatenate([v[1:], [v[-1]]])
    width = ends - b
    slope = np.where(width > 0,
                     (v_end - v) / np.where(width > 0, width, 1.0), 0.0)
    lo, hi = np.maximum(b, t0), np.minimum(ends, t1)
    m = hi > lo
    if not np.any(m):
        return 0.0
    sa, va, sl, Ai, lo, hi = b[m], v[m], slope[m], A[m], lo[m], hi[m]
    c0 = Ai - va * sa + 0.5 * sl * sa * sa
    parts = (va - sl * sa) * (hi - lo) + 0.5 * (0.5 * sl) * (hi * hi - lo * lo)
    logs = np.zeros_like(parts)
    nz = c0 != 0.0
    logs[nz] = c0[nz] * (np.log(hi[nz]) - np.log(lo[nz]))
    return float(np.sum(parts + logs))


def _whole_defect(pair, data, t, j=1):
    """commutator_defect as the maps compose on the whole data."""
    g, h = pair
    if h == "window_restrict":
        if g == "shift":
            return abs(maps.unit_window_integral(data, float(t + j))
                       - maps.unit_window_integral(data, float(t) + float(j)))
        windows = np.diff(_whole_cumulative(data, np.arange(t + 2.0)))
        return abs(_whole_log_window(data, float(t), float(t + 1))
                   - float(_whole_cesaro(windows)[t]))
    a = maps._as_bounded(data)
    embed = maps.floor_embed if h == "floor_embed" else maps.linear_embed
    if g == "shift":
        lhs = maps.evaluate(embed(maps.shift_discrete(a, j)), t)
        rhs = maps.evaluate(maps.shift_cont(embed(a), float(j)), t)
    else:
        lhs = maps.cesaro_cont_at(embed(a), t)
        rhs = maps.evaluate(embed(_whole_cesaro(a)), t)
    return abs(lhs - rhs)


class TestDefectReadsItsPrefix:
    # commutator_defect composes the maps on the prefix its point reads;
    # every defect must be bitwise the one of the whole data

    SEQUENCE_PAIRS = [p for p in sorted(maps._PAIRS)
                      if p[1] != "window_restrict"]
    # first interval, mid-array, the last unit intervals of 30 values,
    # the horizon and past it, a numpy float and an array of points
    TIMES = [0.0, 0.5, 1.0, 13.7, 26.0, 27.2, 28.5, 29.0, 29.5, 30.0,
             30.5, 1e9, np.float64(3.5), np.array([0.5, 12.25])]

    @pytest.mark.parametrize("pair", SEQUENCE_PAIRS)
    def test_sequence_pairs_match_the_whole_composition(self, pair):
        a = _rng(5).random(30) * 3.0
        steps = (1, 2, 5, 27, 28, 29, 30) if pair[0] == "shift" else (1, -3)
        for t in self.TIMES:
            for j in steps:
                got = _outcome(lambda: maps.commutator_defect(pair, a, t, j))
                want = _outcome(lambda: _whole_defect(pair, a, t, j))
                assert got == want, (t, j)

    @pytest.mark.parametrize("pair", SEQUENCE_PAIRS)
    def test_non_finite_data_past_the_prefix_is_refused(self, pair):
        a = _rng(6).random(30)
        a[-1] = math.nan
        with pytest.raises(ValueError, match="sequence must be finite"):
            maps.commutator_defect(pair, a, t=1.0)

    @pytest.mark.parametrize("pair", SEQUENCE_PAIRS)
    def test_bad_points_keep_their_messages(self, pair):
        a = _rng(7).random(30)
        if pair[0] == "shift":
            want = {math.nan: "evaluation point must be finite",
                    math.inf: "evaluation point must be finite",
                    -math.inf: "evaluation point must be finite",
                    -0.5: "evaluation below domain_start"}
        else:
            want = {math.nan: "cumulative integral outside the domain",
                    math.inf: "Cesaro mean past the horizon",
                    -math.inf: "cumulative integral outside the domain",
                    -0.5: "cumulative integral outside the domain"}
        for t, message in want.items():
            got = _outcome(lambda: maps.commutator_defect(pair, a, t))
            assert got == "ValueError: " + message
            assert got == _outcome(lambda: _whole_defect(pair, a, t))

    @pytest.mark.parametrize("kind", ["step", "linear"])
    @pytest.mark.parametrize("g", ["shift", "cesaro"])
    def test_window_pairs_match_the_whole_composition(self, kind, g):
        fs = [_random_step(seed, kind=kind) for seed in (1, 2)]
        fs.append(maps.floor_embed(_rng(3).random(24)) if kind == "step"
                  else maps.linear_embed(_rng(3).random(24)))
        for f in fs:
            for j in (1, 3):
                reach = j if g == "shift" else 0
                last = int(f.horizon) - 1 - reach  # the last index read
                for n in range(last + 1):
                    got = maps.commutator_defect((g, "window_restrict"), f,
                                                 n, j)
                    want = _whole_defect((g, "window_restrict"), f, n, j)
                    assert np.float64(got).tobytes() == \
                        np.float64(want).tobytes(), (n, j)
                with pytest.raises(ValueError, match="past the horizon"):
                    maps.commutator_defect((g, "window_restrict"), f,
                                           last + 1, j)

    @pytest.mark.parametrize("kind", ["step", "linear"])
    def test_window_maps_read_their_pieces_only(self, kind):
        # the cuts of integral, the cumulative integral and the log
        # window against their every-piece forms
        f = _random_step(4, kind=kind)
        b = f.breakpoints
        for t0, t1 in ((0.0, 0.0), (0.0, 1.0), (b[3], b[4]), (b[3], b[9]),
                       (7.3, 7.3), (b[-1] - 0.5, f.horizon)):
            cuts = b[(b > t0) & (b < t1)]
            grid = np.unique(np.concatenate([[t0, t1], cuts]))
            va = maps._raw_values(f, grid[:-1])
            vb = va if kind == "step" else maps._raw_values(f, grid[1:])
            assert maps.integral(f, t0, t1) == math.fsum(
                (vb + va) * 0.5 * (grid[1:] - grid[:-1]))
            assert np.float64(maps.log_cesaro_window(f, t0, t1)).tobytes() \
                == np.float64(_whole_log_window(f, t0, t1)).tobytes()
        ts = np.array([0.0, b[2], 0.5 * (b[2] + b[3]), b[-1], f.horizon])
        np.testing.assert_array_equal(
            maps.cumulative_integral(f, ts).view(np.int64),
            _whole_cumulative(f, ts).view(np.int64))


class TestOscillationAndAlmostConvergence:
    def test_oscillation_at_a_jump(self):
        f = maps.floor_embed(np.array([1.0, 4.0, 2.0]))
        assert maps.oscillation_K(f, 0.5) == pytest.approx(3.0)
        assert maps.oscillation_K(f, 1.5) == pytest.approx(2.0)
        # constant piece: no oscillation inside [1, 2)
        assert maps.oscillation_K(f, 1.0) == 0.0

    def test_oscillation_of_linear_data(self):
        # knots 0, 1, 2 with values 0, 2, 1: on [0.5, 1.5) the peak is
        # the knot at 1 (1.0 above f(0.5) = 1); at 1.5 the window runs
        # past the horizon 3 - the linear end value 1 and the tail 5
        f = maps.PiecewiseFunction("linear", np.array([0.0, 1.0, 2.0]),
                                   np.array([0.0, 2.0, 1.0]), 0.0, 3.0, 5.0)
        assert maps.oscillation_K(f, 0.5) == pytest.approx(1.0)
        assert maps.oscillation_K(f, 2.5) == pytest.approx(4.0)

    def test_dilation_repeats_each_entry(self):
        np.testing.assert_array_equal(
            maps.dilate_discrete([3.0, 1.0], 3), [3.0] * 3 + [1.0] * 3)
        with pytest.raises(ValueError, match="positive integer"):
            maps.dilate_discrete([1.0], 0)

    def test_oscillation_domain_guard(self):
        f = maps.floor_embed(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            maps.oscillation_K(f, 2.0)

    def test_alternating_sequence_is_almost_convergent(self):
        a = np.where(np.arange(4096) % 2 == 0, 1.0, -1.0)
        f = maps.floor_embed(a)
        passed, profile = maps.almost_convergence_test(f, (64, 512, 2048))
        assert passed
        assert profile[-1] <= 1e-2

    def test_log_oscillation_is_not_almost_convergent(self):
        n = np.arange(1, 20001, dtype=np.float64)
        a = np.sin(np.log(n))
        f = maps.floor_embed(a)
        passed, profile = maps.almost_convergence_test(f, (256, 2048, 16384))
        assert not passed
        assert profile[-1] > 1e-2


def _from_zero():
    return maps.floor_embed(np.arange(1.0, 21.0))


def _from_one():
    return maps.PiecewiseFunction("step", np.array([1.0, 2.0]),
                                  np.array([1.0, 2.0]), 1.0, 3.0, 0.0)


@pytest.mark.parametrize("call,match", [
    (lambda: maps.PiecewiseFunction("cubic", np.array([0.0]),
                                    np.array([1.0]), 0.0, 1.0, 0.0),
     "kind must be 'step' or 'linear'"),
    (lambda: maps.PiecewiseFunction("step", np.array([0.0, 1.0]),
                                    np.array([1.0]), 0.0, 2.0, 0.0),
     "matching 1-d arrays"),
    (lambda: maps.PiecewiseFunction("step", np.array([0.5]),
                                    np.array([1.0]), 0.5, 2.0, 0.0),
     "domain_start must be 0 or 1"),
    (lambda: maps.PiecewiseFunction("step", np.array([0.0]),
                                    np.array([math.nan]), 0.0, 1.0, 0.0),
     "breakpoints and values must be finite"),
    (lambda: maps.evaluate(_from_one(), 0.5), "below domain_start"),
    (lambda: maps.integral(_from_zero(), 2.0, 1.0),
     "reversed integration range"),
    (lambda: maps.integral(_from_one(), 0.5, 2.0),
     "integration below domain_start"),
    (lambda: maps.cesaro_cont_at(_from_one(), 2.0), "needs domain_start 0"),
    (lambda: maps.cesaro_cont_at(_from_zero(), 21.0), "past the horizon"),
    (lambda: maps.log_cesaro_window(_from_one(), 1.0, 2.0),
     "needs domain_start 0"),
    (lambda: maps.floor_embed([]), "nonempty 1-d sequence"),
    (lambda: maps.floor_embed([math.nan]), "sequence must be finite"),
    (lambda: maps.shift_discrete([1.0, 2.0], 0), "positive integer"),
    (lambda: maps.shift_discrete([1.0, 2.0], 2), "exhausts the sequence"),
    (lambda: maps.linear_embed([1.0]), "at least two entries"),
    (lambda: maps.restrict(maps.PiecewiseFunction(
        "linear", np.array([1.0]), np.array([1.0]), 1.0, 1.0, 0.0)),
     "no integer sample"),
    (lambda: maps.window_avg(maps.floor_embed([1.0])),
     "too short for a unit window"),
    (lambda: maps.shift_cont(_from_zero(), 20.0), "exhausts the domain"),
    (lambda: maps.dilate_cont(_from_one(), 2.0), "domain_start 0"),
    (lambda: maps.cesaro_cont(_from_one()), "needs domain_start 0"),
    (lambda: maps.exp_conjugate(_from_zero()), "needs domain_start 1"),
    (lambda: maps.log_conjugate(_from_one()), "needs domain_start 0"),
    (lambda: maps.log_conjugate(maps.floor_embed(np.ones(701))),
     "too large to exponentiate"),
    (lambda: maps.commutator_defect(("shift", "floor_embed"), np.ones(4),
                                    t=1.0, j=0), "positive integer"),
    (lambda: maps.commutator_defect(("cesaro", "window_restrict"),
                                    np.ones(4), t=1),
     "take a piecewise function"),
    (lambda: maps.almost_convergence_test(_from_zero(), [0.0]),
     "windows must be positive"),
    (lambda: maps.almost_convergence_test(_from_zero(), [4.0, 2.0]),
     "windows must increase"),
    (lambda: maps.almost_convergence_test(_from_zero(), [4.0, 30.0]),
     "window 30 exceeds the data horizon"),
])
def test_refusal_names_its_rule(call, match):
    with pytest.raises(ValueError, match=match):
        call()
