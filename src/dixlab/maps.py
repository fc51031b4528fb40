"""Discrete/continuous averaging maps and their commutation defects.

The half-line calculus links bounded sequences to functions through the
step embedding p, the linear interpolant p_c, restriction r and the
unit window average E, while T_a (shift), D_a (dilation), P_a (power
substitution) and C (Cesaro mean) act on functions.  Everything here is
0-based: p(a) takes the value a_k on [k, k+1).

Functions live on [0, T) or [1, T).  The embeddings make [0, T) data,
and dilation, the Cesaro maps and log_conjugate need it; exp_conjugate
needs [1, T); the other maps take either.

T_a, D_a, P_a and the exp/log conjugations are one change of variables
(_substitute), exact for step data and for linear data under T_a and
D_a.  The flagged approximants, knot-exact linear interpolants whose
``note`` says so, are linear data under power_cont, exp_conjugate and
log_conjugate, cesaro_cont, and window_avg of linear data.  Defect
evaluations never go through them: they use the exact per-piece
integrators defined below.
"""

import math
from dataclasses import dataclass, field

import numpy as np

_KINDS = ("step", "linear")

# geometric refinement ratio for maps that must resample linear data
RESAMPLE_RATIO = 1.05


@dataclass(frozen=True)
class PiecewiseFunction:
    """Finite piecewise step/linear function on [domain_start, horizon).

    Step data holds values[i] on [b_i, b_{i+1}); linear data
    interpolates between (b_i, values[i]) knots and stays constant on
    [b_last, horizon).  Beyond the horizon the function equals
    tail_value (a flagged constant continuation, not real data).

    It is accepted in one pass: breakpoints that strictly increase from
    domain_start up to a finite horizon are finite too, since a NaN
    fails every comparison, and the values take one finiteness pass.
    The named checks (_reject) run only on a rejected function, in
    their fixed order, to say which rule it breaks."""

    kind: str
    breakpoints: np.ndarray
    values: np.ndarray
    domain_start: float
    horizon: float
    tail_value: float
    note: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("kind must be 'step' or 'linear'")
        b = np.ascontiguousarray(self.breakpoints, dtype=np.float64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        # the rules in the order _reject checks them
        if not (b.ndim == 1 and b.size and b.shape == v.shape
                and np.count_nonzero(b[1:] > b[:-1]) == b.size - 1
                and self.domain_start in (0.0, 1.0)
                and b[0] == self.domain_start
                and (self.horizon > b[-1] or (
                    self.kind == "linear" and self.horizon == b[-1]))
                and np.isfinite(v).all()
                and math.isfinite(self.horizon)
                and math.isfinite(self.tail_value)):
            self._reject(b, v)
        b.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "domain_start", float(self.domain_start))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "tail_value", float(self.tail_value))

    def _reject(self, b, v):
        """Raise the error of the first rule breakpoints b and values v
        break."""
        if b.ndim != 1 or b.size == 0 or b.shape != v.shape:
            raise ValueError("breakpoints/values must be matching 1-d arrays")
        if np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.domain_start not in (0.0, 1.0):
            raise ValueError("domain_start must be 0 or 1")
        if b[0] != self.domain_start:
            raise ValueError("first breakpoint must sit at domain_start")
        ok_h = self.horizon > b[-1] or (
            self.kind == "linear" and self.horizon == b[-1]
        )
        if not ok_h:
            raise ValueError("horizon must lie past the last breakpoint")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
            raise ValueError("breakpoints and values must be finite")
        if not (math.isfinite(self.horizon)
                and math.isfinite(self.tail_value)):
            raise ValueError("horizon and tail_value must be finite")

    def sup_norm(self):
        return float(max(np.max(np.abs(self.values)), abs(self.tail_value)))


def _raw_values(f, t, idx=None):
    """Piece values ignoring the horizon cutoff (t >= domain_start).

    Step: value of the piece containing t.  Linear: knot interpolation,
    constant past the last knot.  This is also the left limit at the
    horizon, which evaluate() would mask with tail_value.  idx, when
    given, is _piece_of(f, t)."""
    b, v = f.breakpoints, f.values
    if idx is None:
        idx = _piece_of(f, t)
    if f.kind == "step" or b.size == 1:
        return v[idx]
    i = np.minimum(idx, b.size - 2)
    t0, t1 = b[i], b[i + 1]
    w = (t - t0) / (t1 - t0)
    out = v[i] * (1.0 - w) + v[i + 1] * w
    return np.where(idx >= b.size - 1, v[-1], out)


def _piece_of(f, t):
    """The index of the piece [b_i, b_(i+1)) holding each t >= b_0 (the
    last piece past the last breakpoint)."""
    return np.searchsorted(f.breakpoints, t, side="right") - 1


def evaluate(f, t):
    """f(t) for scalar or array t; t below domain_start raises."""
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if not np.isfinite(t).all():
        raise ValueError("evaluation point must be finite")
    if (t < f.domain_start).any():
        raise ValueError("evaluation below domain_start")
    out = np.asarray(_raw_values(f, t), dtype=np.float64).copy()
    out[t >= f.horizon] = f.tail_value
    return float(out[0]) if scalar else out


def integral(f, t0, t1):
    """Exact integral of f over [t0, t1] (per-piece closed forms)."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("integration bounds must be finite")
    if t1 < t0:
        raise ValueError("reversed integration range")
    if t0 < f.domain_start:
        raise ValueError("integration below domain_start")
    bp = f.breakpoints  # increasing: the cuts strictly inside (t0, t1)
    cuts = bp[np.searchsorted(bp, t0, "right"):np.searchsorted(bp, t1)]
    extra = [f.horizon] if t0 < f.horizon < t1 else []
    grid = np.unique(np.concatenate([[t0, t1], cuts, extra]))
    a, b = grid[:-1], grid[1:]
    # the horizon starts the tail_value piece
    data = a < f.horizon
    va = np.where(data, _raw_values(f, a), f.tail_value)
    vb = va if f.kind == "step" else np.where(
        data, _raw_values(f, b), f.tail_value)
    return math.fsum((vb + va) * 0.5 * (b - a))


def unit_window_integral(f, t):
    """Exact value of int_t^(t+1) f."""
    return integral(f, t, t + 1.0)


def _piece_prefix(f, stop=None):
    """A[i] = int from b_0 to b_i at the first stop breakpoints (at all
    of them when stop is None): a cumsum, so A[i] does not depend on
    stop."""
    b, v = f.breakpoints[:stop], f.values[:stop]
    A = np.empty(b.size)
    A[0] = 0.0
    if f.kind == "step":
        areas = v[:-1] * np.diff(b)
    else:
        areas = 0.5 * (v[:-1] + v[1:]) * np.diff(b)
    np.cumsum(areas, out=A[1:])
    return A


def cumulative_integral(f, ts):
    """A(t) = int from domain_start to t, vectorized; ts <= horizon."""
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all((ts >= f.domain_start) & (ts <= f.horizon)):
        raise ValueError("cumulative integral outside the domain")
    b, v = f.breakpoints, f.values
    idx = _piece_of(f, ts)
    A = _piece_prefix(f, int(idx.max(initial=0)) + 1)  # the pieces read
    if f.kind == "step":
        local = v[idx] * (ts - b[idx])
    else:
        local = 0.5 * (v[idx] + _raw_values(f, ts, idx)) * (ts - b[idx])
    return A[idx] + local


def cesaro_cont_at(f, t):
    """Exact (1/t) int_0^t f; at t=0 the limit f(0)."""
    if f.domain_start != 0.0:
        raise ValueError("continuous Cesaro mean needs domain_start 0")
    if t == 0.0:
        return evaluate(f, 0.0)
    if t > f.horizon:
        raise ValueError("Cesaro mean past the horizon")
    return float(cumulative_integral(f, np.float64(t))) / t


def log_cesaro_window(f, t0, t1):
    """Exact int_t0^t1 (1/s) int_0^s f(u) du ds for t1 <= horizon.

    On each affine piece of f the inner integral A(s) is a polynomial
    of degree <= 2, so A(s)/s integrates in closed form; pieces that
    start at s=0 have A(0)=0 and no log term survives.  Only the pieces
    i0 <= i < i1 that can overlap [t0, t1] are read, and A up to them."""
    if f.domain_start != 0.0:
        raise ValueError("needs domain_start 0")
    if not 0.0 <= t0 <= t1 <= f.horizon:
        raise ValueError("bad range")
    b, v = f.breakpoints, f.values
    # piece i overlaps when it ends past t0 and starts before t1
    i0, i1 = int(_piece_of(f, t0)), int(np.searchsorted(b, t1))
    if i1 <= i0:
        return 0.0
    A = _piece_prefix(f, i1)[i0:]
    last = i1 == b.size  # the last piece ends at the horizon
    ends = np.append(b[i0 + 1:i1], f.horizon if last else b[i1])
    starts, v = b[i0:i1], v[i0:i1]
    v_end = v if f.kind == "step" else np.append(
        f.values[i0 + 1:i1], f.values[-1 if last else i1])
    width = ends - starts
    slope = np.where(width > 0, (v_end - v) / np.where(width > 0, width, 1.0), 0.0)
    lo = np.maximum(starts, t0)
    hi = np.minimum(ends, t1)
    m = hi > lo
    if not np.any(m):
        return 0.0
    sa, va, sl, Ai = starts[m], v[m], slope[m], A[m]
    lo, hi = lo[m], hi[m]
    c2 = 0.5 * sl
    c1 = va - sl * sa
    c0 = Ai - va * sa + 0.5 * sl * sa * sa
    parts = c1 * (hi - lo) + 0.5 * c2 * (hi * hi - lo * lo)
    logs = np.zeros_like(parts)
    nz = c0 != 0.0
    logs[nz] = c0[nz] * (np.log(hi[nz]) - np.log(lo[nz]))
    return float(np.sum(parts + logs))


# ------------------------------------------------------- discrete maps


def _as_bounded(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("need a nonempty 1-d sequence")
    if not np.isfinite(a).all():
        raise ValueError("sequence must be finite")
    return a


def shift_discrete(a, j):
    """Drop the first j entries (S_j)."""
    a = _as_bounded(a)
    j = int(j)
    if j < 1:
        raise ValueError("shift step must be a positive integer")
    if j >= a.size:
        raise ValueError("shift exhausts the sequence")
    return a[j:].copy()


def dilate_discrete(a, j):
    """Repeat every entry j times (D_j)."""
    a = _as_bounded(a)
    j = int(j)
    if j < 1:
        raise ValueError("dilation factor must be a positive integer")
    return np.repeat(a, j)


def cesaro_discrete(a):
    """Running means (C a)_n = (a_0 + ... + a_n) / (n+1)."""
    sums = _as_bounded(a).astype(np.longdouble)
    np.cumsum(sums, out=sums)
    sums /= np.arange(1, sums.size + 1)
    return sums.astype(np.float64)


# ------------------------------------------------------ embedding maps


def _embed(kind, a):
    """a on knots at the integers, horizon len(a), the last value held
    past it."""
    return PiecewiseFunction(
        kind, np.arange(a.size, dtype=np.float64), a, 0.0, float(a.size),
        float(a[-1]), note="tail holds the last value",
    )


def floor_embed(a):
    """Step embedding p: value a_k on [k, k+1), horizon len(a)."""
    return _embed("step", _as_bounded(a))


def linear_embed(a):
    """Interpolating embedding p_c with knots at the integers; the last
    unit interval holds the final value (truncation policy)."""
    a = _as_bounded(a)
    if a.size < 2:
        raise ValueError("linear embedding needs at least two entries")
    return _embed("linear", a)


def restrict(f):
    """Integer samples r(f)_k = f(k) inside the horizon."""
    k0 = int(math.ceil(f.domain_start))
    k1 = int(math.ceil(f.horizon)) - 1
    if k1 < k0:
        raise ValueError("horizon leaves no integer sample")
    ks = np.arange(k0, k1 + 1, dtype=np.float64)
    return evaluate(f, ks)


def _whole(v, what):
    """v as an int; ValueError unless v is a finite integral number (the
    float 1e2 passes, 2.5 does not)."""
    if not (math.isfinite(v) and v == int(v)):
        raise ValueError("%s must be a finite integer" % what)
    return int(v)


def window_sequence(f, count, start=0):
    """First `count` unit window integrals (r o E)(f)_k, k from start."""
    count, start = _whole(count, "window count"), _whole(start, "window index")
    if start + count > f.horizon + 1e-9:
        raise ValueError("windows run past the horizon")
    ts = np.arange(start, start + count + 1, dtype=np.float64)
    A = cumulative_integral(f, np.minimum(ts, f.horizon))
    return np.diff(A)


def window_avg(f):
    """E(f)(t) = int_t^(t+1) f as a piecewise function.

    Exact (linear kind) for step input; for linear input the true E is
    piecewise quadratic and the result is its knot-exact linear
    interpolant, flagged in the note."""
    hi = f.horizon - 1.0
    if hi <= f.domain_start:
        raise ValueError("horizon too short for a unit window")
    knots = np.concatenate([f.breakpoints, f.breakpoints - 1.0])
    if f.kind == "linear":
        mids = 0.5 * (f.breakpoints[:-1] + f.breakpoints[1:])
        knots = np.concatenate([knots, mids])
    knots = knots[(knots > f.domain_start) & (knots < hi)]
    knots = np.unique(np.concatenate([[f.domain_start], knots, [hi]]))
    A = cumulative_integral(f, np.minimum(knots + 1.0, f.horizon))
    vals = A - cumulative_integral(f, knots)
    note = "exact window average of step data"
    if f.kind == "linear":
        note = "knot-exact linearization of a piecewise quadratic"
    return PiecewiseFunction(
        "linear", knots, vals, f.domain_start, hi, float(vals[-1]),
        note=note,
    )


# ----------------------------------------------------- continuous maps


def _geometric_fill(lo, hi):
    if lo <= 0.0 or hi <= lo:
        return np.empty(0)
    n = int(math.ceil(math.log(hi / lo) / math.log(RESAMPLE_RATIO)))
    return lo * RESAMPLE_RATIO ** np.arange(1, max(n, 1))


def _substitute(f, t_of, moved, start, horizon, fill=None, note=""):
    """g(s) = f(t_of(s)) on [start, horizon) for an increasing t_of;
    moved holds f's breakpoints b carried to t_of^-1(b).

    Step data, and linear data under an affine t_of (fill None), keep
    each knot's value: it comes from f's own knots, never from
    re-evaluating f at t_of(moved), which can land one ulp off a knot.
    Other linear data is read at t_of, clamped into f's domain, on the
    moved knots plus the geometric fill, and flagged with note.  An
    empty domain (a linear f whose one knot is its horizon) is refused:
    it has nothing to move."""
    if not f.domain_start < f.horizon:
        raise ValueError("the domain [%g, %g) is empty: nothing to "
                         "substitute" % (f.domain_start, f.horizon))
    keep = moved > start
    if f.kind == "step" or fill is None:
        b = np.concatenate([[start], moved[keep]])
        v = np.concatenate([[evaluate(f, t_of(start))], f.values[keep]])
        return PiecewiseFunction(
            f.kind, b, v, start, horizon, f.tail_value, note=f.note
        )
    knots = np.unique(np.concatenate([[start], moved[keep], fill]))
    knots = knots[knots < horizon]
    edge = np.nextafter(f.horizon, f.domain_start)
    t = np.minimum(np.maximum(t_of(knots), f.domain_start), edge)
    return PiecewiseFunction(
        "linear", knots, evaluate(f, t), start, horizon, f.tail_value,
        note=note,
    )


def shift_cont(f, a):
    """T_a(f)(t) = f(t+a), a > 0."""
    a = float(a)
    if not 0.0 < a < math.inf:
        raise ValueError("shift amount must be positive and finite")
    new_h = f.horizon - a
    if new_h <= f.domain_start:
        raise ValueError("shift exhausts the domain")
    return _substitute(f, lambda s: s + a, f.breakpoints - a,
                       f.domain_start, new_h)


def dilate_cont(f, a):
    """D_a(f)(t) = f(t/a), a > 0; acts on domain_start 0 data."""
    a = float(a)
    if not 0.0 < a < math.inf:
        raise ValueError("dilation factor must be positive and finite")
    if f.domain_start != 0.0:
        raise ValueError("dilation acts on domain_start 0 data")
    return _substitute(f, lambda s: s / a, f.breakpoints * a, 0.0,
                       f.horizon * a)


def power_cont(f, a):
    """P_a(f)(t) = f(t^a), a > 0.

    Step data transforms exactly (monotone substitution); linear data
    is resampled on a geometric grid (ratio 1.05) and flagged."""
    a = float(a)
    if not 0.0 < a < math.inf:
        raise ValueError("power exponent must be positive and finite")
    inv = 1.0 / a
    b = f.breakpoints**inv
    new_h = f.horizon**inv
    lo = b[1] if (b[0] == 0.0 and b.size > 1) else max(b[0], 1e-12)
    return _substitute(f, lambda s: s**a, b, f.domain_start, new_h,
                       _geometric_fill(lo, new_h),
                       "geometric resample of a power substitution")


def cesaro_cont(f):
    """C(f)(t) = (1/t) int_0^t f, returned as a knot-exact linear
    interpolant (the true mean is rational in t between knots); use
    cesaro_cont_at for exact pointwise values."""
    if f.domain_start != 0.0:
        raise ValueError("continuous Cesaro mean needs domain_start 0")
    base = f.breakpoints[f.breakpoints > 0.0]
    lo = base[0] if base.size else 1.0
    knots = np.unique(
        np.concatenate([[0.0], base, _geometric_fill(lo, f.horizon)])
    )
    knots = knots[knots < f.horizon]
    A = cumulative_integral(f, knots)
    vals = np.empty(knots.size)
    vals[0] = f.values[0]
    vals[1:] = A[1:] / knots[1:]
    return PiecewiseFunction(
        "linear", knots, vals, 0.0, f.horizon,
        float(cesaro_cont_at(f, f.horizon)),
        note="knot-exact Cesaro mean",
    )


def exp_conjugate(f):
    """L^-1(f)(u) = f(e^u): moves [1, horizon) data to [0, log horizon).

    Step data is exact; linear data stays knot-exact with a geometric
    refinement, flagged."""
    if f.domain_start != 1.0:
        raise ValueError("inverse log substitution needs domain_start 1")
    return _substitute(f, np.exp, np.log(f.breakpoints), 0.0,
                       math.log(f.horizon),
                       np.log(_geometric_fill(1.0, f.horizon)),
                       "knot-exact log reparametrization")


def log_conjugate(f):
    """L(f)(t) = f(log t): moves [0, horizon) data to [1, e^horizon)."""
    if f.domain_start != 0.0:
        raise ValueError("log substitution needs domain_start 0")
    if f.horizon > 700.0:
        raise ValueError("horizon too large to exponentiate")
    new_h = math.exp(f.horizon)
    return _substitute(f, np.log, np.exp(f.breakpoints), 1.0, new_h,
                       _geometric_fill(1.0, new_h),
                       "knot-exact exp reparametrization")


def conjugate_map(op, g, *args, **kwargs):
    """L(G) = L o G o L^-1 acting on [1, horizon) data."""
    return log_conjugate(op(exp_conjugate(g), *args, **kwargs))


# -------------------------------------------------- commutation defects

_PAIRS = {
    ("shift", "floor_embed"),
    ("shift", "linear_embed"),
    ("shift", "window_restrict"),
    ("cesaro", "floor_embed"),
    ("cesaro", "linear_embed"),
    ("cesaro", "window_restrict"),
}


def commutator_defect(pair, data, t, j=1):
    """|(G o H - H o G)(data)(t)| for G in {shift, cesaro} against the
    embeddings H in {floor_embed, linear_embed, window_restrict}.

    For H = window_restrict the input is a piecewise function, H is the
    sequence of unit window integrals (r o E), and t is an integer
    index.  The shift defects against floor_embed and window_restrict
    vanish identically: after the exact change of variables both sides
    are the same lookup/integral, and they are evaluated that way.

    A sequence is validated once, whole, and the public maps are
    composed on the prefix that the point reads: a[:floor(t) + j + 3]
    for the shift, a[:floor(t) + 3] for the Cesaro means; a t that is
    not a number in [0, len(a)) reads it all.  On a piecewise function
    the maps themselves read no piece past the windows they integrate.
    Every prefix sum there is a sequential cumsum, the same at each
    index whatever follows it, and each np.sum sees the same terms, so
    a defect is bitwise the one of the whole data."""
    pair = tuple(pair)
    if pair not in _PAIRS:
        raise ValueError("unknown pair %r" % (pair,))
    g, h = pair
    jj = int(j)
    if g == "shift" and jj < 1:
        raise ValueError("shift step must be a positive integer")
    if h in ("floor_embed", "linear_embed"):
        a = _as_bounded(data)
        if isinstance(t, (int, float)) and 0 <= t < a.size:
            # the point reads a_(k + j) and a_(k + j + 1), k = floor(t),
            # and stays before the prefix's last unit interval, where its
            # tail rule would read the prefix's last value
            a = a[:math.floor(t) + (jj if g == "shift" else 0) + 3]
        embed = floor_embed if h == "floor_embed" else linear_embed
        if g == "shift":
            lhs = evaluate(embed(shift_discrete(a, jj)), t)
            rhs = evaluate(shift_cont(embed(a), float(jj)), t)
        else:
            lhs = cesaro_cont_at(embed(a), t)
            rhs = evaluate(embed(cesaro_discrete(a)), t)
        return abs(lhs - rhs)
    f = data
    if not isinstance(f, PiecewiseFunction):
        raise ValueError("window_restrict pairs take a piecewise function")
    n = _whole(t, "window index")
    # the shift reads the window at n + j, the Cesaro means windows 0..n
    if n < 0 or n + 1 + (jj if g == "shift" else 0) > f.horizon:
        raise ValueError("window index runs past the horizon")
    if g == "shift":
        # (rE)(T_j f)_n = int_{n+j}^{n+j+1} f after substitution
        lhs = unit_window_integral(f, float(n + jj))
        rhs = unit_window_integral(f, float(n) + float(jj))
        return abs(lhs - rhs)
    lhs = log_cesaro_window(f, float(n), float(n + 1))
    rhs = float(cesaro_discrete(window_sequence(f, n + 1))[n])
    return abs(lhs - rhs)


# ------------------------------------------------------- oscillation K


def oscillation_K(f, s):
    """sup over t in [s, s+1) of |f(t) - f(s)|."""
    s = float(s)
    if s < f.domain_start or s >= f.horizon:
        raise ValueError("s outside the domain")
    hi = s + 1.0
    base = evaluate(f, s)
    cand = [base]
    inner = f.breakpoints[(f.breakpoints > s) & (f.breakpoints < hi)]
    cand.extend(np.atleast_1d(evaluate(f, inner)) if inner.size else [])
    if f.kind == "linear":
        cand.append(evaluate(f, min(hi, f.horizon)))
    elif hi <= f.horizon:
        cand.append(evaluate(f, np.nextafter(hi, s)))
    if hi > f.horizon:
        cand.append(f.tail_value)
    cand = np.asarray(cand, dtype=np.float64)
    return float(np.max(np.abs(cand - base)))


def almost_convergence_test(f, windows):
    """Vanishing-window-mean test.

    profile[i] = sup over a t-grid (step W/8, at least 1) of
    |(1/W_i) int_t^(t+W_i) f|; the input almost converges to zero when
    the profile dies out, and the test passes iff the largest window's
    supremum is <= 1e-2."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 1 or windows.size == 0 or np.any(windows <= 0):
        raise ValueError("windows must be positive")
    if np.any(np.diff(windows) <= 0):
        raise ValueError("windows must increase")
    profile = np.empty(windows.size)
    for i, w in enumerate(windows):
        if f.domain_start + w >= f.horizon:
            raise ValueError("window %g exceeds the data horizon" % w)
        step = max(1.0, w / 8.0)
        ts = np.arange(f.domain_start, f.horizon - w, step)
        means = (
            cumulative_integral(f, ts + w) - cumulative_integral(f, ts)
        ) / w
        profile[i] = float(np.max(np.abs(means)))
    return bool(profile[-1] <= 1e-2), profile
