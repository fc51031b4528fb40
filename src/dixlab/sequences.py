"""Singular value sequences and their logarithmic averaging calculus.

A sequence is a finite nonincreasing nonnegative head, optionally
continued by a tail model from one of two families: the power-log tail
C * (log n)^b * n^(-a), of which the torus's Weyl tail (models.TorusTail)
is one, and the oscillator.
All the trace-style functionals here (log averages, the 1-infinity
norm, the Riesz window proxy, the zeta-power norm, Tauberian
classification) consume that representation.

Checkpoints, horizons and indices are 1-based throughout: alpha_k
averages the first k values.
"""

import math
import os
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels

# ---------------------------------------------------------- memory budget

DEFAULT_BUDGET_MB = 2048.0


class BudgetError(RuntimeError):
    """Raised when a sequence, enumeration or matrix would exceed the
    memory cap."""

    def __init__(self, what, need_mb, budget_mb):
        self.what = what
        self.need_mb = float(need_mb)
        self.budget_mb = float(budget_mb)
        super().__init__(
            "%s needs about %s MB but the budget is %s MB "
            "(raise DIXLAB_BUDGET_MB)" % (what, _mb(need_mb), _mb(budget_mb))
        )


def _mb(size):
    """size in MB as text: whole MB from 1 MB on, three significant
    digits below it."""
    return "%.0f" % size if size >= 1.0 else "%.3g" % size


class FieldError(ValueError):
    """A ValueError about the constructor argument named field; the CLI
    prefixes its message with the JSON path of that config field."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def _horizon(value, lo, what):
    """value as an int, or FieldError("horizon") naming what unless it is
    an integer from lo to 2^63 - 1."""
    try:
        ok = lo <= value < 2**63 and value == int(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise FieldError("horizon", "%s must be an integer from %d to "
                         "2^63 - 1" % (what, lo))
    return int(value)


def memory_budget_mb():
    raw = os.environ.get("DIXLAB_BUDGET_MB", "")
    if not raw:
        return DEFAULT_BUDGET_MB
    try:
        mb = float(raw)
    except ValueError:
        raise ValueError("DIXLAB_BUDGET_MB must be a number") from None
    if mb <= 0:
        raise ValueError("DIXLAB_BUDGET_MB must be positive")
    return mb


def _check_budget(what, need_bytes):
    budget = memory_budget_mb()
    need_mb = need_bytes / 2**20
    if need_mb > budget:
        raise BudgetError(what, need_mb, budget)


# ------------------------------------------------------------ tail model

# A tail model has value(n), powered(s), integral (one float), slopes
# and heat_integral, all that the tail sums read; its mu is C (log
# n)^log_power n^-power times a bounded factor whose limsup and
# log-average limsup are peaks.  A tail that continues one head only
# (models.TorusTail) also has head_length, the length of that head.


def _check_tail(coeff, power):
    if not 0.0 < coeff < math.inf:
        raise FieldError("coeff", "tail coeff must be positive and finite")
    if not 0.0 < power < math.inf:
        raise FieldError("power", "tail power must be positive and finite")


@dataclass(frozen=True)
class PowerLogTail:
    """coeff * (log n)^log_power * n^(-power) for the sequence past its
    head, where sequence index k sits at n = k + offset (a head sampled
    from n = 2 has offset 1).  value(n) evaluates the formula at n."""

    coeff: float
    power: float
    log_power: float = 0.0
    offset: int = 0
    peaks = (1.0, 1.0)

    def __post_init__(self):
        _check_tail(self.coeff, self.power)
        if not math.isfinite(self.log_power):
            raise FieldError("log_power", "tail log_power must be finite")
        if self.offset != int(self.offset) or self.offset < 0:
            raise ValueError("tail offset must be a nonnegative integer")
        object.__setattr__(self, "offset", int(self.offset))

    def value(self, n):
        n = np.asarray(n, dtype=np.float64)
        if np.any(n < (2 if self.log_power else 1)):
            raise ValueError("tail model is evaluated for n >= 2 only "
                             "(n >= 1 at log_power 0)")
        return self.coeff * np.log(n) ** self.log_power * n ** (-self.power)

    def powered(self, s):
        """The tail of mu**s: the same family with every exponent times s."""
        return PowerLogTail(
            self.coeff**s, self.power * s, self.log_power * s, self.offset
        )

    def integral(self, x0, x1):
        """The integral over [x0, x1], x0 >= 2 (x1 None: infinity): a
        closed form, or _envelope_integral where there is none."""
        coeff, a, b = self.coeff, self.power, self.log_power
        u0 = math.log(x0)
        u1 = math.inf if x1 is None or math.isinf(x1) else math.log(x1)
        if a == 1.0:
            if math.isinf(u1) and b >= -1.0:
                return math.inf
            # d = u1 - u0 and r = log(u1 / u0) by log1p, not as
            # differences of rounded logs
            d = math.log1p((x1 - x0) / x0) if math.isfinite(u1) else u1
            if b == 0.0:
                return coeff * d
            r = math.log1p(d / u0)
            if b == -1.0:
                return coeff * r
            return coeff * u0 ** (b + 1.0) * math.expm1((b + 1.0) * r) \
                / (b + 1.0)
        if a < 1.0 and math.isinf(u1):
            return math.inf
        kappa = a - 1.0
        if math.isinf(u1) and b > -1.0:
            # int u^b e^(-kappa u) du = kappa^-(b+1) * Gamma(b+1, kappa*u0)
            z = kappa * u0
            g = kernels.gamma_q(b + 1.0, z) * math.exp(math.lgamma(b + 1.0))
            return coeff * kappa ** (-(b + 1.0)) * g
        return _envelope_integral(coeff, kappa, lambda u: u**b, u0, u1)

    def slopes(self, u, s=1.0):
        """n^k h^(k) / h, k = 1, 2, 3, at n = e^u for h = value**s, a
        constant times exp(B log u + C u): D^k log h = C + B/u, -B/u^2
        and 2B/u^3 in D = d/du."""
        B, C = self.log_power * s, -self.power * s
        return _log_slopes(C + B / u, -B / u**2, 2.0 * B / u**3)

    def heat_integral(self, t, alpha, u0):
        """(int over n >= e^u0 of exp(-g), g at e^u0), g = (t mu)^-alpha
        = q (log n)^(-b alpha) n^beta: Gamma(1/beta, z0) q^(-1/beta) /
        beta at b = 0, else (or past the float range) in logs."""
        c, a, b = self.coeff, self.power, self.log_power
        beta, b_alpha = a * alpha, b * alpha
        log_g0 = -alpha * (math.log(t) + math.log(c)) \
            - b_alpha * math.log(u0) + beta * u0
        try:
            q = (t * c) ** (-alpha)
            z0 = q * u0 ** (-b_alpha) * math.exp(beta * u0)
            body = None if b else (float(kernels.gamma_q(1.0 / beta, z0))
                                   * math.exp(math.lgamma(1.0 / beta))
                                   * q ** (-1.0 / beta) / beta)
        except (OverflowError, ZeroDivisionError):  # then the quadrature
            z0, body = math.exp(min(log_g0, 700.0)), None
        if body is None:
            body = _heat_quad(
                log_g0, lambda d: beta * d - b_alpha * np.log1p(d / u0), u0)
        return body, z0


@dataclass(frozen=True)
class OscillatorTail:
    """coeff * ((2 + sin log log n) / n)^power past the head, index k at
    n = k.  2 + sin log log n has limsup 3; its log average 2 + (sin log
    u - cos log u) / 2, u = log n, has limsup 2 + sqrt(1/2)."""

    coeff: float = 1.0
    power: float = 1.0
    offset, log_power, peaks = 0, 0.0, (3.0, 2.0 + math.sqrt(0.5))

    def __post_init__(self):
        _check_tail(self.coeff, self.power)

    def value(self, n):
        n = np.asarray(n, dtype=np.float64)
        return self.coeff * ((2.0 + np.sin(np.log(np.log(n)))) / n) \
            ** self.power

    def powered(self, s):
        return OscillatorTail(self.coeff**s, self.power * s)

    def integral(self, x0, x1):
        """The integral over [x0, x1] (x1 None: infinity), in u = log x:
        at power 1 the closed form c [2u + u (sin log u - cos log u) / 2],
        else _envelope_integral."""
        u0, u1 = math.log(x0), math.inf if x1 is None else math.log(x1)
        if self.power <= 1.0 and math.isinf(u1):
            return math.inf
        if self.power == 1.0:
            (s0, c0), (s1, c1) = ((math.sin(math.log(u)),
                                   math.cos(math.log(u))) for u in (u0, u1))
            return self.coeff * (2.0 * (u1 - u0) + 0.5 * (
                u1 * (s1 - c1) - u0 * (s0 - c0)))
        return _envelope_integral(
            self.coeff, self.power - 1.0,
            lambda u: (2.0 + np.sin(np.log(u))) ** self.power, u0, u1)

    def slopes(self, u, s=1.0):
        """As PowerLogTail.slopes, log h = s a (psi(v) - u) + const with
        psi = log(2 + sin v) and v = log u: D^k log h from psi's p_k =
        d^k psi / dv^k by the rule of _log_slopes one level down."""
        sa, v = s * self.power, math.log(u)
        sin, cos = math.sin(v), math.cos(v)
        w = 2.0 + sin
        p1, p2 = cos / w, -(1.0 + 2.0 * sin) / w**2
        p3 = 2.0 * cos * (sin - 1.0) / w**3
        return _log_slopes(sa * (p1 / u - 1.0), sa * (p2 - p1) / u**2,
                           sa * (p3 - 3.0 * p2 + 2.0 * p1) / u**3)

    def heat_integral(self, t, alpha, u0):
        """As PowerLogTail.heat_integral, by the quadrature in logs."""
        w0, beta = 2.0 + math.sin(math.log(u0)), alpha * self.power
        log_g0 = -alpha * (math.log(t) + math.log(self.coeff)) \
            - beta * (math.log(w0) - u0)

        def rise(d):  # log g from u0 to u0 + d
            h = 0.5 * np.log1p(d / u0)  # half of log u - log u0
            dw = 2.0 * np.cos(math.log(u0) + h) * np.sin(h)  # change of w
            return beta * (d - np.log1p(dw / w0))

        return _heat_quad(log_g0, rise, u0), math.exp(min(log_g0, 700.0))


# ------------------------------------------------------- tail quadrature

# The one accuracy target of every tail quadrature: its error bound is
# at most TAIL_RTOL of its value.  The rule sums each panel at _GL_ORDER
# and twice that many Gauss-Legendre nodes, bisects a panel at most
# _GL_DEPTH times, and charges _GL_ROUNDING of each panel's magnitude to
# rounding; _EXP_MAP is the scale of the map of an e^-y tail.
TAIL_RTOL = 1e-12
_GL_ORDER = 12
_GL_DEPTH = 30
_GL_ROUNDING = 2.0**-46
_GL_RULES = [np.polynomial.legendre.leggauss(m)
             for m in (_GL_ORDER, 2 * _GL_ORDER)]
_EXP_MAP = 8.0


def tail_quad(f, edges):
    """(value, bound): the integral of f over the panels between
    consecutive edges and a bound on its error.  f maps an array of
    points to an array of values.  Each panel's value is its 2m-node
    Gauss-Legendre sum and its bound the gap to its m-node sum plus
    _GL_ROUNDING of that value.  While the bounds total more than
    TAIL_RTOL of the value, the panels with the largest bounds are
    bisected; a panel that would pass _GL_DEPTH bisections, or a value
    of f that is not finite, raises ValueError."""
    lo, hi = np.asarray(edges[:-1], dtype=np.float64), np.asarray(
        edges[1:], dtype=np.float64)
    depth = np.zeros(lo.size, dtype=np.int64)
    keep = (np.empty(0), np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0), np.empty(0))
    while True:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        sums = []
        for x, w in _GL_RULES:
            with np.errstate(all="ignore"):
                y = np.asarray(f((mid[:, None] + half[:, None] * x).ravel()),
                               dtype=np.float64)
            if not np.all(np.isfinite(y)):
                raise ValueError("tail quadrature: integrand not finite")
            sums.append(half * (y.reshape(lo.size, -1) @ w))
        err = np.abs(sums[1] - sums[0]) + _GL_ROUNDING * np.abs(sums[1])
        a, b, d, q, e = (np.concatenate(z) for z in
                         zip(keep, (lo, hi, depth, sums[1], err)))
        total, bound = math.fsum(q), float(np.sum(e))
        goal = TAIL_RTOL * abs(total)
        if bound <= goal:
            return total, bound
        # bisect the worst panels until the rest are within half the goal
        order = np.argsort(e)[::-1]
        rest = bound - np.cumsum(e[order])
        split = order[:int(np.argmax(rest <= 0.5 * goal)) + 1]
        if d[split].max() >= _GL_DEPTH:
            raise ValueError(
                "tail quadrature: error bound %.3g above %.3g of the value "
                "%.6g after %d bisections" % (bound, TAIL_RTOL, total,
                                              _GL_DEPTH))
        stay = np.ones(q.size, dtype=bool)
        stay[split] = False
        keep = (a[stay], b[stay], d[stay], q[stay], e[stay])
        cut = 0.5 * (a[split] + b[split])
        lo, hi = np.concatenate([a[split], cut]), np.concatenate(
            [cut, b[split]])
        depth = np.tile(d[split] + 1, 2)


def _exp_tail(f, y_hi=math.inf):
    """The integral of f over [0, y_hi] for an f that falls off like e^-y
    (a tail mapped by its exponential envelope): tail_quad's value, run
    in w = 1 - e^(-y/8) on [0, 1 - e^(-y_hi/8)], where one panel holds
    the whole decay."""
    def g(w):
        return f(-_EXP_MAP * np.log1p(-w)) * (_EXP_MAP / (1.0 - w))

    return tail_quad(g, (0.0, -math.expm1(-y_hi / _EXP_MAP)))[0]


def _envelope_integral(coeff, kappa, amp, u0, u1):
    """The integral of coeff * amp(u) e^(-kappa u) over [u0, u1] (finite
    where kappa < 0) by _exp_tail in y = |kappa| times the distance from
    the end u_e where e^(-kappa u) is largest."""
    k = abs(kappa)
    u_e, sign = (u0, 1.0) if kappa > 0.0 else (u1, -1.0)
    val = _exp_tail(lambda y: amp(u_e + sign * y / k) * np.exp(-y),
                    k * (u1 - u0))
    return coeff * math.exp(-kappa * u_e) / k * val


def _log_slopes(r, d2, d3):
    """n^k h^(k) / h for k = 1, 2, 3 from r = D log h, d2 = D^2 log h and
    d3 = D^3 log h, D = d/du and u = log n: n^2 (log h)'' = d2 - r and
    n^3 (log h)''' = d3 - 3 d2 + 2 r."""
    l2 = d2 - r
    l3 = d3 - 3.0 * d2 + 2.0 * r
    return r, r * r + l2, r**3 + 3.0 * r * l2 + l3


def _euler_maclaurin(body, f, n, p1, p3):
    """body + f/2 - f'/12 + f'''/720, the Euler-Maclaurin terms of a sum's
    lower end n, from f there, p1 = n f'/f and p3 = n^3 f'''/f.  At an
    upper end the odd terms change sign: pass -p1 and -p3.  n is divided
    out one factor at a time, so that an integer n below 2^1024 never
    leaves the float range as n^3."""
    return body + 0.5 * f - p1 * f / n / 12.0 + p3 * f / n / n / n / 720.0


def tail_sum(tail, lo, hi=None):
    """Euler-Maclaurin sum of the tail over sequence indices lo..hi
    (hi=None means infinity), i.e. of tail.value(n) for n from
    lo + offset to hi + offset; that n must start at 2 or above.  It is
    the integral plus f/2 - f'/12 + f'''/720 at lo and, for a finite hi,
    f/2 + f'/12 - f'''/720 at hi."""
    lo += tail.offset
    hi = None if hi is None else hi + tail.offset
    if lo < 2:
        raise ValueError("tail sums start at n >= 2")
    if hi is not None and hi < lo:
        return 0.0
    body = tail.integral(lo, hi)
    if math.isinf(body):
        return math.inf
    p1, _, p3 = tail.slopes(math.log(lo))
    total = _euler_maclaurin(body, float(tail.value(lo)), lo, p1, p3)
    if hi is not None:
        p1, _, p3 = tail.slopes(math.log(hi))
        total = _euler_maclaurin(total, float(tail.value(hi)), hi, -p1, -p3)
    return total


_MIN_NORMAL = 2.0**-1022  # the smallest normal float


def tail_power_sum(tail, s, lo):
    """The sum of the tail's s-th powers over sequence indices >= lo,
    +inf where it diverges or passes the float range: tail_sum of the
    powered tail.  Where coeff**s is not a normal float or the sum
    overflows, the sum, linear in coeff**s, is taken with 2^-m coeff**s
    and scaled by 2^m."""
    try:
        if tail.coeff**s >= _MIN_NORMAL:
            return tail_sum(tail.powered(s), lo)
    except OverflowError:
        pass
    m = math.ceil(s * math.log2(tail.coeff))
    scaled = replace(tail, coeff=2.0 ** (math.log2(tail.coeff) - m / s))
    try:
        return math.ldexp(tail_sum(scaled.powered(s), lo), m)
    except OverflowError:
        return math.inf


_LOG_745 = math.log(745.0)


def _heat_quad(log_e0, rise, u0):
    """Integral over u >= u0 of exp(u - E), a heat tail in u = log n with
    E = (t mu)^-alpha = exp(log_e0 + rise(u - u0)) and rise(0) = 0 (rise
    takes arrays).  It is 0 where E passes 745 at u0 (exp underflows
    there).  Where E grows by 4 or more per unit of u at u0 the integrand
    falls off like e^-y in y = E - E(u0), and the rule runs in y.  Else
    its panels are the unit steps of u, up to two units past where E
    passes 745; it is +inf short of that at u0 + 2000 (over e^1255 terms
    above e^-745).  Their integrand is scaled by e^-m, m = max(0, peak -
    700) for its peak at the unit steps; a peak past 711 is +inf, as the
    unit below it alone integrates to over 0.63 e^711."""
    if log_e0 > _LOG_745:
        return 0.0
    e0 = math.exp(log_e0)
    slope = 1024.0 * float(rise(1.0 / 1024.0))  # d(log E)/du at u0
    if e0 * slope >= 4.0:
        def f(y):  # u - u0 = log(1 + y/e0) / slope: du/dy = 1/(slope (e0 + y))
            d = np.log1p(y / e0) / slope
            return np.exp(d - e0 * np.expm1(rise(d))) / (slope * (e0 + y))

        return math.exp(u0 - e0) * _exp_tail(f)
    d_hi, peak = 0.0, -math.inf
    while log_e0 + rise(d_hi) < _LOG_745:
        if d_hi >= 2000.0:
            return math.inf
        peak = max(peak, u0 + d_hi - math.exp(log_e0 + rise(d_hi)))
        d_hi += 1.0
    m = max(0.0, peak - 700.0)
    val, _ = tail_quad(  # E past e^700 leaves the integrand 0.0
        lambda d: np.exp(u0 + d - m - e0 * np.exp(
            np.minimum(rise(d), 700.0 - log_e0))),
        np.arange(d_hi + 3.0))
    return val * math.exp(m) if m < 11.0 else math.inf


def tail_heat_sum(tail, t, alpha, lo):
    """Euler-Maclaurin sum over sequence indices >= lo of
    f = exp(-(t * mu)^-alpha), mu the tail value there: the tail's
    heat_integral plus f/2 - f'/12 + f3/720 at the first index, f3 the
    third derivative of f; +inf past the float range."""
    t, alpha = float(t), float(alpha)  # Python floats raise on overflow
    n0 = lo + tail.offset
    u0 = math.log(n0)
    body, z0 = tail.heat_integral(t, alpha, u0)
    f0 = math.exp(-z0)
    if not f0:
        return body
    # n^k g^(k) at n0, g = (t mu)^-alpha = z0 there; f = e^-g, so f' =
    # -g' f and f''' = (-g'^3 + 3 g' g'' - g''') f
    g1, g2, g3 = (z0 * p for p in tail.slopes(u0, -alpha))
    return _euler_maclaurin(body, f0, n0, -g1, 3.0 * g1 * g2 - g1**3 - g3)


# -------------------------------------------------------------- sequences

# Largest |log(tail / head)| accepted where a tail model meets its head,
# both read at the head's last index.  The worst shipped model at its
# smallest size is the 3-torus at cutoff radius 1, whose Weyl tail
# reads 0.526 there; harmonic and power-log heads read 0.
_JUNCTION_TOL = 0.55


def _expand_runs(head, counts):
    """Each head value repeated its count times, behind the budget."""
    n = int(counts.sum())
    _check_budget("expanded spectrum (%d values)" % n, 8.0 * n)
    v = np.repeat(head, counts)
    v.setflags(write=False)
    return v


def _accepted_head(head):
    """head as a contiguous float64 array, accepted in one pass:
    one-dimensional and nonincreasing from a first value below inf to
    a last value >= 0, so finite and nonnegative too, since a NaN fails
    every comparison.  The named checks (_reject_head) run only on a
    rejected head, in their fixed order, to say which rule it breaks."""
    v = np.ascontiguousarray(head, dtype=np.float64)
    if not (v.ndim == 1 and (v.size == 0 or (
            v[0] < math.inf and v[-1] >= 0.0
            and np.count_nonzero(v[1:] <= v[:-1]) == v.size - 1))):
        _reject_head(v)
    return v


def _reject_head(v):
    """Raise the error of the first rule the head v breaks."""
    if v.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if not np.all(v[1:] <= v[:-1]):
        raise ValueError("values must be nonincreasing")
    if v[-1] < 0.0:
        raise ValueError("values must be nonnegative")


@dataclass(frozen=True)
class SingularSequence:
    """Nonincreasing nonnegative head values plus optional tail model:
    a PowerLogTail, a models.TorusTail (the torus spectrum's, which
    continues that spectrum's head only) or an OscillatorTail.

    With counts the head is run-length: strictly decreasing values, the
    i-th repeated counts[i] >= 1 times (equal neighbours given to the
    constructor are merged into one run).  counts None is a plain head.
    length counts every repeat, and values expands the runs on each read
    (charged to the memory budget, not cached); estimators read head
    and counts instead.  horizon, length by default, ends the dyadic
    scans (tauberian_classify, riesz_seminorm_proxy): an integer >= 1,
    below the length to cap them at the values the caller trusts, past
    it only with a tail.  A head is accepted in one pass
    (_accepted_head)."""

    head: np.ndarray
    tail: PowerLogTail | OscillatorTail | None = None
    counts: np.ndarray | None = None
    horizon: int | None = None

    def __post_init__(self):
        v = _accepted_head(self.head)
        length = v.size
        if self.counts is not None:
            c = np.ascontiguousarray(self.counts, dtype=np.int64)
            if c.shape != v.shape:
                raise ValueError("counts must match the head values")
            if c.size and c.min() < 1:
                raise ValueError("counts must be >= 1")
            first = np.flatnonzero(np.diff(v, prepend=np.inf))
            if first.size < v.size:
                v, c = v[first], np.add.reduceat(c, first)
            c.setflags(write=False)
            object.__setattr__(self, "counts", c)
            length = int(c.sum())
        v.setflags(write=False)
        object.__setattr__(self, "head", v)
        object.__setattr__(self, "length", length)
        if self.tail is not None:
            if length == 0:
                raise ValueError("tail model requires a nonempty head")
            # index L sits at n = L + offset; a lone head entry at n = 1
            # has no model value to compare ((log 1)^b is degenerate)
            n = length + self.tail.offset
            edge = float(v[-1])
            model = float(self.tail.value(n)) if n >= 2 else edge
            if not (edge > 0.0 and model > 0.0
                    and abs(math.log(model / edge)) <= _JUNCTION_TOL):
                raise ValueError(
                    "tail junction insane: tail model at index %d gives %g "
                    "vs last value %g" % (length, model, edge)
                )
            if getattr(self.tail, "head_length", length) != length:
                raise ValueError(
                    "tail junction insane: the tail continues a head of %d "
                    "values, not %d" % (self.tail.head_length, length))
        H = length
        if self.horizon is not None:
            H = _horizon(self.horizon, 1, "horizon")
            if H > length and self.tail is None:
                raise FieldError("horizon", "horizon must be at most the "
                                 "length %d without a tail" % length)
        object.__setattr__(self, "horizon", H)

    @property
    def values(self):
        """Every value, nonincreasing: the head, or its runs expanded."""
        if self.counts is None:
            return self.head
        return _expand_runs(self.head, self.counts)

    def at(self, k):
        """The values at 1-based indices k <= length, without expanding
        runs."""
        k = np.asarray(k, dtype=np.int64)
        return self.head[kernels._run_of(self.counts, k)[0]]

    def head_sum(self):
        return kernels.comp_sum(self.head, counts=self.counts)

    def scaled(self, c):
        """c * x: values and tail coefficient both scale."""
        if not (c > 0.0):
            raise ValueError("scale factor must be positive")
        t = self.tail
        if t is not None:
            t = replace(t, coeff=t.coeff * c)
        return SingularSequence(self.head * c, t, self.counts, self.horizon)


def as_sequence(x):
    """x itself, or a sequence of array values."""
    if isinstance(x, SingularSequence):
        return x
    return SingularSequence(np.asarray(x, dtype=np.float64))


def _finite(value, kind, at):
    """value, unless the kind sum at `at` (such as "s=1.04") diverges or
    passes the float64 range: then ValueError."""
    if not math.isfinite(value):
        raise ValueError("%s evaluation divergent or past the float64 "
                         "range at %s" % (kind, at))
    return value


def power_trace(source, s):
    """Tr(T^s) = sum over n of mu_n**s for a sequence (or an array,
    through as_sequence): the head kernel sum plus tail_power_sum from
    index length + 1, taken first so that a divergent s (an infinite
    tail) is refused before the head is summed.  A total past the float64
    range is refused too."""
    x = as_sequence(source)
    at = "s=%g" % s
    tail = 0.0 if x.tail is None else tail_power_sum(x.tail, s, x.length + 1)
    _finite(tail, "zeta", at)
    return _finite(kernels.power_sum(x.head, s, counts=x.counts) + tail,
                   "zeta", at)


def decreasing_rearrangement(x):
    """Moduli of x sorted nonincreasingly, as a SingularSequence."""
    v = np.abs(np.asarray(x)).astype(np.float64, copy=False)
    if v.ndim != 1:
        raise ValueError("input must be one-dimensional")
    v = np.sort(v)[::-1].copy()
    return SingularSequence(v)


def dyadic_schedule(limit):
    """Checkpoints 2 .. 2^J with 2^J <= limit."""
    limit = int(limit)
    if limit < 2:
        raise ValueError("limit %d below first checkpoint" % limit)
    J = limit.bit_length() - 1
    return 2 ** np.arange(1, J + 1, dtype=np.int64)


def _validate_checkpoints(ks):
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("need a nonempty 1-d checkpoint list")
    if ks[0] < 1 or np.any(np.diff(ks) <= 0):
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    return ks


def log_average(x, ks):
    """alpha_k = (sum of the k largest values) / log(1+k) at each
    checkpoint k of ks, as a float64 array in the order of ks.

    Checkpoints beyond the stored head use the tail model; without one
    they raise.
    """
    x = as_sequence(x)
    ks = _validate_checkpoints(ks)
    L = x.length
    within = ks[ks <= L]
    beyond = ks[ks > L]
    if beyond.size and x.tail is None:
        raise ValueError(
            "checkpoint %d beyond data length %d and no tail model"
            % (int(beyond[0]), L)
        )
    alphas = np.empty(ks.size, dtype=np.float64)
    if within.size:
        alphas[: within.size] = kernels.prefix_log_average(
            x.head, within, counts=x.counts)
    if beyond.size:
        s_head = x.head_sum()
        for i, k in enumerate(beyond):
            s = s_head + tail_sum(x.tail, L + 1, int(k))
            alphas[within.size + i] = s / math.log(1.0 + float(k))
    return alphas


def norm_1_inf(x):
    """sup_k alpha_k.  The head is scanned at every k; with a tail model
    the supremum also covers limsup alpha_k from _tail_limsups, which
    can exceed anything visible in the stored head
    (the flat-torus spectrum is the standard case: alpha is still
    climbing at any finite truncation), and a peak past the head: the
    best of the checkpoints length * 2^j, then a ternary search over the
    integers between its two neighbours."""
    x = as_sequence(x)
    if x.length == 0:
        raise ValueError("empty sequence has no norm")
    best = kernels.max_log_average(x.head, counts=x.counts)
    if x.tail is None:
        return best
    lim = _tail_limsups(x.tail)[0]
    if math.isinf(lim):
        return math.inf
    best = max(best, lim)
    L, s_head = x.length, x.head_sum()

    def alpha(k):
        return (s_head + tail_sum(x.tail, L + 1, k)) / math.log(1.0 + k)

    k = max((L << j for j in range(1, 49) if L << (j - 1) <= 1e18),
            key=alpha)
    lo, hi = k // 2, 2 * k
    while hi - lo > 2:
        m1, m2 = lo + (hi - lo) // 3, hi - (hi - lo) // 3
        if alpha(m1) < alpha(m2):
            lo = m1
        else:
            hi = m2
    return float(max(best, alpha(k), *map(alpha, range(lo, hi + 1))))


def submajorizes(x, y):
    """True iff partial sums of y never exceed those of x (heads only,
    shorter head zero-padded), decided exactly on one path for plain and
    run-length heads.  An array is accepted as a plain head by
    SingularSequence's rule (_accepted_head), with no sequence built.
    Charged to the budget first: 64 KiB and, per compared end, 72 B for
    the float64 pass plus two Python ints (three with runs) for the
    exact one, each 8 B of pointer and 24 B + 4 B per 30-bit digit in
    16 B blocks, wide enough to count units of 2^e0 up to length *
    2^(leading exponent)."""
    (x, x_counts, x_len), (y, y_counts, y_len) = map(_plain_or_runs, (x, y))
    if x.size and y.size:
        n = max(x_len, y_len)
        ends = min(n, x.size + y.size)
        bits = (math.frexp(max(x[0], y[0]))[1] + n.bit_length()
                - kernels._exact_unit(x, y))
        per_int = 8 + 16 * -(-(24 + 4 * -(-bits // 30)) // 16)
        ints = 2 if x_counts is None and y_counts is None else 3
        _check_budget("submajorization (%d ends)" % ends,
                      2.0**16 + ends * (72 + ints * per_int))
    return kernels.prefix_dominates(x, y, x_counts, y_counts)


def _plain_or_runs(x):
    """(head, counts, length) of a sequence, or of an array accepted as
    a plain head."""
    if isinstance(x, SingularSequence):
        return x.head, x.counts, x.length
    v = _accepted_head(x)
    return v, None, v.size


def riesz_seminorm_proxy(x):
    """max alpha_k over the trailing half of dyadic checkpoints.

    A windowed surrogate for the distance-to-compacts seminorm; it
    overestimates for sequences whose alpha still drifts, so treat it as
    a proxy, not the seminorm."""
    x = as_sequence(x)
    if x.horizon < 16:
        raise ValueError("horizon below policy minimum (16)")
    ks = dyadic_schedule(x.horizon)
    return float(np.max(log_average(x, ks[(ks.size - 1) // 2:])))


def _zeta_schedule(k_schedule):
    """The k of the zeta schedule s = 1 + 1/k as floats, or ValueError
    unless they are finite, >= 1 and increasing, and each s is above 1 in
    float arithmetic (k below 2^53)."""
    ks = np.asarray(k_schedule, dtype=np.float64)
    if ks.ndim != 1 or ks.size == 0 or not np.all(np.isfinite(ks) & (ks >= 1)):
        raise ValueError("k schedule must be finite and >= 1")
    if np.any(np.diff(ks) <= 0):
        raise ValueError("k schedule must increase")
    flat = np.flatnonzero(1.0 + 1.0 / ks == 1.0)
    if flat.size:
        raise ValueError("k schedule entry %d (%g) puts s = 1 + 1/k at 1 "
                         "in float arithmetic (needs k < 2^53)"
                         % (flat[0], ks[flat[0]]))
    return ks


def zeta_norm_z1(source, k_schedule=None):
    """limsup over the schedule of (1/k) * Tr(T^(1+1/k))^(k/(k+1)), by
    power_trace of the sequence.  Without a tail only the head is
    summed, which undershoots once 1/k is small against 1/log(length),
    and the default schedule stops at 2^14, not 2^20.

    A trace past the float64 range is read again in units of 2^m, the
    leading value in [1, 2) units, on a rescaled copy of the head
    (charged to the budget, made once), and its term, linear in the
    scale, is scaled back by 2^m: a head scaled by 2^1000 reads its
    value, not inf.  Traces in range are read as they are."""
    x = as_sequence(source)
    if k_schedule is None:
        k_schedule = 2 ** np.arange(3, 15 if x.tail is None else 21,
                                    dtype=np.int64)
    m = math.frexp(float(x.head[0]))[1] - 1 if x.head.size else 0
    unit = None
    best = 0.0
    for k in map(float, _zeta_schedule(k_schedule)):
        try:
            total = power_trace(x, 1.0 + 1.0 / k)
            term = total ** (k / (k + 1.0)) / k
        except ValueError:  # a divergent or overflowing sum, refused
            if m <= 0:  # a unit of 2^m <= 1 brings no sum into range
                return math.inf
            if unit is None:
                _check_budget("rescaled head (%d values)" % x.head.size,
                              8.0 * x.head.size)
                unit = x.scaled(2.0 ** -m)
            try:
                total = power_trace(unit, 1.0 + 1.0 / k)
                term = math.ldexp(total ** (k / (k + 1.0)) / k, m)
            except (ValueError, OverflowError):  # divergent, or past range
                return math.inf
        best = max(best, term)
    return float(best)


def tilde_mu(t1, t2, t3, t4):
    """mu(T1) - mu(T2) + i*(mu(T3) - mu(T4)), zero-padded to the longest
    input."""
    seqs = [as_sequence(t) for t in (t1, t2, t3, t4)]
    n = max(s.length for s in seqs)
    # the complex output and one input's values, expanded or not
    _check_budget("tilde_mu (%d values)" % n, 24.0 * n)
    out = np.zeros(n, dtype=np.complex128)
    for part, (a, b) in ((out.real, seqs[:2]), (out.imag, seqs[2:])):
        part[: a.length] = a.values
        part[: b.length] -= b.values
    return out


# ---------------------------------------------------------- membership


@dataclass(frozen=True)
class IdealMembershipReport:
    norm_1_inf: float
    in_m1inf: bool | None
    in_weak_l1: bool | None
    witness_weak_l1: float | None
    in_u1inf: bool | None
    witness_u1inf: float | None
    weak_lp: dict
    riesz_proxy: float
    z1_norm: float
    window: tuple | None = None
    fitted_exponents: tuple | None = None


_FIT_TOL = 0.05


def _membership(a, b, ps, band):
    """(in m_(1,inf), in weak-l1, in u_(1,inf), {p: in weak-l_p}) for
    mu_n ~ C (log n)^b n^-a.  a is compared with 1 and 1/p, b with 0 and
    1, and a comparison counts only beyond +-band: band 0 for a tail
    model's exact exponents, _FIT_TOL for regressed ones.

    Where a sits on its threshold the log exponent decides: weak-l_p
    needs b <= 0, u_(1,inf) needs b < 1, and m_(1,inf) coincides with
    weak-l1 on this family.  A b inside a nonzero band around 1 cannot
    tell O(log) from o(log) and reads None; at band 0, b = 1 is out."""
    def side(v, thr):  # +1 above, -1 below, 0 within the band
        return (v > thr + band) - (v < thr - band)

    def weak(thr):  # weak-l_(1/thr)
        return side(a, thr) > 0 if side(a, thr) else b <= band

    in_l1w = weak(1.0)
    if side(a, 1.0):
        in_u = side(a, 1.0) > 0
    elif side(b, 1.0) or not band:
        in_u = side(b, 1.0) < 0
    else:
        in_u = None  # cannot tell O(log) from o(log) in the band
    return in_l1w, in_l1w, in_u, {p: weak(1.0 / p) for p in ps}


def _tail_limsups(tail):
    """(limsup alpha_k, limsup n*mu, limsup n*mu/log n) under the tail
    model, the last two the weak-l1 and u_(1,inf) witnesses; they part
    where the factor oscillates (the oscillator: 2 + sqrt(1/2) and 3)."""
    def limsup(e, peak):  # of C (log n)^e n^(1-a) times the factor
        if tail.power != 1.0:
            return 0.0 if tail.power > 1.0 else math.inf
        return 0.0 if e < 0.0 else (
            tail.coeff * peak if e == 0.0 else math.inf)

    (top, mean), b = tail.peaks, tail.log_power
    return limsup(b, mean), limsup(b, top), limsup(b - 1.0, top)


def ideal_membership(x, ps=()):
    """Membership verdicts for the trace ideal family, all from the
    exponents (a, b) of mu_n ~ C (log n)^b n^-a by _membership.

    With a tail model the exponents are exact (band 0) and the
    witnesses are the analytic limits of _tail_limsups.  A finitely
    supported head is inside everything; a head below 64 values is
    undecided.  Otherwise a log-log regression over the trailing three
    quarters estimates (a, b); verdicts then carry the _FIT_TOL band,
    witnesses are window suprema, and unresolvable flags come back
    None."""
    x = as_sequence(x)
    L = x.length
    nrm = norm_1_inf(x)
    riesz = riesz_seminorm_proxy(x) if x.horizon >= 16 else float("nan")
    z1 = zeta_norm_z1(x)
    ps = [float(p) for p in ps]
    if x.tail is not None:
        a, b = x.tail.power, x.tail.log_power
        in_m, in_l1w, in_u, weak_lp = _membership(a, b, ps, 0.0)
        _, w_l1, w_u = _tail_limsups(x.tail)
        return IdealMembershipReport(
            nrm, in_m, in_l1w, w_l1, in_u, w_u, weak_lp, riesz, z1,
            fitted_exponents=(a, b),
        )
    if L >= 1 and x.at(L) == 0.0:
        # finitely supported: inside everything, all witnesses vanish
        return IdealMembershipReport(nrm, True, True, 0.0, True, 0.0,
                                     dict.fromkeys(ps, True), riesz, z1)
    if L < 64:
        return IdealMembershipReport(nrm, None, None, None, None, None,
                                     dict.fromkeys(ps), riesz, z1)
    lo = max(16, L // 4)
    idx = np.unique(np.geomspace(lo, L, num=96).astype(np.int64))
    n = idx.astype(np.float64)
    mu = x.at(idx)
    design = np.column_stack([np.ones_like(n), np.log(np.log(n)), np.log(n)])
    coef, *_ = np.linalg.lstsq(design, np.log(mu), rcond=None)
    b_hat = float(coef[1])
    a_hat = float(-coef[2])
    in_m, in_l1w, in_u, weak_lp = _membership(a_hat, b_hat, ps, _FIT_TOL)
    w_l1 = float(np.max(n * mu)) if in_l1w else math.inf
    # an unresolved u1inf verdict still reports its window supremum
    w_u = float(np.max(n * mu / np.log(n))) if in_u is not False else math.inf
    return IdealMembershipReport(
        nrm, in_m, in_l1w, w_l1, in_u, w_u, weak_lp, riesz, z1,
        window=(int(lo), int(L)), fitted_exponents=(a_hat, b_hat),
    )


# ------------------------------------------------------- classification


# judge's statuses and absolute thresholds (for sequences at natural
# scale ~1), and the dyadic scan's policy: a horizon below MIN_HORIZON
# is not classified, checkpoints below BURN_IN stay out of its bands,
# and its limit is fitted on the last FIT_CHECKPOINTS checkpoints.
CONVERGED = "Converged"
OSCILLATING = "Oscillating"
UNDETERMINED = "Undetermined"
EPS_CONV = 1e-2
EPS_OSC = 5e-2
MIN_HORIZON = 1024
BURN_IN = 16
FIT_CHECKPOINTS = 6


# judge's answer; status is CONVERGED, OSCILLATING or UNDETERMINED
Judgement = namedtuple("Judgement", "status value band error_estimate note",
                       defaults=("",))


@dataclass(frozen=True)
class TauberianVerdict:
    status: str  # Tauberian | NonTauberian | Undetermined
    limit_estimate: float | None
    oscillation_amplitude: float
    diagnostics: dict = field(default_factory=dict, repr=False)


def _fit_line(zs, vals):
    """Least squares vals ~ a + b*z; returns a and the residuals."""
    design = np.column_stack([np.ones_like(zs), zs])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return float(coef[0]), vals - design @ coef


def _nonneg(value):
    """value, with a roundoff negative above -1e-12 read as 0."""
    return max(value, 0.0) if value > -1e-12 else value


def judge(zs, vals, spread, swing, shown, held):
    """The Judgement of a series whose trend is a line in z.

    Fewer than 3 fit points (zs, vals) are Undetermined: a line fits any
    two.  Else the series is Converged when spread <= EPS_CONV: band is
    the spread, value the intercept a of the line fitted to the points
    (_nonneg), and error_estimate twice its largest residual plus the gap
    from a to the intercept fitted to their trailing half.  Else it is
    Oscillating when swing > EPS_OSC, with value the midpoint of the
    points shown and band and error_estimate their width.  Else it is
    Undetermined, with band the width of the points held.  value and
    error_estimate are NaN where no rule sets them."""
    if len(vals) < 3:
        return Judgement(UNDETERMINED, math.nan, float(np.ptp(held)),
                         math.nan, "fewer than 3 points: a line fits any two")
    if spread <= EPS_CONV:
        a, resid = _fit_line(zs, vals)
        half = len(vals) // 2
        a_half, _ = _fit_line(zs[half:], vals[half:])
        err = 2.0 * float(np.max(np.abs(resid))) + abs(a - a_half)
        return Judgement(CONVERGED, _nonneg(a), spread, err)
    if swing > EPS_OSC:
        lo, hi = float(shown.min()), float(shown.max())
        return Judgement(OSCILLATING, 0.5 * (lo + hi), hi - lo, hi - lo)
    return Judgement(UNDETERMINED, math.nan, float(np.ptp(held)), math.nan)


def tauberian_classify(x):
    """Classify alpha_k behaviour on the dyadic checkpoints up to
    x.horizon.

    A horizon below MIN_HORIZON is not classified.  A horizon below the
    length caps the scan at the values the caller trusts (a matrix
    truncation certifies nothing past a fraction of its dimension, yet
    must still be extrapolated) and lowers that gate to 64.

    judge decides the verdict (Converged is Tauberian, Oscillating
    NonTauberian) on the trend a + b/log(1+k), a line in z = 1/log(1+k),
    fitting the limit on the last FIT_CHECKPOINTS checkpoints.  Its
    spread is the total variation of the detrended residuals over the
    last third of the checkpoints, at least 3 of them (raw alpha still
    drifts at any reachable horizon, so an un-detrended variation test
    would flunk plainly Tauberian data), and its swing the raw band
    there.  The amplitude is the spread when Tauberian, else the raw
    band past BURN_IN: for oscillating data the trailing window sees
    less than a full log-log period, so the wide band is the honest
    lower bound.
    diagnostics holds the "checkpoints", their "alphas" and the
    "judgement", or below the horizon gate only a "note"."""
    x = as_sequence(x)
    H = x.horizon
    min_horizon = MIN_HORIZON if H >= x.length else 64
    if H < min_horizon:
        return TauberianVerdict(
            "Undetermined", None, 0.0,
            {"note": "horizon %d below policy minimum %d"
             % (H, min_horizon)},
        )
    ks = dyadic_schedule(H)
    alphas = log_average(x, ks)
    zs = 1.0 / np.log1p(ks.astype(np.float64))
    # a line through 2 points leaves no residual to vary
    i0 = min((2 * ks.size) // 3, ks.size - 3)
    _, resid = _fit_line(zs[i0:], alphas[i0:])
    past = alphas[ks >= BURN_IN]
    m = FIT_CHECKPOINTS
    j = judge(zs[-m:], alphas[-m:], float(np.sum(np.abs(np.diff(resid)))),
              float(np.ptp(alphas[i0:])), past, past)
    status = {CONVERGED: "Tauberian", OSCILLATING: "NonTauberian"}.get(
        j.status, "Undetermined")
    return TauberianVerdict(
        status, j.value if j.status == CONVERGED else None, j.band,
        {"checkpoints": ks, "alphas": alphas, "judgement": j},
    )


# ----------------------------------------------------- model sequences


# The most values a model sequence stores.  Its tail model gives every
# value and sum past them, exactly as past any head, up to its horizon.
_HEAD_MAX = 2**16
# bytes charged per stored value by _model_sequence: its peak allocation
_BUILD_BYTES = 32.0


def _model_sequence(kind, tail, length, tied=0, sort=False):
    """The kind sequence mu_k = tail.value(k + tail.offset), k = 1 ..
    length, with its first `tied` values tied to the next one: its first
    min(length, _HEAD_MAX) values are stored and the tail continues
    them, scanned to length.  sort sorts the stored values
    nonincreasingly, for a formula that is not monotone near its start.

    A sorted head is cut only where the cut is exact: the tail falls
    past it (log n > log_power / power there) and stays at or below
    every stored value, so sorting all `length` values would give the
    stored ones followed by the tail's.  Otherwise the same body runs
    again with the cut at length, storing every value; this is not a
    second path, as a head that fits under _HEAD_MAX is stored the
    same way."""
    for L in (min(length, _HEAD_MAX), length):
        _check_budget("%s sequence (%d stored values)" % (kind, L),
                      _BUILD_BYTES * L)
        n = np.arange(tied + 1 + tail.offset, L + 1 + tail.offset,
                      dtype=np.float64)
        v = np.empty(L, dtype=np.float64)
        with np.errstate(over="ignore"):  # SingularSequence rejects an inf
            v[tied:] = tail.value(n)
        v[:tied] = v[tied]
        zero = np.flatnonzero(v == 0.0)
        if zero.size:
            raise ValueError("%s value mu_%d with coeff %g underflows the "
                             "float64 range" % (kind, zero[0] + 1, tail.coeff))
        if not sort:
            break
        v = np.sort(v)[::-1].copy()
        n_next = L + 1 + tail.offset
        if L == length or (
                math.log(n_next) * tail.power > tail.log_power
                and v[-1] >= float(tail.value(n_next))):
            break
    return SingularSequence(v, tail, horizon=length)


def harmonic_sequence(horizon=10**6, coeff=1.0):
    """mu_n = coeff / n to horizon: its first min(horizon, 2^16) values
    and the exact tail model PowerLogTail(coeff, 1) past them."""
    H = _horizon(horizon, 1, "harmonic horizon")
    return _model_sequence("harmonic", PowerLogTail(coeff, 1.0), H)


def oscillator_model(horizon=10**7):
    """mu_n = (2 + sin log log n)/n for n >= 3, the standard
    non-Tauberian input (log-log oscillation makes alpha_k wander
    forever), with the first three entries tied at the n=3 value: its
    first min(horizon, 2^16) values and OscillatorTail past them,
    scanned to horizon."""
    H = _horizon(horizon, 3, "oscillator horizon")
    return _model_sequence("oscillator", OscillatorTail(), H, tied=2)


def power_log_sequence(coeff, power, log_power, horizon=10**6):
    """mu_n = coeff (log n)^log_power n^-power at n = 2..horizon, sorted
    nonincreasingly (the raw formula is not monotone near its start for
    log_power > 0), with the tail model attached: head entry k holds
    n = k + 1, so the tail carries offset 1.  At most 2^16 values are
    stored where the tail continues them exactly (_model_sequence)."""
    H = _horizon(horizon, 16, "power-log horizon")
    tail = PowerLogTail(coeff, power, log_power, offset=1)
    return _model_sequence("power-log", tail, H - 1, sort=True)
