"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: fsum loops, mpmath special
functions, brute-force lattice enumeration, quadrature of explicit
integrands.  Package code must never import this module.
"""

import math

import mpmath
import numpy as np


def brute_alpha(values, k):
    """(1/log(1+k)) sum of the k largest moduli, via fsum."""
    v = sorted((abs(float(x)) for x in values), reverse=True)
    return math.fsum(v[:k]) / math.log(1.0 + k)


def brute_norm_1_inf(values):
    v = sorted((abs(float(x)) for x in values), reverse=True)
    best = 0.0
    acc = 0.0
    for i, x in enumerate(v, start=1):
        acc += x
        best = max(best, acc / math.log(1.0 + i))
    return best


def mp_zeta(s):
    return float(mpmath.zeta(s))


def mp_harmonic_sum(lo, hi):
    """sum of 1/n over n = lo..hi."""
    return float(mpmath.harmonic(hi) - mpmath.harmonic(lo - 1))


def mp_power_sum(values, s):
    """sum(v ** s) for float64 inputs at 40 significant digits."""
    with mpmath.workdps(40):
        s = mpmath.mpf(float(s))
        return mpmath.fsum(mpmath.mpf(float(v)) ** s for v in values)


def harm_zeta_em(s, L):
    """sum_{n<=L} n^-s + Euler-Maclaurin tail, coeff-1 harmonic data."""
    head = math.fsum(float(n) ** (-s) for n in range(1, L + 1))
    tail = L ** (1.0 - s) / (s - 1.0) - 0.5 * L ** (-s) \
        + s * L ** (-s - 1.0) / 12.0
    return head + tail


def osc_values(horizon):
    n = np.arange(1, horizon + 1, dtype=np.float64)
    v = (2.0 + np.sin(np.log(np.log(np.maximum(n, 3.0))))) / n
    v[0] = v[1] = v[2]
    return v


def brute_lattice_points(n, radius):
    """All integer points with |m| <= radius, as a list of tuples."""
    r2 = radius * radius
    rng = range(-radius, radius + 1)
    pts = []
    if n == 1:
        pts = [(a,) for a in rng if a * a <= r2]
    elif n == 2:
        pts = [(a, b) for a in rng for b in rng if a * a + b * b <= r2]
    else:
        pts = [
            (a, b, c)
            for a in rng for b in rng for c in rng
            if a * a + b * b + c * c <= r2
        ]
    return pts


def int64_shell_counts(n, radius):
    """The shells of Z^n within radius as an int64 dense pass over every
    ordered pair: increasing k = |m|^2 <= radius^2 and r_n(k) > 0.  Each
    further dimension adds a copy of the shells shifted by each m^2,
    weighted 1 for m = 0 and 2 for m > 0."""
    r2 = radius * radius
    squares = np.arange(radius + 1, dtype=np.int64) ** 2
    weights = np.where(squares > 0, 2, 1)
    keys, counts = squares, weights
    for _ in range(n - 1):
        js = np.searchsorted(keys, r2 - squares, side="right")
        table = np.zeros(r2 + 1, dtype=np.int64)
        for j, sq, w in zip(js, squares, weights):
            table[keys[:j] + sq] += w * counts[:j]
        keys = np.flatnonzero(table)
        counts = table[keys]
    return keys, counts


def ball_point_count(n, radius):
    """#{m in Z^n : |m| <= radius}: for every m' in Z^(n-1) of the ball,
    the 2 isqrt(radius^2 - |m'|^2) + 1 choices of the last coordinate."""
    r2 = radius * radius
    if n == 1:
        return 2 * radius + 1
    ms = range(-radius, radius + 1)
    rest = (r2 - a * a - b * b for a in ms for b in ms) if n == 3 else (
        r2 - a * a for a in ms)
    return sum(2 * math.isqrt(r) + 1 for r in rest if r >= 0)


def brute_heat(values, t, alpha):
    return math.fsum(
        math.exp(-((t * float(v)) ** (-alpha))) for v in values if v > 0
    )


def mp_log_heat_integral(values, T, alpha):
    """sum over v of int_1^T exp(-(s v)^-alpha) ds / s^2, each integral
    by mpmath.quad at 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(float(alpha))
        total = mpmath.fsum(
            mpmath.quad(lambda s: mpmath.exp(-(s * v) ** -a) / s**2, [1, T])
            for v in (mpmath.mpf(float(x)) for x in values)
        )
        return float(total)


def mp_tail_heat_sum(coeff, power, t, alpha, n0):
    """Euler-Maclaurin sum of exp(-(t c n^-a)^-alpha) over n >= n0 at 40
    digits: Gamma(1/beta, z0) q^(-1/beta) / beta + f/2 - f'/12 + f3/720
    at n0, f3 the third derivative of f, with q = (t c)^-alpha, beta =
    a alpha and z0 = q n0^beta."""
    with mpmath.workdps(40):
        c, a, t, alpha = (mpmath.mpf(float(x)) for x in (coeff, power, t,
                                                         alpha))
        q, beta = (t * c) ** -alpha, a * alpha
        z0 = q * mpmath.mpf(n0) ** beta
        f0 = mpmath.exp(-z0)
        d1 = -f0 * alpha * z0 * a / n0
        # f = e^-g, g = q n^beta: f3 = (-g'^3 + 3 g' g'' - g3) f
        g1 = beta * z0 / n0
        g2 = beta * (beta - 1) * z0 / n0**2
        g3 = beta * (beta - 1) * (beta - 2) * z0 / n0**3
        d3 = (-g1**3 + 3 * g1 * g2 - g3) * f0
        body = mpmath.gammainc(1 / beta, z0) * q ** (-1 / beta) / beta
        return float(body + f0 / 2 - d1 / 12 + d3 / 720)


def mp_tail_integral(coeff, power, log_power, x0, x1=None):
    """Integral of coeff (log x)^b x^-a over [x0, x1] (None: infinity) at
    40 digits, by mpmath.quad in u = log x, split where e^{(1-a)u} has
    fallen by e, e^10 and e^100 from its larger end."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(power), mpmath.mpf(log_power)
        u0 = mpmath.log(x0)
        u1 = mpmath.inf if x1 is None else mpmath.log(x1)
        start, step = (u0, 1 / (a - 1)) if a > 1 else (u1, -1 / (1 - a))
        pts = sorted({u0, u1} | {start + y * step for y in (1, 10, 100)
                                 if u0 < start + y * step < u1})
        val = mpmath.quad(lambda u: u**b * mpmath.exp((1 - a) * u), pts)
        return float(coeff * val)


def mp_em_sum(f, n0, n1=None, pts=()):
    """Euler-Maclaurin sum of f over n = n0..n1 (n1 None: infinity) at
    the working precision: mpmath.quad of f(e^u) e^u over u from log n0
    to log n1, split at the u in pts, plus f/2 - f'/12 + f'''/720 at n0
    and, for a finite n1, f/2 + f'/12 - f'''/720 at n1, each derivative
    by mpmath.diff.  mpmath.quad's tolerance is absolute, so it
    integrates f relative to f(n0)."""
    u0 = mpmath.log(n0)
    u1 = mpmath.inf if n1 is None else mpmath.log(n1)
    cuts = sorted({u0, u1} | {u for u in pts if u0 < u < u1})
    f0 = f(mpmath.mpf(n0))
    total = f0 * mpmath.quad(lambda u: f(mpmath.exp(u)) / f0 * mpmath.exp(u),
                             cuts)
    for n, sign in ((n0, 1), (n1, -1)):
        if n is not None:
            n = mpmath.mpf(n)
            total += (f(n) / 2 - sign * mpmath.diff(f, n, 1) / 12
                      + sign * mpmath.diff(f, n, 3) / 720)
    return total


def mp_osc_mu(n):
    """The oscillator value (2 + sin log log n) / n at the working
    precision."""
    return (2 + mpmath.sin(mpmath.log(mpmath.log(n)))) / n


def mp_osc_tail(n0, n1=None, s=1, t=None, alpha=1):
    """The oscillator's sum over n = n0..n1 (n1 None: infinity) of
    mu_n**s, or of exp(-(t mu_n)^-alpha) given t, as an mpf at 40 digits
    by mp_em_sum.  The quadrature is split where e^((1-s)u) has fallen
    by e^(1/4), e, e^4, e^16 and e^64 (s > 1), or where (n - n0) / (3t)
    passes 1/4, 1, 4, 16, 64 and 256: heat terms fall off from n0 at
    least like exp(-(n - n0) / (3t)), so their sum stops at n0 + 3000 t,
    past which the rest is below e^-990 of it."""
    with mpmath.workdps(40):
        s, alpha = mpmath.mpf(s), mpmath.mpf(alpha)
        if t is None:
            def f(n):
                return mp_osc_mu(n) ** s

            pts = [mpmath.log(n0) + y / (s - 1)
                   for y in (0.25, 1, 4, 16, 64)] if s > 1 else []
        else:
            t = mpmath.mpf(t)

            def f(n):
                return mpmath.exp(-(t * mp_osc_mu(n)) ** -alpha)

            pts = [mpmath.log(n0 + 3 * t * y)
                   for y in (0.25, 1, 4, 16, 64, 256)]
            n1 = n0 + 3000 * t if n1 is None else min(n1, n0 + 3000 * t)
        return mp_em_sum(f, n0, n1, pts)


def mp_log_heat_tail(coeff, power, log_power, alpha, n0, t0, t1):
    """int_t0^t1 R(s) ds/s^2 at 30 digits, R(s) the Euler-Maclaurin sum
    over n >= n0 of f_s(n) = exp(-(s mu_n)^-alpha), mu_n = coeff (log
    n)^log_power n^-power: the integral of f_s over n plus f_s/2 -
    f_s'/12 + f3/720 at n0 (mpmath.diff derivatives in n).  The integral
    takes its s-integral first, in closed form: exp(-(s mu)^-alpha)/s^2
    is the s-derivative of mu Gamma(1/alpha + 1) Q(1/alpha, (s mu)^-alpha),
    Q the regularized upper incomplete gamma; its n-range
    ends where (t1 mu_n)^-alpha passes 2000."""
    with mpmath.workdps(30):
        c, a, b, al = (mpmath.mpf(x) for x in (coeff, power, log_power,
                                               alpha))
        t0, t1 = mpmath.mpf(t0), mpmath.mpf(t1)

        def mu(n):
            return c * mpmath.log(n) ** b * n ** -a

        def q(x):
            return mpmath.gammainc(1 / al, x, regularized=True)

        def by_s(m):
            return m * mpmath.gamma(1 / al + 1) * (q((t1 * m) ** -al)
                                                   - q((t0 * m) ** -al))

        pts = [mpmath.log(n0)]
        while (t1 * mu(mpmath.exp(pts[-1]))) ** -al < 2000:
            pts.append(pts[-1] + 1)
        body = mpmath.quad(lambda u: mpmath.exp(u) * by_s(mu(mpmath.exp(u))),
                           pts)

        def ends(s):
            def f(n):
                return mpmath.exp(-(s * mu(n)) ** -al)

            n = mpmath.mpf(n0)
            return (f(n) / 2 - mpmath.diff(f, n, 1) / 12
                    + mpmath.diff(f, n, 3) / 720) / s**2

        return float(body + mpmath.quad(ends, [t0, t1]))


def masked_heat_sum(values, t, alpha, counts=None):
    """The cut heat sum of values in any order, NaN skipped: the leading
    exponent from a scan of every value, then each 2^16 block masked to
    the entries above the cut.  On a nonincreasing head these are the
    float operations of kernels.heat_sum, which sums the kept prefix."""
    chunk = 1 << 16
    t, alpha = float(t), float(alpha)
    values = np.ascontiguousarray(values, dtype=np.float64)
    v_max = float(np.fmax.reduce(values, initial=0.0))
    if v_max == 0.0:
        return 0.0
    try:
        x_lead = (t * v_max) ** -alpha
    except (OverflowError, ZeroDivisionError):
        x_lead = math.inf
    n_terms = values.size if counts is None else int(np.sum(counts))
    x_cut = min(708.0, x_lead + math.log(n_terms) + 64.0 * math.log(2.0))
    for x_max in (x_cut, 750.0):
        v_min = x_max ** (-1.0 / alpha) / t
        total = np.longdouble(0.0)
        for start in range(0, values.size, chunk):
            block = values[start:start + chunk]
            keep = block > v_min
            terms = np.exp(-((t * block[keep]) ** -alpha))
            if counts is not None:
                terms = np.multiply(terms, counts[start:start + chunk][keep],
                                    dtype=np.longdouble)
            total = np.add.reduce(terms, dtype=np.longdouble, initial=total)
        if total >= 2.0 ** -900:
            break
    return float(total)


def weyl_zeta_tail(n, p, s, count):
    """sum over k > count of (omega_n / k)^(a s), a = 2p/n and omega_n the
    volume of the unit n-ball: the Weyl tail of the n-torus spectrum
    (1+|m|^2)^-p past its first count eigenvalues, raised to the s-th
    power, as omega_n^(a s) times the Hurwitz zeta(a s, count + 1)."""
    with mpmath.workdps(30):
        a = 2 * mpmath.mpf(p) / n
        omega = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(
            mpmath.mpf(n) / 2 + 1)
        return float(omega ** (a * s) * mpmath.zeta(a * s, count + 1))


def exact_dominates(x, y):
    """True iff every partial sum of y is <= that of x (shorter input
    zero-padded), in exact integer arithmetic: floats are dyadic
    rationals, scaled here to one common denominator."""
    ratios = [float(v).as_integer_ratio() for v in list(x) + list(y)]
    den = max((d for _, d in ratios), default=1)
    ints = [n * (den // d) for n, d in ratios]
    sx, sy = ints[:len(x)], ints[len(x):]
    sx += [0] * (len(sy) - len(sx))
    sy += [0] * (len(sx) - len(sy))
    ax = ay = 0
    for a, b in zip(sx, sy):
        ax, ay = ax + a, ay + b
        if ay > ax:
            return False
    return True


def gamma_inc_upper(a, x):
    return float(mpmath.gammainc(a, x))


FROZEN = {
    # alpha_100 of mu_n = 1/n
    "harmonic_alpha_100": 1.1239961120647035,
    # sup_k alpha_k for mu_n = 1/n is attained at k = 1
    "harmonic_norm": 1.4426950408889634,
    # harmonic tauberian limit at horizon 1e6 (policy fit)
    "harmonic_limit_1e6": 1.000009,
    # z1 for coeff-1 harmonic with EM tail, schedule 2^3..2^20
    "harmonic_z1": 0.9999873,
    # extrapolated zeta residue, schedule (25, 50, 100, 200), EM tail
    "harmonic_zeta_extrap_err": -2.45e-5,
    # (1/t) sum exp(-n/t) at t = 1e3 for the harmonic model (no tail)
    "harmonic_heat_1e3": 0.999500083333,
    # oscillator at horizon 1e7: scheduled zeta values (1/k) zeta(1+1/k)
    "osc_zeta_50": 1.787996,
    "osc_zeta_5000": 2.488317,
    # oscillator band over dyadic checkpoints past burn-in, horizon 1e7
    "osc_band": 0.544,
    # z1 at horizon 1e6 with the quadrature evaluator, ks 2^3..2^14
    "osc_z1_1e6": 2.5096506800931655,
    # flat 2-torus, cutoff 2000
    "torus_point_count": 12566345,
    "torus_alpha_extrap": 3.1415855,
    "torus_z1_max": 3.14154771,
    # even sublattice of Z^2, cutoff 2000, schedule (25, 50, 100, 200)
    "even_sublattice_residue": 0.7853069729,
    # multiplication matrix f = 2 + cos x, M = 600 / 1200
    "matrix_600_alpha": 4.1384,
    "matrix_1200_alpha": 4.0733,
}
