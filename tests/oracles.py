"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: fsum loops, mpmath special
functions, brute-force lattice enumeration, quadrature of explicit
integrands.  Package code must never import this module.
"""

import math

import mpmath
import numpy as np
from scipy import integrate


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


def osc_zeta_quad(s, vals):
    """Head power sum plus the continuum tail of the oscillator model."""
    head = float(np.sum(vals ** s))
    u0 = math.log(len(vals))

    def g(u):
        return (2.0 + math.sin(math.log(u))) ** s * math.exp((1.0 - s) * u)

    tail, _ = integrate.quad(g, u0, np.inf, limit=400)
    return head + tail


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


def brute_heat(values, t, alpha):
    return math.fsum(
        math.exp(-((t * float(v)) ** (-alpha))) for v in values if v > 0
    )


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
