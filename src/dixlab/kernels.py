"""Hot numerical kernels: sums, power and heat sums, prefix log
averages, submajorization and lattice sweeps.

Each public function is one vectorized numpy routine.  Sums accumulate
in extended precision (``np.longdouble``); horizons reach 1e7 terms and
plain float64 cumsums lose too many digits there.
"""

import math

import numpy as np

# ---------------------------------------------------------------- sums


def comp_sum(values):
    """Sum of a float64 vector, accumulated in extended precision."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.sum(values, dtype=np.longdouble))


def power_sum(values, s):
    """sum(v ** s), powered and summed in extended precision; v must be
    nonnegative."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.sum(values.astype(np.longdouble) ** float(s)))


def heat_sum(values, t, alpha):
    """sum(exp(-(t*v)**(-alpha))) over the positive entries of v; every
    term is kept and the sum accumulates in extended precision."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    v = values[values > 0.0]
    if v.size == 0:
        return 0.0
    terms = np.exp(-((float(t) * v) ** (-float(alpha))))
    return float(np.sum(terms, dtype=np.longdouble))


# ------------------------------------------------- logarithmic averages


def prefix_log_average(values, ks):
    """alpha_k = (sum of first k values) / log(1+k) at checkpoints ks.

    ks must be strictly increasing 1-based indices, each <= len(values).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    sums = np.cumsum(values.astype(np.longdouble))
    return (sums[ks - 1] / np.log(1.0 + ks.astype(np.longdouble))).astype(
        np.float64
    )


def max_log_average(values):
    """(sup_k alpha_k, argmax k) scanning every prefix of values."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty sequence has no log average")
    sums = np.cumsum(values.astype(np.longdouble))
    ks = np.arange(1, values.shape[0] + 1, dtype=np.longdouble)
    alpha = sums / np.log1p(ks)
    i = int(np.argmax(alpha))
    return float(alpha[i]), i + 1


# ------------------------------------------------------ submajorization


def prefix_dominates(x, y):
    """True iff every partial sum of y is <= the matching partial sum
    of x (shorter input zero-padded)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = max(x.shape[0], y.shape[0])
    px = np.zeros(n, dtype=np.longdouble)
    py = np.zeros(n, dtype=np.longdouble)
    px[: x.shape[0]] = x
    py[: y.shape[0]] = y
    return bool(np.all(np.cumsum(py) <= np.cumsum(px)))


# ------------------------------------------------------- lattice sweeps


def lattice_w(n, radius):
    """Unsorted 1 + |m|^2 over integer lattice points with |m| <= radius.

    n in {1, 2, 3}; ties and ordering are left to the caller.
    """
    if n not in (1, 2, 3):
        raise ValueError("lattice dimension must be 1, 2 or 3")
    radius = int(radius)
    if radius < 1:
        raise ValueError("cutoff radius must be >= 1")
    r2 = radius * radius
    if n == 1:
        m = np.arange(-radius, radius + 1, dtype=np.float64)
        return 1.0 + m * m
    rows = []
    if n == 2:
        for m1 in range(-radius, radius + 1):
            h = math.isqrt(r2 - m1 * m1)
            m2 = np.arange(-h, h + 1, dtype=np.float64)
            rows.append(1.0 + m1 * m1 + m2 * m2)
    else:
        for m1 in range(-radius, radius + 1):
            rem1 = r2 - m1 * m1
            h1 = math.isqrt(rem1)
            for m2 in range(-h1, h1 + 1):
                h2 = math.isqrt(rem1 - m2 * m2)
                m3 = np.arange(-h2, h2 + 1, dtype=np.float64)
                rows.append(1.0 + m1 * m1 + m2 * m2 + m3 * m3)
    return np.concatenate(rows)
