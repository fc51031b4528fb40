"""Hot numerical kernels: sums, power and heat sums, prefix log
averages, submajorization, and the exact lattice shell table with the
ordered lattice sweep built on it.

Each public function is one vectorized numpy routine, and every sum
follows one precision rule: terms are evaluated in float64 and
accumulated in extended precision (``np.longdouble``).  Horizons reach
1e7 terms, where a float64 accumulator loses too many digits; a float64
term is already within about one ulp, and evaluating the terms in
``longdouble`` costs some 40x more time for digits a float64 result
cannot keep.

Sums stream: each is accumulated over blocks of ``_CHUNK`` = 2^16
values, every block's reduction seeded with the previous total, so no
temporary the size of the input is made.  2^16 is a multiple of numpy's
8192-element reduction buffer, so the additions are exactly those of one
``np.sum`` over the same terms.  Prefix sums run in the same blocks,
each block's cumsum seeded with the previous total, so they make the
same additions as one cumsum without holding it.

Heat sums stop at the extended-precision resolution of their leading
term exp(-x_lead), x_lead = (t max v)^-alpha: they skip every term
below exp(-x_cut), x_cut = min(708, x_lead + ln N + 64 ln 2).  The N or
fewer skipped terms then total under 2^-64 of the sum, below the
roundoff of the ``longdouble`` accumulator, and none of the kept terms
is a subnormal double, on which ``exp`` is some 50x slower than on a
normal one (numpy 2.4 on x86-64).  A sum below 2^-900 is taken again
keeping every nonzero term.
"""

import math

import numpy as np

# exp(-x) is a normal double for x <= 708 and 0.0 for x >= 750
_X_NORMAL, _X_ZERO = 708.0, 750.0
_TINY_HEAT = 2.0 ** -900
_LN_2_64 = 64.0 * math.log(2.0)
_CHUNK = 1 << 16

# ---------------------------------------------------------------- sums


def _block_sum(values, terms=None):
    """The extended-precision sum of terms(block) over values in blocks
    of _CHUNK (of the values themselves when terms is None)."""
    total = np.longdouble(0.0)
    for start in range(0, values.size, _CHUNK):
        block = values[start:start + _CHUNK]
        total = np.add.reduce(block if terms is None else terms(block),
                              dtype=np.longdouble, initial=total)
    return total


def comp_sum(values):
    """Sum of a float64 vector, accumulated in extended precision."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    return float(_block_sum(values))


def power_sum(values, s):
    """sum(v ** s), each power taken in float64 and the sum accumulated
    in extended precision; v must be nonnegative."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    s = float(s)
    return float(_block_sum(values, lambda v: v ** s))


def heat_sum(values, t, alpha):
    """sum(exp(-(t*v)**(-alpha))) over the positive entries of v, for
    t, alpha > 0, accumulated in extended precision; v in any order.

    With x_lead = (t * max v)^-alpha the exponent of the leading term,
    entries whose exponent is x_cut = min(708, x_lead + ln N + 64 ln 2)
    or more are skipped.  Each skipped term is below 2^-64 / N of the
    leading term or below exp(-708) < 2^-1021, so with fewer than 2^50
    entries they total under 2^-64 of any kept sum of 2^-900 or more,
    and no kept term is subnormal.  A kept sum below 2^-900 is taken
    again skipping only the terms that are exactly 0.0."""
    t, alpha = float(t), float(alpha)
    if not (t > 0.0 and alpha > 0.0):
        raise ValueError("t and alpha must be positive")
    values = np.ascontiguousarray(values, dtype=np.float64)
    v_max = float(np.fmax.reduce(values, initial=0.0))  # skips NaN
    if v_max == 0.0:
        return 0.0
    try:
        x_lead = (t * v_max) ** -alpha
    except (OverflowError, ZeroDivisionError):  # t * v_max tiny or 0.0
        x_lead = math.inf
    x_cut = min(_X_NORMAL, x_lead + math.log(values.size) + _LN_2_64)
    for x_max in (x_cut, _X_ZERO):
        # v > x_max^(-1/alpha) / t  <=>  (t*v)^(-alpha) < x_max
        v_min = x_max ** (-1.0 / alpha) / t

        def terms(block):
            v = block[block > v_min]
            return np.exp(-((t * v) ** -alpha))

        total = _block_sum(values, terms)
        if total >= _TINY_HEAT:
            break
    return float(total)


# ------------------------------------------------- logarithmic averages


def _running_sums(values, stop):
    """Yield (start, run) over values[:stop] in chunks of _CHUNK: run[i]
    is the extended-precision sum of the first start + i values, added
    one at a time as np.cumsum adds them.  run is one reused buffer,
    valid until the next chunk."""
    buf = np.zeros(min(_CHUNK, stop) + 1, dtype=np.longdouble)
    for start in range(0, stop, _CHUNK):
        run = buf[: min(_CHUNK, stop - start) + 1]
        run[1:] = values[start:start + run.size - 1]
        np.cumsum(run, out=run)
        yield start, run
        buf[0] = run[-1]


def prefix_log_average(values, ks):
    """alpha_k = (sum of first k values) / log(1+k) at checkpoints ks.

    ks must be strictly increasing 1-based indices, each <= len(values).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    sums = np.empty(ks.size, dtype=np.longdouble)
    for start, run in _running_sums(values, int(ks[-1]) if ks.size else 0):
        here = (ks > start) & (ks < start + run.size)
        sums[here] = run[ks[here] - start]
    return (sums / np.log(1.0 + ks.astype(np.longdouble))).astype(np.float64)


def max_log_average(values):
    """(sup_k alpha_k, argmax k) scanning every prefix of values; the
    first k wins a tie."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty sequence has no log average")
    best, best_k = None, 0
    for start, run in _running_sums(values, values.size):
        ks = np.arange(start + 1, start + run.size, dtype=np.float64)
        alpha = run[1:] / np.log1p(ks)
        i = int(np.argmax(alpha))
        if best is None or alpha[i] > best:
            best, best_k = alpha[i], start + i + 1
    return float(best), best_k


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


def shell_counts(n, radius):
    """The nonzero shells of Z^n within radius, exact: increasing
    k = |m|^2 <= radius^2 and r_n(k) = #{m in Z^n : |m|^2 = k} > 0, as
    two int64 arrays.

    Starts from the point mass at 0 and, once per dimension, adds a copy
    of the shells shifted by each m^2 <= radius^2 (weight 1 for m = 0, 2
    for m > 0).  Copies holding at most a quarter as many entries as a
    dense 0..radius^2 table are merged by sorting, others are added into
    that table, so the 1-torus keeps radius + 1 shells and no pass holds
    more than a few words per lattice point or per table entry, whichever
    is fewer.  n in {1, 2, 3}.
    """
    if n not in (1, 2, 3):
        raise ValueError("lattice dimension must be 1, 2 or 3")
    radius = int(radius)
    if radius < 1:
        raise ValueError("cutoff radius must be >= 1")
    r2 = radius * radius
    squares = np.arange(radius + 1, dtype=np.int64) ** 2
    weights = np.where(squares > 0, 2, 1)
    keys = np.zeros(1, dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    for _ in range(n):
        # the copy shifted by m^2 takes the js[m] shells with k + m^2 <= r2
        js = np.searchsorted(keys, r2 - squares, side="right")
        total = int(js.sum())
        if 4 * total <= r2:
            m = np.repeat(np.arange(radius + 1), js)
            i = np.arange(total) - np.repeat(np.cumsum(js) - js, js)
            k = keys[i] + squares[m]
            order = np.argsort(k, kind="stable")
            k, c = k[order], (counts[i] * weights[m])[order]
            first = np.flatnonzero(np.diff(k, prepend=-1))
            keys, counts = k[first], np.add.reduceat(c, first)
        else:
            table = np.zeros(r2 + 1, dtype=np.int64)
            for j, sq, w in zip(js, squares, weights):
                table[keys[:j] + sq] += w * counts[:j]
            keys = np.flatnonzero(table)
            counts = table[keys]
    return keys, counts


def lattice_w(n, radius):
    """1 + |m|^2 over integer lattice points with |m| <= radius, in
    nondecreasing order: each shell value repeated r_n(k) times."""
    keys, counts = shell_counts(n, radius)
    return np.repeat(1.0 + keys, counts)
