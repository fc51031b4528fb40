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
same additions as one cumsum without holding it; one routine reads
them at given indices, in extended precision for log averages or
exactly on Python ints for submajorization's exact pass.  Each
block is accumulated in place in one buffer reused from block to
block, so a call on a head shorter than a block pays for one buffer,
one copy in and one accumulation.

Every sum and prefix sum also takes a run-length input: values v_i
with int64 ``counts`` c_i stand for each v_i repeated c_i times.  The
float64 term of v_i is then multiplied by c_i in extended precision
(exact for c_i < 2^11, within 2^-64 above), so a weighted sum agrees
with the sum over the expanded values to the roundoff of the
accumulator, while it evaluates one term per run.  ``counts=None`` is
the plain input, summed exactly as before: no count array is made.

Submajorization reads a plain input as a run of one at every index, so
every pair takes one path: float64 prefix sums decide each compared
index outside their derived error bound, and the rest, or all when a
sum passes the float range, are decided on exact integer sums.
``sequences.submajorizes`` charges what the two passes hold at the
compared indices to the memory budget first.

The lattice shell table counts the points of Z^n on each shell
|m|^2 = k <= R^2 exactly, in a dense integer table over k.  Its first
step adds each unordered pair a <= b of 1-D shells a^2 + b^2 once (half
the updates of the ordered pairs); the 3-torus then adds the 2-D shells
shifted by each m^2.  The table is int32 when the cube [-R, R]^n has
fewer than 2^31 points, int64 otherwise: every entry and every partial
sum counts distinct points of that cube, so neither can overflow.

Heat sums, and the incomplete-gamma sums S(t) on which their log-scale
means close, read a finite, nonnegative, nonincreasing head, as a
``SingularSequence`` stores it.  Both sum the prefix of terms that the
extended-precision accumulator resolves against the leading one, found
by one bisection (``heat_sum`` states the cut), and read nothing past
it; no kept heat term is a subnormal double, on which ``exp`` is some
50x slower than on a normal one (numpy 2.4 on x86-64).
"""

import math
from bisect import bisect_left
from operator import neg

import numpy as np

# exp(-x) is a normal double for x <= 708 and 0.0 for x >= 750
_X_NORMAL, _X_ZERO = 708.0, 750.0
_TINY_HEAT = 2.0 ** -900
_LN_2_64 = 64.0 * math.log(2.0)
_CHUNK = 1 << 16
_EPS, _TINY = 2.0 ** -52, 2.0 ** -1074

# ---------------------------------------------------------------- sums


def _block_sum(values, terms=None, counts=None):
    """The extended-precision sum of terms(v) over values in blocks of
    _CHUNK (of the values themselves when terms is None), each term
    times its count when counts is given."""
    total = np.longdouble(0.0)
    for start in range(0, values.size, _CHUNK):
        block = values[start:start + _CHUNK]
        c = None if counts is None else counts[start:start + _CHUNK]
        if terms is not None:
            block = terms(block)
        if c is not None:
            block = np.multiply(block, c, dtype=np.longdouble)
        total = np.add.reduce(block, dtype=np.longdouble, initial=total)
    return total


def _as_counts(counts, values):
    """counts as an int64 array matching values, or None."""
    if counts is None:
        return None
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if counts.shape != values.shape:
        raise ValueError("counts must match values")
    return counts


def comp_sum(values, counts=None):
    """Sum of a float64 vector (each entry times its count, if given),
    accumulated in extended precision."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    return float(_block_sum(values, counts=_as_counts(counts, values)))


def power_sum(values, s, counts=None):
    """sum(c * v ** s), each power taken in float64 (+inf past its
    range) and the sum accumulated in extended precision; v must be
    nonnegative, and c is the count of v (1 when counts is None)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    s = float(s)
    with np.errstate(over="ignore"):
        return float(_block_sum(values, lambda v: v ** s,
                                _as_counts(counts, values)))


def heat_sum(values, t, alpha, counts=None):
    """sum(c * exp(-(t*v)**(-alpha))) over the positive entries of v,
    for t, alpha > 0, accumulated in extended precision; v finite,
    nonnegative and nonincreasing, c its count (1 when counts is None).

    With x_lead = (t * v[0])^-alpha the exponent of the leading term,
    entries whose exponent is x_cut = min(708, x_lead + ln N + 64 ln 2)
    or more are skipped, N the number of terms (the total count).  Each
    skipped term is below 2^-64 / N of the leading term or below
    exp(-708) < 2^-1021, so with fewer than 2^50 terms they total under
    2^-64 of any kept sum of 2^-900 or more, and no kept term is
    subnormal.  A kept sum below 2^-900 is taken again skipping only the
    terms that are exactly 0.0.  The kept terms are a prefix of v."""
    return _kept_sum(values, t, alpha, counts,
                     lambda v, x: np.exp(-x), 1.0)


def heat_gamma_sum(values, t, alpha, counts=None):
    """S(t) = sum(c * v * Q(1/alpha, (t*v)**(-alpha))), Q the regularized
    upper incomplete gamma function, on which log-scale heat means close:
    d/dt [v Gamma(1/alpha + 1) Q(1/alpha, (t v)^-alpha)] = e^-(t v)^-alpha
    / t^2.  A term is h(x) / t, h(x) = x^(-1/alpha) Q(1/alpha, x) at x =
    (t v)^-alpha; v cancels Q's factor x^(1/alpha - 1), growing for alpha
    < 1, so h(x) <= e^(x_lead - x) h(x_lead) and, past 708, h(x) <= e^-x
    at every alpha: heat_sum's cut and bounds hold for the terms times t.
    """
    return _kept_sum(values, t, alpha, counts,
                     lambda v, x: v * gamma_q(1.0 / alpha, x), t)


def gamma_q(a, x):
    """Q(a, x), the regularized upper incomplete gamma function: exactly
    e^-x at a = 1, else scipy.special.gammaincc, imported only then so
    that importing the package does not load scipy.special."""
    if a == 1.0:
        return np.exp(-x)
    from scipy.special import gammaincc
    return gammaincc(a, x)


def _kept_sum(values, t, alpha, counts, term, scale):
    """The extended-precision sum of c * term(v, x), x = (t v)^-alpha,
    over the prefix of v kept by heat_sum's cut, for terms below e^-x /
    scale past x = 708: retaken over every x < 750 when it times scale
    is under 2^-900.  A t * v past the float range reads as x = 0."""
    t, alpha = float(t), float(alpha)
    if not (t > 0.0 and alpha > 0.0):
        raise ValueError("t and alpha must be positive")
    values = np.ascontiguousarray(values, dtype=np.float64)
    counts = _as_counts(counts, values)
    v_max = float(values[0]) if values.size else 0.0
    if v_max == 0.0:
        return 0.0
    try:
        x_lead = (t * v_max) ** -alpha
    except (OverflowError, ZeroDivisionError):  # t * v_max tiny or 0.0
        x_lead = math.inf
    n_terms = values.size if counts is None else int(counts.sum())
    x_cut = min(_X_NORMAL, x_lead + math.log(n_terms) + _LN_2_64)
    for x_max in (x_cut, _X_ZERO):
        # the first k have v > x_max^(-1/alpha) / t: (t*v)^(-alpha) < x_max
        k = bisect_left(values, -x_max ** (-1.0 / alpha) / t, key=neg)
        with np.errstate(over="ignore", divide="ignore"):
            total = _block_sum(
                values[:k], lambda v: term(v, (t * v) ** -alpha),
                None if counts is None else counts[:k])
        if total * scale >= _TINY_HEAT:
            break
    return float(total)


# ------------------------------------------------- logarithmic averages


def _running_sums(values, stop, counts=None, e0=None):
    """Yield (start, run) over values[:stop] in chunks of _CHUNK: run[i]
    is the sum of the first start + i values (each times its count, if
    given), added one at a time as np.cumsum adds them: in extended
    precision, or with e0 exactly, on Python ints in units of 2^e0 (see
    _as_ints).  run is one reused buffer, valid until the next chunk."""
    buf = np.zeros(min(_CHUNK, stop) + 1,
                   dtype=np.longdouble if e0 is None else object)
    for start in range(0, stop, _CHUNK):
        end = min(start + _CHUNK, stop)
        run = buf[:end - start + 1]
        run[1:] = values[start:end] if e0 is None else _as_ints(
            values[start:end], e0)
        if counts is not None:
            run[1:] *= counts[start:end]
        np.add.accumulate(run, out=run)
        yield start, run
        buf[0] = run[-1]


def _as_ints(values, e0):
    """values as Python ints in units of 2^e0, e0 at most the weight of
    the last mantissa bit of every nonzero value: v = m 2^e with m a
    53-bit integer is m << (e - e0) units."""
    mant, expo = np.frexp(values)
    ints = np.ldexp(mant, 53).astype(np.int64).astype(object)
    ints <<= np.maximum(expo - 53 - e0, 0).astype(object)
    return ints


def _run_ends(counts, size):
    """The 1-based index that ends each run: every index of a plain
    input (counts None) of size values."""
    return np.arange(1, size + 1) if counts is None else np.cumsum(counts)


def _run_of(counts, ks):
    """(r, before): the 0-based run that holds each 1-based index k of
    the expanded sequence, and the number of entries before that run; a
    plain input (counts None) is a run of one at every index."""
    if counts is None:
        return ks - 1, ks - 1
    ends = np.cumsum(counts)
    r = np.searchsorted(ends, ks)
    return r, ends[r] - counts[r]


def _prefix_sums(values, ks, counts=None, e0=None):
    """Sums of the first k expanded values at increasing 1-based ks
    (past the end the total), as _running_sums gives them chunk by
    chunk: the running sum at k, or at the run r holding k plus
    (k - C_{r-1}) v_r for a run-length input, C the cumulative counts."""
    n = values.size if counts is None else int(counts.sum())
    if ks.size and ks[-1] > n:
        ks = np.minimum(ks, n)
    at, before = (ks, None) if counts is None else _run_of(counts, ks)
    stop = int(at[-1]) if at.size else 0
    sums = np.zeros(ks.size, dtype=np.longdouble if e0 is None else object)
    lo = 0
    for start, run in _running_sums(values, stop, counts, e0):
        end = start + run.size - 1
        hi = at.size if stop <= end else np.searchsorted(at, end, "right")
        run.take(at[lo:hi] - start if start else at[lo:hi], out=sums[lo:hi])
        lo = hi
    if counts is not None:
        v = values[at]
        step = v.astype(np.longdouble) if e0 is None else _as_ints(v, e0)
        step *= ks - before
        sums += step
    return sums


def prefix_log_average(values, ks, counts=None):
    """alpha_k = (sum of first k values) / log(1+k) at checkpoints ks.

    ks must be strictly increasing 1-based indices, each <= len(values),
    or <= counts.sum() for a run-length input; the sums are those of
    _prefix_sums, which make the additions np.cumsum makes.  An alpha_k
    past the float64 range raises ValueError.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    sums = _prefix_sums(values, ks, _as_counts(counts, values))
    with np.errstate(over="ignore"):
        alphas = (sums / np.log(1.0 + ks.astype(np.longdouble))).astype(
            np.float64)
    past = np.isinf(alphas)
    if past.any():
        raise ValueError("log average lies past the float64 range at k = %d"
                         % ks[past.argmax()])
    return alphas


def max_log_average(values, counts=None):
    """sup_k alpha_k over every prefix of values, or of the expanded runs
    when counts is given.

    A run-length input is tested at the two ends of each run only, which
    is exact: within a run of value v >= 0 the sum is S(k) = a + v k with
    a >= 0, and alpha_k = S(k) / log(1+k) is quasi-convex in k, since
    the sign of its derivative is that of v log(1+k) - S(k)/(1+k), whose
    own derivative S(k)/(1+k)^2 is >= 0.  So alpha first falls, then
    rises, and its largest value over the run sits at an end.  An alpha_k
    past the float64 range raises ValueError, as in prefix_log_average."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty sequence has no log average")
    if counts is not None:
        counts = _as_counts(counts, values)
        ends = np.cumsum(counts)
    best = -math.inf
    for start, run in _running_sums(values, values.size, counts):
        if counts is None:
            ks = np.arange(start + 1, start + run.size, dtype=np.float64)
            s = run[1:]
        else:
            # each run's first and last index, in increasing order
            last = ends[start:start + run.size - 1]
            first = last - counts[start:start + last.size] + 1
            ks = np.column_stack([first, last]).ravel()
            s = np.column_stack([run[:-1] + values[start:start + last.size],
                                 run[1:]]).ravel()
        alpha = s / np.log1p(ks.astype(np.float64, copy=False))
        best = np.maximum(best, alpha.max())  # a NaN input stays NaN
        if math.isinf(float(best)):
            with np.errstate(over="ignore"):
                k = ks[np.isinf(alpha.astype(np.float64)).argmax()]
            raise ValueError("log average lies past the float64 range at "
                             "k = %d" % k)
    return float(best)


# ------------------------------------------------------ submajorization


def prefix_dominates(x, y, x_counts=None, y_counts=None):
    """True iff every partial sum of y is <= the matching partial sum
    of x (nonnegative nonincreasing values, shorter input zero-padded),
    decided exactly.

    Either input may be run-length (counts given) or plain, a run of
    one at every index.  Both prefix sums are linear between the run
    ends of x and of y, so they are compared at the union of those ends
    only, which is every index when both are plain.  A float64 pass
    decides each end whose gap passes the bound below, in one reduction
    when every end does; the ends within the bound, or every end when a
    sum or the bound is not finite, are decided again on exact integer
    sums in units of 2^e0 (_exact_unit of x and y), streamed by
    _prefix_sums.  One path serves every pair; sequences.submajorizes
    charges what it holds to the memory budget before it calls this
    kernel.

    The bound.  With u = 2^-53 and g(m) = m u / (1 - m u), a float64
    prefix sum at an end in run r (from 0, below n the runs of its
    input) adds r + 1 nonnegative terms in r rounded additions, the
    first to 0 being exact.  A term is a plain value, exact, or a
    product v c, rounded once, or twice for a c past 2^53, which
    float64 rounds first.  No term passes more than m = n + 1
    roundings, so the sum is within g(m) S of its value S, plus 2^-1075
    per product that lands subnormal (an addition that lands subnormal
    is exact).  S is at most the total T <= T' / (1 - g(m)), T' its
    float64 value, so for m < 2^48 the error is below 0.54 m eps T',
    eps = 2u.  The bound m eps T' + m 2^-1074, summed over x and y, is
    thus about twice the error of the gap, which covers its own
    rounding and the gap's: a rounded difference keeps its sign and is
    within u of the difference.  (No input that fits in memory has
    2^48 runs.)"""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    x_counts, y_counts = _as_counts(x_counts, x), _as_counts(y_counts, y)
    if not (x.size and y.size):  # an empty input sums to 0 everywhere
        return not y.any()
    ks = None if x_counts is None and y_counts is None else np.union1d(
        _run_ends(x_counts, x.size), _run_ends(y_counts, y.size))
    n = max(x.size, y.size)
    with np.errstate(over="ignore"):
        px, bx = _float_sums(x, x_counts, ks, n)
        py, by = _float_sums(y, y_counts, ks, n)
    bound = bx + by
    if math.isfinite(bound):
        gap = np.subtract(px, py, out=px)
        del px, py  # the exact pass holds only the sums at its own ends
        least = np.minimum.reduce(gap)
        if least > bound:
            return True
        if least < -bound:
            return False
        undecided = gap <= bound
        del gap
        ks = np.flatnonzero(undecided) + 1 if ks is None else ks[undecided]
        del undecided
    else:
        del px, py
        if ks is None:
            ks = np.arange(1, n + 1)
    e0 = _exact_unit(x, y)
    return bool((_prefix_sums(y, ks, y_counts, e0)
                 <= _prefix_sums(x, ks, x_counts, e0)).all())


def _float_sums(values, counts, ks, n):
    """(sums, bound): float64 sums of the first k expanded values (past
    the end the total) at the increasing 1-based ks, or at every k up
    to n of a plain input when ks is None, and prefix_dominates' bound
    for them.  A plain input at ks is read as runs of one."""
    if ks is None:
        sums = np.empty(n)
        np.add.accumulate(values, out=sums[:values.size])
        if n > values.size:
            sums[values.size:] = sums[values.size - 1]
    else:
        ks = np.minimum(ks, values.size if counts is None else counts.sum())
        r, before = _run_of(counts, ks)
        run = np.zeros(values.size + 1)
        run[1:] = values if counts is None else values * counts
        np.add.accumulate(run, out=run)
        sums = run[r] + (ks - before) * values[r]
    m = values.size + 1
    return sums, m * _EPS * float(sums[-1]) + m * _TINY


def _exact_unit(*heads):
    """e0 for _as_ints over nonempty nonincreasing heads, at most -53:
    the last mantissa bit of the last positive value of any head."""
    last = [v[-1] if v[-1] > 0.0 else v[bisect_left(v, 0.0, key=neg) - 1]
            for v in heads]  # or 0.0
    return min(0, *(math.frexp(v)[1] for v in last)) - 53


# ------------------------------------------------------- lattice sweeps


def shell_counts(n, radius):
    """The nonzero shells of Z^n within radius, exact: increasing
    k = |m|^2 <= radius^2 and r_n(k) = #{m in Z^n : |m|^2 = k} > 0, as
    two int64 arrays.

    Starts from the 1-D shells m^2 <= radius^2, of weight w_0 = 1 and
    w_m = 2 for m > 0, into a dense 0..radius^2 table.  The first step
    adds each unordered pair a <= b with a^2 + b^2 <= radius^2 once: the
    diagonal a = b with weight w_a^2 and each a < b with 2 w_a w_b = 4 w_a,
    for a up to 2 a^2 <= radius^2.  On the 3-torus a second table takes
    the 2-D shells shifted by each m^2, weighted w_m.

    The table and its counts are int32 when (2 radius + 1)^n < 2^31,
    else int64.  Every entry and every partial sum counts distinct
    points of Z^n inside the cube [-radius, radius]^n, so none passes
    (2 radius + 1)^n.  Each table is freed as soon as its shells are
    read, and the counts are returned as int64.

    Besides four words per 1-D shell (the squares, weights, their ends
    js and one temporary), a pass holds at most 16 + 2b bytes per table
    entry, b the table's item size: on the 3-torus the table, the 2-D
    shells' int64 keys and counts and one shifted copy of the keys; at
    the end the table with its int64 keys and counts, then the keys
    with both the counts and their int64 copy.  _shell_bytes is this
    bound, and models._shells charges it.
    n in {1, 2, 3} and the integer radius >= 1 are models._shells' to
    check.
    """
    r2 = radius * radius
    squares = np.arange(radius + 1, dtype=np.int64) ** 2
    weights = np.where(squares > 0, 2, 1)
    if n == 1:
        return squares, weights
    dtype = _table_dtype(n, radius)
    # b with a^2 + b^2 <= r2 are the first js[a] shells
    js = np.searchsorted(squares, r2 - squares, side="right")
    half = int(np.searchsorted(2 * squares, r2, side="right"))
    table = np.zeros(r2 + 1, dtype=dtype)
    table[2 * squares[:half]] = weights[:half] ** 2  # distinct keys
    for a, j in enumerate(js[:half]):
        table[squares[a + 1:j] + squares[a]] += 4 * int(weights[a])
    for _ in range(n - 2):
        keys = np.flatnonzero(table)
        counts = table[keys]
        del table
        js = np.searchsorted(keys, r2 - squares, side="right")
        table = np.zeros(r2 + 1, dtype=dtype)
        table[keys] = counts  # m = 0
        counts *= 2  # w_m for m > 0
        for j, sq in zip(js[1:], squares[1:]):
            # in place, with no gathered copy: half the time of += at
            # radius 1000 (numpy 2.4)
            np.add.at(table, keys[:j] + sq, counts[:j])
        del keys, counts
    keys = np.flatnonzero(table)
    counts = table[keys]
    del table
    return keys, counts.astype(np.int64, copy=False)


def _table_dtype(n, radius):
    """The dtype of shell_counts' table: int32 when (2 radius + 1)^n,
    the points of the cube [-radius, radius]^n, is below 2^31."""
    return np.int32 if (2 * radius + 1) ** n < 2 ** 31 else np.int64


def _shell_bytes(n, radius):
    """The most bytes shell_counts(n, radius) holds: four words per 1-D
    shell and, for n >= 2, 16 + 2b per entry of its radius^2 + 1 table,
    b the table's item size."""
    need = 32.0 * (radius + 1)
    if n > 1:
        item = np.dtype(_table_dtype(n, radius)).itemsize
        need += (16.0 + 2.0 * item) * (radius * radius + 1)
    return need


def lattice_w(n, radius):
    """1 + |m|^2 over integer lattice points with |m| <= radius, in
    nondecreasing order: each shell value repeated r_n(k) times."""
    keys, counts = shell_counts(n, radius)
    return np.repeat(1.0 + keys, counts)
