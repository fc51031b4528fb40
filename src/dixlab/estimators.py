"""Three measurements of the logarithmic trace divergence and the
cross-checks between them.

Every estimator returns a TraceEstimate rather than a bare number: the
limiting functional is a generalised limit that no finite computation
can apply, so the honest outputs are a limit when the checkpoint series
converges, a band when it demonstrably oscillates, and a refusal
otherwise.  Extrapolation orders are fixed by the leading error terms
of the harmonic oracle: 1/log N for the log average, 1/k for the zeta
schedule, 1/t for the raw heat functional.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, models
from .sequences import (
    CONVERGED,
    EPS_CONV,
    OSCILLATING,
    UNDETERMINED,
    PowerLogTail,
    SingularSequence,
    _exp_tail,
    _finite,
    _fit_line,
    _nonneg,
    _zeta_schedule,
    as_sequence,
    dyadic_schedule,
    judge,
    log_average,
    power_trace,
    tail_heat_sum,
    tail_power_sum,
    tail_quad,
    tauberian_classify,
)

# default schedules: zeta at s = 1 + 1/k, heat at times t
ZETA_SCHEDULE = (25, 50, 100, 200)
HEAT_SCHEDULE = (1e2, 1e3, 1e4)
# converged estimates agree when their spread is within AGREEMENT_TOL,
# relative to max(1, |value|)
AGREEMENT_TOL = 1e-2


@dataclass(frozen=True)
class TraceEstimate:
    """One estimator's verdict, decided by sequences.judge: a value only
    when defensible.

    Converged: value is the extrapolated limit (heat_cesaro: its last
    scheduled value), oscillation the spread judged (a schedule's fit
    residual band, the dixmier scan's detrended residual total
    variation), and error_estimate twice the largest residual of the
    line fitted to the judged points plus the gap to the line fitted to
    their trailing half.  Oscillating: value is the midpoint of the
    observed band, oscillation and error_estimate its width.
    Undetermined: value and error_estimate are NaN.  Nothing in the
    package reads error_estimate and the CLI report leaves it out; it
    does not bound the error on every input (the dixmier fit's falls
    short of the error against the analytic target on most of them)."""

    method: str
    value: float
    raw_series: tuple
    extrapolated: bool
    oscillation: float
    status: str
    error_estimate: float = math.nan
    notes: str = field(default="", compare=False)

    def __post_init__(self):
        if self.status not in (CONVERGED, OSCILLATING, UNDETERMINED):
            raise ValueError("unknown status %r" % self.status)
        if self.status == CONVERGED and not self.oscillation <= EPS_CONV:
            raise ValueError("Converged estimate with oscillation above policy")


def _series_estimate(method, ks, vals, zs, extrapolate, notes=""):
    """A zeta/heat schedule's TraceEstimate: judge on every point, with
    the residual band of the line vals ~ a + b*z (z the method's decay
    variable) as spread, swing and held band.  Converged without
    extrapolate, the value is the last one."""
    vals = np.asarray(vals, dtype=np.float64)
    _, resid = _fit_line(zs, vals)
    band = float(np.ptp(resid))
    j = judge(zs, vals, band, band, vals, resid)
    converged = j.status == CONVERGED
    value = j.value if extrapolate or not converged else _nonneg(
        float(vals[-1]))
    return TraceEstimate(
        method, value, (np.asarray(ks, dtype=np.float64), vals),
        extrapolate and converged, j.band, j.status,
        error_estimate=j.error_estimate,
        notes="; ".join(filter(None, (notes, j.note))),
    )


# ------------------------------------------------------ dixmier estimate


def dixmier_estimate(source):
    """Log-average estimate over the dyadic checkpoints up to the
    sequence's horizon.

    Every field comes from tauberian_classify's judgement of the
    checkpoint series.  A horizon below the length caps the scan and
    lowers its gate as in tauberian_classify (matrix truncations, whose
    singular values past a fraction of the dimension are unreliable)."""
    x = as_sequence(source)
    diag = tauberian_classify(x).diagnostics
    raw = (diag.get("checkpoints", np.empty(0, dtype=np.int64)),
           diag.get("alphas", np.empty(0)))
    notes = "tail model attached" if x.tail is not None else "head only"
    j = diag.get("judgement")
    if j is None:  # the horizon is below the gate
        return TraceEstimate("dixmier_alpha", math.nan, raw, False, 0.0,
                             UNDETERMINED, notes=notes + "; " + diag["note"])
    notes += {OSCILLATING: "; value is the band midpoint",
              UNDETERMINED: "; classification undetermined"}.get(j.status, "")
    return TraceEstimate(
        "dixmier_alpha", j.value, raw, j.status == CONVERGED, j.band,
        j.status, error_estimate=j.error_estimate, notes=notes,
    )


# -------------------------------------------------------- zeta estimate


def zeta_residue_estimate(source, k_schedule=ZETA_SCHEDULE):
    """(1/k) * Tr(T^{1+1/k}) over the schedule, Tr by power_trace,
    extrapolated linearly in 1/k.  A bare head (no tail, a nonzero last
    value mu_L) is judged at each s against the worst
    m_(1,inf)-compatible continuation mu_n = mu_L L / n: if that could
    shift the sum by more than 1%, the schedule point is untrustworthy
    and the whole estimate is refused."""
    ks = _zeta_schedule(k_schedule)
    x = as_sequence(source)
    L = x.length
    edge = 0.0 if x.tail is not None or L == 0 else float(x.at(L))
    vals = np.empty(ks.size)
    guarded = True
    for i, k in enumerate(ks):
        s = 1.0 + 1.0 / float(k)
        z = power_trace(x, s)
        vals[i] = z / float(k)
        guarded &= edge**s * L / (s - 1.0) <= 0.01 * z
    if not guarded:
        return TraceEstimate(
            "zeta_residue", math.nan, (ks, vals), False, 0.0, UNDETERMINED,
            notes="head truncation dominates at scheduled s; "
            "attach a tail model or shorten the schedule",
        )
    return _series_estimate("zeta_residue", ks, vals, 1.0 / ks, True)


# -------------------------------------------------------- heat estimates


def _alpha(alpha_exp):
    """alpha_exp as a float, or ValueError unless positive and finite."""
    alpha = float(alpha_exp)
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha_exp must be positive and finite")
    return alpha


def heat_trace(source, t, alpha_exp=1.0):
    """g(t) = (1/t) * sum_n exp(-(t mu_n)^{-alpha}): the head kernel sum
    plus tail_heat_sum from index length + 1, if there is a tail; zero
    eigenvalues contribute zero.  An alpha_exp that is not positive and
    finite, or a sum past the float range, raises ValueError."""
    t, alpha = float(t), _alpha(alpha_exp)
    x = as_sequence(source)
    total = kernels.heat_sum(x.head, t, alpha, x.counts)
    if x.tail is not None:
        total += tail_heat_sum(x.tail, t, alpha, x.length + 1)
    return _finite(total, "heat", "t=%g" % t) / t


def _log_heat_tail(x, alpha, lo, hi):
    """int_lo^hi R(s) ds/s^2 for the raw heat tail R(s) = tail_heat_sum(
    x.tail, s, alpha, x.length + 1) past the head of x, whose last value
    is v: tail_quad's value.  R falls off like e^-z as s falls, z = (s
    v)^-alpha: where z(hi) * alpha >= 4 the rule runs in y = z - z(hi)
    (_exp_tail), else on unit panels of log s."""
    def r(s):
        return np.array([tail_heat_sum(x.tail, float(si), alpha, x.length + 1)
                         for si in s])

    v = float(x.at(x.length))
    z_hi = (hi * v) ** -alpha
    if alpha * z_hi >= 4.0:
        def f(y):  # s = hi (z / z_hi)^(-1/alpha), ds/s^2 = dy/(alpha s z)
            z = z_hi + y
            s = hi * (z / z_hi) ** (-1.0 / alpha)
            return r(s) / (alpha * s * z)

        try:
            y_hi = (lo * v) ** -alpha - z_hi
        except OverflowError:
            y_hi = math.inf
        return _exp_tail(f, y_hi)
    u_lo, u_hi = math.log(lo), math.log(hi)
    edges = np.linspace(u_lo, u_hi, 1 + max(1, math.ceil(u_hi - u_lo)))
    return tail_quad(lambda u: r(np.exp(u)) * np.exp(-u), edges)[0]


def _heat_schedule(t_schedule, cesaro):
    """The times of a heat schedule as floats, or ValueError unless they
    are finite, positive and increasing, and for cesaro smoothing, whose
    mean divides by log T, above 1."""
    ts = np.asarray(t_schedule, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts) & (ts > 0)):
        raise ValueError("t schedule must be finite and positive")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("schedule must increase")
    if cesaro and ts[0] <= 1.0:
        raise ValueError("heat_cesaro needs every entry > 1")
    return ts


def heat_estimate(source, t_schedule=HEAT_SCHEDULE, alpha_exp=1.0,
                  smoothing="raw"):
    """Normalized heat functional g(t)/Gamma(1/alpha+1) over the
    schedule.  raw extrapolates linearly in 1/t; cesaro takes the exact
    log-scale mean (1/log T) int_1^T g ds/s and never extrapolates: it
    is [S(T) - S(1)] / log T over the head (kernels.heat_gamma_sum), and
    the tail R adds int_1^T R(s) ds/s^2 (_log_heat_tail)."""
    if smoothing not in ("raw", "cesaro"):
        raise ValueError("smoothing must be 'raw' or 'cesaro'")
    ts = _heat_schedule(t_schedule, smoothing == "cesaro")
    alpha = _alpha(alpha_exp)
    norm = math.gamma(1.0 / alpha + 1.0)
    if smoothing == "raw":
        vals = np.array([heat_trace(source, t, alpha) / norm for t in ts])
        return _series_estimate("heat_raw", ts, vals, 1.0 / ts, True)
    x = as_sequence(source)
    s1 = kernels.heat_gamma_sum(x.head, 1.0, alpha, x.counts)
    vals, lo, tail_int = np.empty(ts.size), 1.0, 0.0
    for i, T in enumerate(ts):
        # R grows with t: finite on [1, T] when R(T) is, 0 when it is 0
        if x.tail is not None and _finite(
                tail_heat_sum(x.tail, T, alpha, x.length + 1), "heat",
                "t=%g" % T):
            tail_int += _log_heat_tail(x, alpha, lo, T)
        lo = T
        head = kernels.heat_gamma_sum(x.head, T, alpha, x.counts) - s1
        total = _finite(head + tail_int / norm, "heat", "t=%g" % T)
        vals[i] = total / math.log(T)
    return _series_estimate(
        "heat_cesaro", ts, vals, 1.0 / ts, False,
        notes="log-average smoothing; no extrapolation",
    )


# -------------------------------------------------- measurability report


@dataclass(frozen=True)
class MeasurabilityReport:
    estimates: dict
    max_pairwise_discrepancy: float
    verdict: str  # Measurable | NotMeasurable | Undetermined
    tolerance: float
    notes: str = field(default="", compare=False)


# method name -> estimate(model, zeta_schedule, heat_schedule); the CLI
# and measurability_report both run this table
METHODS = {
    "dixmier": lambda model, zs, hs: dixmier_estimate(model),
    "zeta": lambda model, zs, hs: zeta_residue_estimate(model, zs),
    "heat_raw": lambda model, zs, hs: heat_estimate(model, hs, 1.0, "raw"),
    "heat_cesaro": lambda model, zs, hs: heat_estimate(
        model, hs, 1.0, "cesaro"
    ),
}


def measurability_report(model, methods=("dixmier", "zeta", "heat_raw"),
                         zeta_schedule=ZETA_SCHEDULE,
                         heat_schedule=HEAT_SCHEDULE):
    """Run the requested estimators and compare.

    Measurable requires every method Converged with pairwise spread
    within AGREEMENT_TOL (scaled by the common magnitude).  A method that
    reads Oscillating, or converged methods that genuinely disagree, both
    witness distinct limiting values, hence NotMeasurable.  Anything else
    stays Undetermined."""
    if len(methods) < 2:
        raise ValueError("need at least two methods to compare")
    estimates = {}
    for m in methods:
        if m not in METHODS:
            raise ValueError("unknown method %r" % m)
        estimates[m] = METHODS[m](model, zeta_schedule, heat_schedule)
    values = [e.value for e in estimates.values() if e.status == CONVERGED]
    if len(values) >= 2:
        disc = float(max(values) - min(values))
    else:
        disc = math.nan
    scale = max(1.0, max((abs(v) for v in values), default=1.0))
    notes = ""
    if any(e.status == OSCILLATING for e in estimates.values()):
        verdict = "NotMeasurable"
        notes = "an estimator oscillates beyond the policy band"
    elif all(e.status == CONVERGED for e in estimates.values()):
        if disc <= AGREEMENT_TOL * scale:
            verdict = "Measurable"
        else:
            verdict = "NotMeasurable"
            notes = "converged estimators disagree beyond tolerance"
    else:
        verdict = "Undetermined"
        notes = "some estimator returned no value"
    return MeasurabilityReport(estimates, disc, verdict, AGREEMENT_TOL, notes)


# ------------------------------------------------------- product traces


@dataclass(frozen=True)
class SublatticeProjection:
    """Diagonal projection onto the sublattice (stride Z)^n, n the
    dimension of the torus it is paired with in product_zeta_sequence."""

    stride: int

    def __post_init__(self):
        if int(self.stride) < 1:
            raise ValueError("stride must be >= 1")
        object.__setattr__(self, "stride", int(self.stride))


def product_zeta_sequence(a, x, k_schedule=ZETA_SCHEDULE):
    """(1/k) Tr(A T^{1+1/k}) for diagonal-compatible A against a torus
    spectrum x (models.torus_spectrum, known by its TorusTail), with the
    linear-in-1/k extrapolated residue.

    Exact routes: Fourier multipliers (Tr(f T^s) = fhat(0) zeta_T(s))
    and stride sublattice projections (rescaled lattice sum plus
    1/stride^n of the Weyl tail's sum, tail_power_sum past the torus
    head).  Anything else has no exact product-trace formula here; build
    the multiplication matrix and estimate from its singular values
    instead."""
    tail = getattr(x, "tail", None)
    if not isinstance(tail, models.TorusTail):
        raise TypeError("x must be a torus spectrum (models.torus_spectrum)")
    ks = _zeta_schedule(k_schedule)
    n, R, p = tail.dimension, tail.cutoff_radius, tail.operator_power
    if isinstance(a, models.FourierMultiplier):
        if not a.real_flag:
            raise ValueError("product trace needs a real symbol")
        c = float(a.fhat0.real)
        vals = np.array([c * power_trace(x, 1 + 1 / k) / k for k in ks])
        note = "diagonal formula: fhat(0) * lattice zeta"
    elif isinstance(a, SublatticeProjection):
        stride = a.stride
        if R % stride != 0:
            raise ValueError(
                "cutoff radius must be a multiple of the stride for an "
                "exact head/tail junction"
            )
        # the shells k of the coarse lattice are the shells stride^2 k
        # of the sublattice, with the same counts; past the cutoff the
        # sublattice holds 1/stride^n of the torus tail's sum
        keys, counts = models._shells(n, R // stride)
        head = (stride * stride * keys + 1.0) ** -p
        vals = np.array([(kernels.power_sum(head, 1 + 1 / k, counts=counts)
                          + tail_power_sum(tail, 1 + 1 / k, x.length + 1)
                          / stride**n) / k
                         for k in ks])
        note = "sublattice counting with density-scaled tail"
    else:
        raise TypeError(
            "no exact product-trace formula for %r; build "
            "multiplication_matrix and estimate from singular_values"
            % type(a).__name__
        )
    return _series_estimate(
        "zeta_residue", ks, vals, 1.0 / ks, True, notes=note
    )


# ---------------------------------------------------------- Holder check


@dataclass(frozen=True)
class HolderReport:
    pointwise_ok: bool
    holds: bool | None
    lhs: float
    rhs: float
    status: str


def _seq_power(x, p):
    """x**p: the head and the tail powered, scanned to the horizon of x;
    without a tail, to its length."""
    tail = None if x.tail is None else x.tail.powered(p)
    return SingularSequence(x.head**p, tail, x.counts,
                            None if tail is None else x.horizon)


def _truncate(x, L):
    """The first L values of x, without its tail; runs are cut, not
    expanded."""
    if x.length == L:
        return x
    r, before = kernels._run_of(x.counts, L)  # the run that holds index L
    counts = None if x.counts is None else np.append(x.counts[:r], L - before)
    return SingularSequence(x.head[:r + 1], None, counts)


def holder_check(t_model, v_model, p):
    """Holder inequality with C_p = 1 for simultaneously diagonal
    positive models: checks alpha_k(xy) <= alpha_k(x^p)^{1/p} *
    alpha_k(y^q)^{1/q} at every dyadic checkpoint of the common stored
    length (a finite-sum identity) and compares converged trace
    estimates the same way, each scanned to the horizon of the factors
    whose tails it keeps."""
    p = float(p)
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    q = p / (p - 1.0)
    x = as_sequence(t_model)
    y = as_sequence(v_model)
    L = min(x.length, y.length)
    if L < 2:
        raise ValueError("need at least two eigenvalues")
    xh, yh = _truncate(x, L), _truncate(y, L)
    prod_tail = horizon = None
    # only two power-log tails that index the head alike have a product
    # in their family, scanned as far as both factors are
    if (isinstance(xh.tail, PowerLogTail) and isinstance(yh.tail, PowerLogTail)
            and xh.tail.offset == yh.tail.offset):
        prod_tail = PowerLogTail(
            xh.tail.coeff * yh.tail.coeff,
            xh.tail.power + yh.tail.power,
            xh.tail.log_power + yh.tail.log_power,
            xh.tail.offset,
        )
        horizon = min(xh.horizon, yh.horizon)
    # both factors are constant between the run ends of either, and a
    # plain one ends a run at every index
    e = np.union1d(kernels._run_ends(xh.counts, L),
                   kernels._run_ends(yh.counts, L))
    prod = SingularSequence(xh.at(e) * yh.at(e), prod_tail,
                            np.diff(e, prepend=0), horizon)
    xp = _seq_power(xh, p)
    yq = _seq_power(yh, q)
    ks = dyadic_schedule(L)
    a_prod = log_average(prod, ks)
    a_x = log_average(xp, ks)
    a_y = log_average(yq, ks)
    rhs_k = a_x ** (1.0 / p) * a_y ** (1.0 / q)
    pointwise_ok = bool(np.all(a_prod <= rhs_k * (1.0 + 1e-12) + 1e-300))
    e_prod = dixmier_estimate(prod)
    e_x = dixmier_estimate(xp)
    e_y = dixmier_estimate(yq)
    if all(e.status == CONVERGED for e in (e_prod, e_x, e_y)):
        lhs = e_prod.value
        rhs = e_x.value ** (1.0 / p) * e_y.value ** (1.0 / q)
        holds = lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
        return HolderReport(pointwise_ok, bool(holds), lhs, rhs, CONVERGED)
    return HolderReport(pointwise_ok, None, math.nan, math.nan, UNDETERMINED)


# ---------------------------------------------------------- Mellin check


MELLIN_RTOL = 1e-6  # the relative gap within which a Mellin check passes


@dataclass(frozen=True)
class MellinReport:
    """error_bound is tail_quad's; nan, as passed is None, if it refused."""

    passed: bool | None
    rel_error: float
    integral: float
    reference: float
    error_bound: float


def mellin_check(source, s):
    """Verify Gamma(s) Tr(T^s) = int_0^inf tau^{s-1} Tr(e^{-tau Q}) dtau,
    Q = T^-1, on one sequence x (or an array, through as_sequence): the
    reference is Gamma(s) power_trace(x, s), and Tr(e^{-tau Q}) = sum
    exp(-tau/mu_n) is heat_trace(x, 1/tau) / tau at alpha 1.

    tail_quad runs on unit panels of u = log tau over tau in [1e-14,
    250] and passes within MELLIN_RTOL of the reference.  The window
    leaves out tau above 250, about 250^(s-1) mu e^(-250/mu) for each
    eigenvalue mu, and tau below 1e-14, where Tr(e^{-tau Q}) is at most
    the number N of eigenvalues (1e-14^s N / s for a finite one) and
    grows like 1/tau on a (1,inf) sequence: the harmonic at s = 1.5
    omits 2e-7, 8.6e-8 of its reference.  A reference past the float64
    range, or one that underflows to 0, raises ValueError naming s.  Where the rule raises ValueError
    (a heat value not finite, a bound that will not settle) passed is
    None, never a forced verdict."""
    s, x = float(s), as_sequence(source)
    try:
        gamma = math.gamma(s)
    except OverflowError:
        gamma = math.inf
    reference = _finite(gamma * power_trace(x, s), "Mellin reference",
                        "s=%g" % s)
    if reference == 0.0:  # no relative error to 0
        raise ValueError("Mellin reference underflows the float64 range at "
                         "s=%g" % s)

    def integrand(u):  # tau^s Tr(e^{-tau Q}) at tau = e^u
        return np.exp((s - 1.0) * u) * np.array(
            [heat_trace(x, t) for t in np.exp(-u)])

    u0, u1 = math.log(1e-14), math.log(250.0)
    try:
        integral, bound = tail_quad(integrand,
                                    np.append(np.arange(u0, u1, 1.0), u1))
    except ValueError:
        return MellinReport(None, math.nan, math.nan, reference, math.nan)
    rel = abs(integral - reference) / abs(reference)
    return MellinReport(bool(rel <= MELLIN_RTOL), rel, integral, reference,
                        bound)
