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
from types import SimpleNamespace

import numpy as np
from scipy import special

from . import kernels, models
from .sequences import (
    BURN_IN,
    EPS_CONV,
    EPS_OSC,
    PowerLogTail,
    SingularSequence,
    _closures,
    _exp_tail,
    _fit_line,
    _zeta_schedule,
    as_sequence,
    dyadic_schedule,
    log_average,
    power_trace,
    tail_quad,
    tauberian_classify,
)

CONVERGED = "Converged"
OSCILLATING = "Oscillating"
UNDETERMINED = "Undetermined"

# default schedules: zeta at s = 1 + 1/k, heat at times t
ZETA_SCHEDULE = (25, 50, 100, 200)
HEAT_SCHEDULE = (1e2, 1e3, 1e4)
# converged estimates agree when their spread is within AGREEMENT_TOL,
# relative to max(1, |value|)
AGREEMENT_TOL = 1e-2


@dataclass(frozen=True)
class TraceEstimate:
    """One estimator's verdict: a value only when defensible.

    Converged: value is the extrapolated limit, oscillation the fit
    residual band.  Oscillating: value is the midpoint of the observed
    band and oscillation its width.  Undetermined: value is NaN.
    error_estimate combines fit residuals with fit-window stability.  It
    is a diagnostic for library callers: nothing in the package reads
    it, the CLI report leaves it out, and measurability_report measures
    cross-method agreement against AGREEMENT_TOL instead.  It does not
    bound the error on every input (the dixmier fit's falls short of
    the error against the analytic target on most of them)."""

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
    """Shared schedule -> TraceEstimate reduction for zeta/heat series.

    Fits vals ~ a + b*z (z the method's decay variable), judges the
    residual band against the classification thresholds, and reports
    fit-window stability as part of the error estimate."""
    vals = np.asarray(vals, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.float64)
    raw = (ks, vals)
    a, b, resid = _fit_line(zs, vals)
    band = float(resid.max() - resid.min())
    if vals.size < 3:
        return TraceEstimate(
            method, float(vals[-1]), raw, False, band,
            UNDETERMINED if band > EPS_CONV else CONVERGED,
            error_estimate=band + abs(float(vals[-1]) - a),
            notes=(notes + "; schedule too short to extrapolate").strip("; "),
        )
    half = vals.size // 2
    a_half, _, _ = _fit_line(zs[half:], vals[half:])
    err = 2.0 * float(np.max(np.abs(resid))) + abs(a - a_half)
    if band <= EPS_CONV:
        value = a if extrapolate else float(vals[-1])
        value = max(value, 0.0) if value > -1e-12 else value
        return TraceEstimate(
            method, value, raw, extrapolate, band, CONVERGED,
            error_estimate=err, notes=notes,
        )
    lo, hi = float(vals.min()), float(vals.max())
    if band > EPS_OSC:
        return TraceEstimate(
            method, 0.5 * (lo + hi), raw, False, hi - lo, OSCILLATING,
            error_estimate=err, notes=notes,
        )
    return TraceEstimate(
        method, math.nan, raw, False, band, UNDETERMINED,
        error_estimate=err, notes=notes,
    )


def _finite(value, kind, at):
    """value, unless the kind sum at `at` (such as "s=1.04") diverges or
    passes the float64 range: then ValueError."""
    if not math.isfinite(value):
        raise ValueError("%s evaluation divergent or past the float64 "
                         "range at %s" % (kind, at))
    return value


# ------------------------------------------------------ dixmier estimate


def dixmier_estimate(source):
    """Log-average estimate over the dyadic checkpoints up to the
    sequence's horizon.

    The checkpoint series is classified first; a value is produced by
    the a + b/log(1+k) fit only on Tauberian data.  A horizon below the
    length caps the scan and lowers its gate as in tauberian_classify
    (matrix truncations, whose singular values past a fraction of the
    dimension are unreliable)."""
    x = as_sequence(source)
    verdict = tauberian_classify(x)
    diag = verdict.diagnostics
    ks = diag.get("checkpoints", np.empty(0, dtype=np.int64))
    alphas = diag.get("alphas", np.empty(0))
    raw = (ks, alphas)
    notes = "tail model attached" if x.tail is not None else "head only"
    if verdict.status == "Tauberian":
        value = float(verdict.limit_estimate)
        # tauberian_classify fitted the limit on its last FIT_CHECKPOINTS
        # checkpoints; the error adds their residuals and a 3-point fit's gap
        resid = diag["fit_residuals"]
        zs = 1.0 / np.log1p(ks[-3:].astype(np.float64))
        a3, _, _ = _fit_line(zs, alphas[-3:])
        err = (2.0 * float(np.max(np.abs(resid)))
               + abs(verdict.limit_estimate - a3))
        value = max(value, 0.0) if value > -1e-12 else value
        return TraceEstimate(
            "dixmier_alpha", value, raw, True,
            verdict.oscillation_amplitude, CONVERGED,
            error_estimate=err, notes=notes,
        )
    if verdict.status == "NonTauberian":
        keep = ks >= BURN_IN
        lo = float(alphas[keep].min())
        hi = float(alphas[keep].max())
        return TraceEstimate(
            "dixmier_alpha", 0.5 * (lo + hi), raw, False, hi - lo,
            OSCILLATING, error_estimate=hi - lo,
            notes=notes + "; value is the band midpoint",
        )
    note = diag.get("note", "classification undetermined")
    return TraceEstimate(
        "dixmier_alpha", math.nan, raw, False,
        verdict.oscillation_amplitude, UNDETERMINED,
        notes=(notes + "; " + note),
    )


# -------------------------------------------------------- zeta estimate


def _truncation_guard(source):
    """None, or for a bare head (no zeta tail, a nonzero last value) a
    guard(s, head) that judges the head sum at s against the worst
    m_(1,inf)-compatible continuation mu_n = mu_L L / n; if that could
    shift the sum by more than 1%, the schedule point is untrustworthy
    and the whole estimate is refused."""
    if callable(source):
        return None
    x, zeta_tail, _ = _closures(source)
    if zeta_tail is not None or x.length == 0 or x.at(x.length) == 0.0:
        return None

    def guard(s, head):
        L = x.length
        mu_edge = float(x.at(L))
        worst = mu_edge**s * L / (s - 1.0)
        return worst <= 0.01 * head

    return guard


def zeta_residue_estimate(source, k_schedule=ZETA_SCHEDULE):
    """(1/k) * Tr(T^{1+1/k}) over the schedule, extrapolated linearly
    in 1/k, Tr by power_trace of an evaluator s -> Tr(T^s), a sequence
    or a model."""
    ks = _zeta_schedule(k_schedule)
    guard = _truncation_guard(source)
    vals = np.empty(ks.size)
    guarded = True
    for i, k in enumerate(ks):
        s = 1.0 + 1.0 / float(k)
        z = _finite(power_trace(source, s), "zeta", "s=%g" % s)
        vals[i] = z / float(k)
        if guard is not None and not guard(s, z):
            guarded = False
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
    plus the heat tail of _closures, if any; zero eigenvalues contribute
    zero.  An alpha_exp that is not positive and finite, or a sum past
    the float range, raises ValueError."""
    t, alpha = float(t), _alpha(alpha_exp)
    x, _, tail = _closures(source)
    total = kernels.heat_sum(x.head, t, alpha, x.counts)
    if tail is not None:
        total += tail(t, alpha)
    return _finite(total, "heat", "t=%g" % t) / t


def _log_heat_tail(tail, alpha, v, lo, hi):
    """(value, bound): int_lo^hi R(s) ds/s^2 for the raw heat tail R(s) =
    tail(s, alpha) past a head whose last value is v.  R falls off like
    e^-z as s falls, z = (s v)^-alpha: where z(hi) * alpha >= 4 the rule
    runs in y = z - z(hi), else on unit panels of log s."""
    def r(s):
        return np.array([tail(float(si), alpha) for si in s])

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
    return tail_quad(lambda u: r(np.exp(u)) * np.exp(-u), edges)


def heat_estimate(source, t_schedule=HEAT_SCHEDULE, alpha_exp=1.0,
                  smoothing="raw"):
    """Normalized heat functional g(t)/Gamma(1/alpha+1) over the
    schedule.  raw extrapolates linearly in 1/t; cesaro takes the exact
    log-scale mean (1/log T) int_1^T g ds/s and never extrapolates: it
    is [S(T) - S(1)] / log T over the head (kernels.heat_gamma_sum), and
    the tail R adds int_1^T R(s) ds/s^2 (_log_heat_tail)."""
    ts = np.asarray(t_schedule, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0 or np.any(ts <= 0):
        raise ValueError("t schedule must be positive")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("t schedule must increase")
    if smoothing not in ("raw", "cesaro"):
        raise ValueError("smoothing must be 'raw' or 'cesaro'")
    alpha = _alpha(alpha_exp)
    norm = math.gamma(1.0 / alpha + 1.0)
    if smoothing == "raw":
        vals = np.array([heat_trace(source, t, alpha) / norm for t in ts])
        return _series_estimate("heat_raw", ts, vals, 1.0 / ts, True)
    if ts[0] <= 1.0:
        raise ValueError("cesaro smoothing needs t > 1")
    x, _, tail = _closures(source)
    s1 = kernels.heat_gamma_sum(x.head, 1.0, alpha, x.counts)
    vals, lo, tail_int = np.empty(ts.size), 1.0, 0.0
    for i, T in enumerate(ts):
        # R grows with t: finite on [1, T] when R(T) is, 0 when it is 0
        if tail is not None and _finite(tail(T, alpha), "heat", "t=%g" % T):
            v = float(x.at(x.length))
            tail_int += _log_heat_tail(tail, alpha, v, lo, T)[0]
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
    oscillates beyond the policy band, or converged methods that
    genuinely disagree, both witness distinct limiting values, hence
    NotMeasurable.  Anything else stays Undetermined."""
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
    if any(
        e.status == OSCILLATING and e.oscillation > EPS_OSC
        for e in estimates.values()
    ):
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
    """Diagonal projection onto the sublattice (stride Z)^n."""

    stride: int
    dimension: int = 2

    def __post_init__(self):
        if int(self.stride) < 1:
            raise ValueError("stride must be >= 1")
        object.__setattr__(self, "stride", int(self.stride))


def product_zeta_sequence(a, model, k_schedule=ZETA_SCHEDULE):
    """(1/k) Tr(A T^{1+1/k}) for diagonal-compatible A against a lattice
    model, with the linear-in-1/k extrapolated residue.

    Exact routes: Fourier multipliers (Tr(f T^s) = fhat(0) zeta_T(s))
    and stride sublattice projections (rescaled lattice sum with a
    density-scaled tail).  Anything else has no exact product-trace
    formula here; build the multiplication matrix and estimate from its
    singular values instead."""
    if not isinstance(model, models.LatticeModel):
        raise TypeError("model must be a LatticeModel")
    ks = _zeta_schedule(k_schedule)
    n = model.dimension
    R = model.cutoff_radius
    p = model.operator_power
    if isinstance(a, models.FourierMultiplier):
        if not a.real_flag:
            raise ValueError("product trace needs a real symbol")
        c = float(a.fhat0.real)
        vals = np.array([c * power_trace(model, 1 + 1 / k) / k for k in ks])
        note = "diagonal formula: fhat(0) * lattice zeta"
    elif isinstance(a, SublatticeProjection):
        if a.dimension != n:
            raise ValueError("projection dimension mismatch")
        stride = a.stride
        if R % stride != 0:
            raise ValueError(
                "cutoff radius must be a multiple of the stride for an "
                "exact head/tail junction"
            )
        # the shells k of the coarse lattice are the shells stride^2 k
        # of the sublattice, with the same counts; past the cutoff the
        # sublattice holds 1/stride^n of the model's tail
        keys, counts = models._shells(n, R // stride)
        x = SingularSequence((stride * stride * keys + 1.0) ** -p, None,
                             counts)
        sub = SimpleNamespace(
            spectrum=lambda: x,
            zeta_tail=lambda s: model.zeta_tail(s) / stride**n)
        vals = np.array([power_trace(sub, 1 + 1 / k) / k for k in ks])
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
    slack: float
    lhs: float
    rhs: float
    p: float
    q: float
    status: str


def _seq_power(x, p):
    tail = x.tail.powered(p) if x.tail is not None else None
    return SingularSequence(x.head**p, tail, x.counts)


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
    alpha_k(y^q)^{1/q} at every dyadic checkpoint (a finite-sum
    identity) and compares converged trace estimates the same way."""
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
    prod_tail = None
    # only two power-log tails that index the head alike have a product
    # in their family
    if (isinstance(xh.tail, PowerLogTail) and isinstance(yh.tail, PowerLogTail)
            and xh.tail.offset == yh.tail.offset):
        prod_tail = PowerLogTail(
            xh.tail.coeff * yh.tail.coeff,
            xh.tail.power + yh.tail.power,
            xh.tail.log_power + yh.tail.log_power,
            xh.tail.offset,
        )
    if xh.counts is None and yh.counts is None:
        prod = SingularSequence(xh.head * yh.head, prod_tail)
    else:
        # both factors are constant between the run ends of either, and
        # a plain one ends a run at every index
        e = np.union1d(kernels._run_ends(xh.counts, L),
                       kernels._run_ends(yh.counts, L))
        prod = SingularSequence(xh.at(e) * yh.at(e), prod_tail,
                                np.diff(e, prepend=0))
    xp = _seq_power(xh, p)
    yq = _seq_power(yh, q)
    ks = dyadic_schedule(L)
    a_prod = log_average(prod, ks).alphas
    a_x = log_average(xp, ks).alphas
    a_y = log_average(yq, ks).alphas
    rhs_k = a_x ** (1.0 / p) * a_y ** (1.0 / q)
    pointwise_ok = bool(np.all(a_prod <= rhs_k * (1.0 + 1e-12) + 1e-300))
    e_prod = dixmier_estimate(prod)
    e_x = dixmier_estimate(xp)
    e_y = dixmier_estimate(yq)
    if all(e.status == CONVERGED for e in (e_prod, e_x, e_y)):
        lhs = e_prod.value
        rhs = e_x.value ** (1.0 / p) * e_y.value ** (1.0 / q)
        slack = rhs - lhs
        holds = lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
        return HolderReport(
            pointwise_ok, bool(holds), slack, lhs, rhs, p, q, CONVERGED
        )
    return HolderReport(
        pointwise_ok, None, math.nan, math.nan, math.nan, p, q, UNDETERMINED
    )


# ---------------------------------------------------------- Mellin check


def _theta3(t):
    """sum_{n in Z} exp(-t n^2), switching to the Poisson-summed form
    below t=1 where the direct series loses terms."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    big = t >= 1.0
    if np.any(big):
        tb = t[big]
        acc = np.ones_like(tb)
        for n in range(1, 9):
            acc += 2.0 * np.exp(-tb * n * n)
        out[big] = acc
    if np.any(~big):
        ts = t[~big]
        acc = np.ones_like(ts)
        for k in range(1, 4):
            acc += 2.0 * np.exp(-(math.pi**2) * k * k / ts)
        out[~big] = np.sqrt(math.pi / ts) * acc
    return out


@dataclass(frozen=True)
class ExplicitEigenvalues:
    """Finite eigenvalue list for Q."""

    values: tuple

    def partition(self, t):
        lam = np.asarray(self.values, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        return np.exp(-np.multiply.outer(t, lam)).sum(axis=-1)

    def zeta_q(self, s):
        lam = np.asarray(self.values, dtype=np.float64)
        return float(np.sum(lam ** (-s)))


@dataclass(frozen=True)
class SquaresEigenvalues:
    """lambda_n = n^2, n >= 1 (Q = -d^2/dx^2 on the half period)."""

    def partition(self, t):
        return 0.5 * (_theta3(t) - 1.0)

    def zeta_q(self, s):
        return float(special.zeta(2.0 * s))


@dataclass(frozen=True)
class TorusEigenvalues:
    """lambda_m = 1 + |m|^2 on Z^2; the partition function closes as
    e^{-t} theta3(t)^2 (exact), the zeta as a tail-corrected lattice
    sum."""

    cutoff: int = 600

    def partition(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.exp(-t) * _theta3(t) ** 2

    def zeta_q(self, s):
        return power_trace(models.LatticeModel(2, self.cutoff, 1.0), s)


MELLIN_RTOL = 1e-6  # the relative gap within which a Mellin check passes


@dataclass(frozen=True)
class MellinReport:
    """error_bound is tail_quad's; nan, as passed is None, if it refused."""

    passed: bool | None
    rel_error: float
    integral: float
    reference: float
    error_bound: float


def mellin_check(model, s):
    """Verify Gamma(s) zeta_Q(s) = int_0^inf t^{s-1} Tr(e^{-tQ}) dt.

    tail_quad on unit panels of u = log t over t in [1e-14, 250], wide
    enough that the omitted pieces sit below 1e-7 relative for
    eigenvalues >= 1; it passes within MELLIN_RTOL of the reference.
    Where the rule raises ValueError (a partition value not finite, a
    bound that will not settle) passed is None, never a forced verdict."""
    s = float(s)
    reference = math.gamma(s) * float(model.zeta_q(s))
    u0, u1 = math.log(1e-14), math.log(250.0)
    try:
        integral, bound = tail_quad(
            lambda u: np.exp(s * u) * model.partition(np.exp(u)),
            np.append(np.arange(u0, u1, 1.0), u1))
    except ValueError:
        return MellinReport(None, math.nan, math.nan, reference, math.nan)
    rel = abs(integral - reference) / abs(reference)
    return MellinReport(bool(rel <= MELLIN_RTOL), rel, integral, reference,
                        bound)
