"""Singular value sequences and their logarithmic averaging calculus.

A sequence is a finite nonincreasing nonnegative head, optionally
continued by a power-log tail model C * (log n)^b * n^(-a).  All the
trace-style functionals here (log averages, the 1-infinity norm, the
Riesz window proxy, the zeta-power norm, Tauberian classification)
consume that representation.

Checkpoints, horizons and indices are 1-based throughout: alpha_k
averages the first k values.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate
from scipy.special import gammaincc, gammaln

from . import kernels

# ------------------------------------------------------------ tail model


@dataclass(frozen=True)
class PowerLogTail:
    """coeff * (log n)^log_power * n^(-power) for the sequence past its
    head, where sequence index k sits at n = k + offset (a head sampled
    from n = 2 has offset 1).  value(n) evaluates the formula at n."""

    coeff: float
    power: float
    log_power: float = 0.0
    offset: int = 0

    def __post_init__(self):
        if not (self.coeff > 0.0):
            raise ValueError("tail coeff must be positive")
        if not (self.power > 0.0):
            raise ValueError("tail power must be positive")
        if self.offset != int(self.offset) or self.offset < 0:
            raise ValueError("tail offset must be a nonnegative integer")
        object.__setattr__(self, "offset", int(self.offset))

    def value(self, n):
        n = np.asarray(n, dtype=np.float64)
        if np.any(n < 2):
            raise ValueError("tail model is evaluated for n >= 2 only")
        return self.coeff * np.log(n) ** self.log_power * n ** (-self.power)

    def powered(self, s):
        """The tail of mu**s: the same family with every exponent times s."""
        return PowerLogTail(
            self.coeff**s, self.power * s, self.log_power * s, self.offset
        )


def _tail_integral(coeff, a, b, x0, x1):
    """Integral of coeff * (log x)^b * x^(-a) over [x0, x1], x0 >= 2."""
    u0 = math.log(x0)
    u1 = math.inf if x1 is None or math.isinf(x1) else math.log(x1)
    if a == 1.0:
        if math.isinf(u1) and b >= -1.0:
            return math.inf
        if b == -1.0:
            return coeff * (math.log(u1) - math.log(u0))
        hi = 0.0 if math.isinf(u1) else u1 ** (b + 1.0)
        return coeff * (hi - u0 ** (b + 1.0)) / (b + 1.0)
    if a < 1.0 and math.isinf(u1):
        return math.inf
    kappa = a - 1.0
    if math.isinf(u1) and b > -1.0 and kappa > 0.0:
        # int u^b e^(-kappa u) du = kappa^-(b+1) * Gamma(b+1, kappa*u0)
        z = kappa * u0
        g = gammaincc(b + 1.0, z) * math.exp(gammaln(b + 1.0))
        return coeff * kappa ** (-(b + 1.0)) * g
    val, _ = integrate.quad(
        lambda u: u**b * math.exp((1.0 - a) * u), u0, u1, limit=200
    )
    return coeff * val


def _tail_d1(coeff, a, b, x):
    # d/dx of coeff (log x)^b x^-a
    lx = math.log(x)
    return coeff * x ** (-a - 1.0) * lx ** (b - 1.0) * (b - a * lx)


def tail_sum(tail, lo, hi=None):
    """Euler-Maclaurin sum of the tail over sequence indices lo..hi
    (hi=None means infinity), i.e. of tail.value(n) for n from
    lo + offset to hi + offset; that n must start at 2 or above."""
    lo += tail.offset
    hi = None if hi is None else hi + tail.offset
    if lo < 2:
        raise ValueError("tail sums start at n >= 2")
    c, a, b = tail.coeff, tail.power, tail.log_power
    if hi is not None and hi < lo:
        return 0.0
    body = _tail_integral(c, a, b, lo, hi)
    if math.isinf(body):
        return math.inf
    g_lo = float(tail.value(lo))
    corr = 0.5 * g_lo - _tail_d1(c, a, b, lo) / 12.0
    if hi is not None:
        corr += 0.5 * float(tail.value(hi)) + _tail_d1(c, a, b, hi) / 12.0
    return body + corr


def tail_power_sum(tail, s, lo):
    """Euler-Maclaurin sum of the tail's s-th powers over sequence
    indices >= lo."""
    return tail_sum(tail.powered(s), lo)


def tail_heat_sum(tail, t, alpha, lo):
    """Sum over sequence indices >= lo of exp(-(t * mu)^-alpha), mu the
    tail value there."""
    c, a, b = tail.coeff, tail.power, tail.log_power
    q = (t * c) ** (-alpha)
    beta = a * alpha
    u0 = math.log(lo + tail.offset)
    if b == 0.0:
        z0 = q * math.exp(beta * u0)
        g = gammaincc(1.0 / beta, z0) * math.exp(gammaln(1.0 / beta))
        body = g * q ** (-1.0 / beta) / beta
        boundary = 0.5 * math.exp(-z0)
        return body + boundary
    # exponent q * u^(-b*alpha) * e^(beta u); find where it kills the term
    def expo(u):
        return q * u ** (-b * alpha) * math.exp(beta * u)

    u_hi = u0
    while expo(u_hi) < 745.0 and u_hi < u0 + 2000.0:
        u_hi += 1.0
    body, _ = integrate.quad(
        lambda u: math.exp(u - expo(u)), u0, u_hi + 2.0, limit=200
    )
    return body + 0.5 * math.exp(-expo(u0))


# -------------------------------------------------------------- sequences

# Largest |log(tail / head)| accepted where a tail model meets its head,
# both read at the head's last index.  The worst shipped model at its
# smallest size is the 3-torus at cutoff radius 1, whose Weyl tail
# reads 0.526 there; harmonic and power-log heads read 0.
_JUNCTION_TOL = 0.55


@dataclass(frozen=True)
class SingularSequence:
    """Nonincreasing nonnegative head values plus optional tail model."""

    values: np.ndarray
    tail: PowerLogTail | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if v.size:
            if not np.isfinite(v[0]):
                raise ValueError("values must be finite")
            if not np.all(v[1:] <= v[:-1]):
                raise ValueError("values must be nonincreasing")
            if v[-1] < 0.0:
                raise ValueError("values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.tail is not None:
            if v.size == 0:
                raise ValueError("tail model requires a nonempty head")
            # index L sits at n = L + offset; a lone head entry at n = 1
            # has no model value to compare ((log 1)^b is degenerate)
            n = v.size + self.tail.offset
            edge = float(v[-1])
            model = float(self.tail.value(n)) if n >= 2 else edge
            if not (edge > 0.0 and model > 0.0
                    and abs(math.log(model / edge)) <= _JUNCTION_TOL):
                raise ValueError(
                    "tail junction insane: tail model at index %d gives %g "
                    "vs last value %g" % (v.size, model, edge)
                )

    @property
    def length(self):
        return int(self.values.size)

    def head_sum(self):
        return kernels.comp_sum(self.values)

    def power_sum(self, s):
        """sum over n of mu_n**s: the head kernel sum, continued by the
        tail model from n = length + 1 when one is attached."""
        total = kernels.power_sum(self.values, s)
        if self.tail is not None:
            total += tail_power_sum(self.tail, s, self.length + 1)
        return total

    def heat_sum(self, t, alpha):
        """sum over n of exp(-(t mu_n)^-alpha), head plus tail model as
        in power_sum; zero entries contribute nothing."""
        total = kernels.heat_sum(self.values, t, alpha)
        if self.tail is not None:
            total += tail_heat_sum(self.tail, t, alpha, self.length + 1)
        return total

    def scaled(self, c):
        """c * x: values and tail coefficient both scale."""
        if not (c > 0.0):
            raise ValueError("scale factor must be positive")
        t = self.tail
        if t is not None:
            t = replace(t, coeff=t.coeff * c)
        return SingularSequence(self.values * c, t)


def as_sequence(x):
    if isinstance(x, SingularSequence):
        return x
    return SingularSequence(np.asarray(x, dtype=np.float64))


def decreasing_rearrangement(x):
    """Moduli of x sorted nonincreasingly, as a SingularSequence."""
    v = np.abs(np.asarray(x)).astype(np.float64, copy=False)
    if v.ndim != 1:
        raise ValueError("input must be one-dimensional")
    v = np.sort(v)[::-1].copy()
    return SingularSequence(v)


@dataclass(frozen=True)
class LogAverageSeries:
    """alpha_k at the requested checkpoints."""

    checkpoints: np.ndarray
    alphas: np.ndarray

    def __len__(self):
        return int(self.checkpoints.size)


def _validate_checkpoints(ks):
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("need a nonempty 1-d checkpoint list")
    if ks[0] < 1 or np.any(np.diff(ks) <= 0):
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    return ks


def log_average(x, ks):
    """alpha_k = (sum of the k largest values) / log(1+k).

    Checkpoints beyond the stored head use the tail model; without one
    they raise.
    """
    x = as_sequence(x)
    ks = _validate_checkpoints(ks)
    L = x.length
    head = ks[ks <= L]
    beyond = ks[ks > L]
    if beyond.size and x.tail is None:
        raise ValueError(
            "checkpoint %d beyond data length %d and no tail model"
            % (int(beyond[0]), L)
        )
    alphas = np.empty(ks.size, dtype=np.float64)
    if head.size:
        alphas[: head.size] = kernels.prefix_log_average(x.values, head)
    if beyond.size:
        s_head = x.head_sum()
        for i, k in enumerate(beyond):
            s = s_head + tail_sum(x.tail, L + 1, int(k))
            alphas[head.size + i] = s / math.log(1.0 + float(k))
    return LogAverageSeries(ks, alphas)


def _tail_alpha_limsup(x):
    """limsup of alpha_k as k -> inf under the tail model."""
    t = x.tail
    if t.power > 1.0:
        return 0.0
    if t.power < 1.0:
        return math.inf
    if t.log_power > 0.0:
        return math.inf
    if t.log_power == 0.0:
        return t.coeff
    return 0.0


def norm_1_inf(x):
    """sup_k alpha_k.  The head is scanned at every k; with a tail model
    the supremum also covers tail-extended checkpoints and the analytic
    limit, which can exceed anything visible in the stored head (the
    flat-torus spectrum is the standard case: alpha is still climbing at
    any finite truncation)."""
    x = as_sequence(x)
    if x.length == 0:
        raise ValueError("empty sequence has no norm")
    best, _ = kernels.max_log_average(x.values)
    if x.tail is None:
        return float(best)
    lim = _tail_alpha_limsup(x)
    if math.isinf(lim):
        return math.inf
    best = max(best, lim)
    s = x.head_sum()
    k = float(x.length)
    for _ in range(48):  # dyadic extension catches transient bumps
        k2 = k * 2.0
        s = s + tail_sum(x.tail, int(k) + 1, int(k2))
        best = max(best, s / math.log(1.0 + k2))
        k = k2
        if k > 1e18:
            break
    return float(best)


def submajorizes(x, y):
    """True iff partial sums of y never exceed those of x (heads only,
    shorter head zero-padded; compensated sums, zero tolerance)."""
    x = as_sequence(x)
    y = as_sequence(y)
    return kernels.prefix_dominates(x.values, y.values)


def riesz_seminorm_proxy(x):
    """max alpha_k over the trailing half of dyadic checkpoints.

    A windowed surrogate for the distance-to-compacts seminorm; it
    overestimates for sequences whose alpha still drifts, so treat it as
    a proxy, not the seminorm."""
    x = as_sequence(x)
    if x.length < 16:
        raise ValueError("horizon below policy minimum (16)")
    J = int(math.floor(math.log2(x.length)))
    lo = (J + 1) // 2
    ks = 2 ** np.arange(lo, J + 1, dtype=np.int64)
    return float(np.max(log_average(x, ks).alphas))


def zeta_norm_z1(x, k_schedule=None, power_sum_fn=None):
    """limsup over the schedule of (1/k) * (sum mu^(1+1/k))^(k/(k+1)).

    s-power sums use the tail model (or an exact evaluator passed as
    power_sum_fn); without either the head sum alone is used, which
    undershoots once 1/k is small against 1/log(length).
    """
    x = as_sequence(x)
    if k_schedule is None:
        hi = 20 if (x.tail is not None or power_sum_fn is not None) else 14
        k_schedule = 2 ** np.arange(3, hi + 1, dtype=np.int64)
    ks = _validate_checkpoints(k_schedule)
    best = 0.0
    for k in ks:
        k = float(k)
        s = 1.0 + 1.0 / k
        if power_sum_fn is not None:
            total = float(power_sum_fn(s))
        else:
            total = x.power_sum(s)
        if math.isinf(total):
            return math.inf
        best = max(best, total ** (k / (k + 1.0)) / k)
    return float(best)


def tilde_mu(t1, t2, t3, t4):
    """mu(T1) - mu(T2) + i*(mu(T3) - mu(T4)), zero-padded to the longest
    input."""
    seqs = [as_sequence(t) for t in (t1, t2, t3, t4)]
    n = max(s.length for s in seqs)
    out = np.zeros(n, dtype=np.complex128)
    parts = []
    for s in seqs:
        v = np.zeros(n, dtype=np.float64)
        v[: s.length] = s.values
        parts.append(v)
    out += parts[0] - parts[1]
    out += 1j * (parts[2] - parts[3])
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


def _exact_membership(tail):
    """Analytic verdicts for mu_n = C (log n)^b n^-a.

    limsup n*mu is the weak-l1 witness, limsup n*mu/log(n) the u1inf
    one; membership in m_(1,inf) coincides with weak-l1 on this family
    (alpha stays bounded exactly when a>1, or a=1 with b<=0)."""
    C, a, b = tail.coeff, tail.power, tail.log_power
    if a > 1.0:
        return True, True, 0.0, True, 0.0
    if a < 1.0:
        return False, False, math.inf, False, math.inf
    w_l1 = 0.0 if b < 0.0 else (C if b == 0.0 else math.inf)
    w_u = 0.0 if b < 1.0 else (C if b == 1.0 else math.inf)
    in_l1w = b <= 0.0
    in_u = b < 1.0
    return in_l1w, in_l1w, w_l1, in_u, w_u


def _exact_weak_lp(tail, p):
    thr = 1.0 / p
    if tail.power != thr:
        return tail.power > thr
    return tail.log_power <= 0.0


def _fitted_membership(a, b):
    """Same predicates from regressed exponents, with a +-0.05 band.

    Boundary cases inside the band resolve by the log exponent; an
    unresolvable o(log) question returns None."""
    t = _FIT_TOL
    if a > 1.0 + t:
        return True, True, True
    if a < 1.0 - t:
        return False, False, False
    in_l1w = b <= t
    if b < 1.0 - t:
        in_u = True
    elif b > 1.0 + t:
        in_u = False
    else:
        in_u = None  # cannot tell O(log) from o(log) at this resolution
    return in_l1w, in_l1w, in_u


def _fitted_weak_lp(a, b, p):
    t = _FIT_TOL
    thr = 1.0 / p
    if a > thr + t:
        return True
    if a < thr - t:
        return False
    return b <= t


def ideal_membership(x, ps=()):
    """Membership verdicts for the trace ideal family.

    With a tail model the exponents are exact and the verdicts are
    analytic.  Without one a windowed log-log regression over the
    trailing three quarters estimates (a, b); verdicts then carry a
    0.05 exponent band, witnesses are window suprema, and unresolvable
    flags come back None."""
    x = as_sequence(x)
    L = x.length
    nrm = norm_1_inf(x)
    riesz = riesz_seminorm_proxy(x) if L >= 16 else float("nan")
    z1 = zeta_norm_z1(x)
    weak_lp = {}
    if x.tail is not None:
        in_m, in_l1w, w_l1, in_u, w_u = _exact_membership(x.tail)
        for p in ps:
            weak_lp[float(p)] = _exact_weak_lp(x.tail, float(p))
        return IdealMembershipReport(
            nrm, in_m, in_l1w, w_l1, in_u, w_u, weak_lp, riesz, z1,
            window=None,
            fitted_exponents=(x.tail.power, x.tail.log_power),
        )
    if L >= 1 and x.values[-1] == 0.0:
        # finitely supported: inside everything, all witnesses vanish
        for p in ps:
            weak_lp[float(p)] = True
        return IdealMembershipReport(
            nrm, True, True, 0.0, True, 0.0, weak_lp, riesz, z1
        )
    if L < 64:
        for p in ps:
            weak_lp[float(p)] = None
        return IdealMembershipReport(
            nrm, None, None, None, None, None, weak_lp, riesz, z1
        )
    lo = max(16, L // 4)
    idx = np.unique(np.geomspace(lo, L, num=96).astype(np.int64))
    n = idx.astype(np.float64)
    mu = x.values[idx - 1]
    design = np.column_stack([np.ones_like(n), np.log(np.log(n)), np.log(n)])
    coef, *_ = np.linalg.lstsq(design, np.log(mu), rcond=None)
    b_hat = float(coef[1])
    a_hat = float(-coef[2])
    in_m, in_l1w, in_u = _fitted_membership(a_hat, b_hat)
    w_l1 = float(np.max(n * mu)) if in_l1w else math.inf
    w_u = float(np.max(n * mu / np.log(n))) if in_u else math.inf
    if in_u is None:
        w_u = float(np.max(n * mu / np.log(n)))
    for p in ps:
        weak_lp[float(p)] = _fitted_weak_lp(a_hat, b_hat, float(p))
    return IdealMembershipReport(
        nrm, in_m, in_l1w, w_l1, in_u, w_u, weak_lp, riesz, z1,
        window=(int(lo), int(L)), fitted_exponents=(a_hat, b_hat),
    )


# ------------------------------------------------------- classification


@dataclass(frozen=True)
class ClassificationPolicy:
    """Dyadic checkpoint policy for Tauberian classification.

    Thresholds are absolute (the printed defaults assume sequences at
    natural scale ~1); horizon caps the scan, burn_in drops the early
    transient from reported oscillation bands."""

    eps_conv: float = 1e-2
    eps_osc: float = 5e-2
    min_horizon: int = 1024
    burn_in: int = 16
    fit_checkpoints: int = 6
    horizon: int | None = None


@dataclass(frozen=True)
class TauberianVerdict:
    status: str  # Tauberian | NonTauberian | Undetermined
    limit_estimate: float | None
    oscillation_amplitude: float
    diagnostics: dict = field(default_factory=dict, repr=False)


def _fit_log_limit(ks, alphas):
    """Least squares a + b/log(1+k); returns (a, b, residuals)."""
    z = 1.0 / np.log1p(ks.astype(np.float64))
    design = np.column_stack([np.ones_like(z), z])
    coef, *_ = np.linalg.lstsq(design, alphas, rcond=None)
    resid = alphas - design @ coef
    return float(coef[0]), float(coef[1]), resid


def tauberian_classify(x, policy=None):
    """Classify alpha_k behaviour on dyadic checkpoints.

    Convergence is judged on the total variation of residuals after
    removing the a + b/log(1+k) trend over the last third of
    checkpoints (raw alpha still drifts at any reachable horizon, so an
    un-detrended variation test would flunk plainly Tauberian data).
    The reported amplitude is the detrended variation itself for
    Tauberian verdicts (the quantity the decision was made on; fit
    misfit is a diagnostics entry, not oscillation) and the raw band
    over checkpoints past burn_in otherwise; for oscillating data the
    trailing window sees less than a full log-log period, so the wide
    band is the honest lower bound."""
    x = as_sequence(x)
    pol = policy or ClassificationPolicy()
    H = x.length if pol.horizon is None else min(x.length, int(pol.horizon))
    if H < pol.min_horizon:
        return TauberianVerdict(
            "Undetermined", None, 0.0,
            {"note": "horizon %d below policy minimum %d"
             % (H, pol.min_horizon)},
        )
    J = int(math.floor(math.log2(H)))
    ks = 2 ** np.arange(1, J + 1, dtype=np.int64)
    alphas = log_average(x, ks).alphas
    i0 = (2 * J) // 3
    tail_ks, tail_al = ks[i0:], alphas[i0:]
    a_fit, b_fit, resid = _fit_log_limit(tail_ks, tail_al)
    resid_tv = float(np.sum(np.abs(np.diff(resid))))
    band_third = float(tail_al.max() - tail_al.min())
    keep = ks >= pol.burn_in
    band_wide = float(alphas[keep].max() - alphas[keep].min()) if keep.any() else 0.0
    diag = {
        "checkpoints": ks,
        "alphas": alphas,
        "residual_tv": resid_tv,
        "band_last_third": band_third,
        "band_past_burn_in": band_wide,
        "fit": (a_fit, b_fit),
    }
    if resid_tv < pol.eps_conv:
        m = pol.fit_checkpoints
        a_lim, _, fit_resid = _fit_log_limit(ks[-m:], alphas[-m:])
        diag["fit_band"] = float(fit_resid.max() - fit_resid.min())
        return TauberianVerdict("Tauberian", a_lim, resid_tv, diag)
    if band_third > pol.eps_osc:
        return TauberianVerdict("NonTauberian", None, band_wide, diag)
    return TauberianVerdict("Undetermined", None, band_wide, diag)


# ----------------------------------------------------- model sequences


def harmonic_sequence(horizon, coeff=1.0):
    """mu_n = coeff / n with the exact matching tail model."""
    n = np.arange(1, int(horizon) + 1, dtype=np.float64)
    return SingularSequence(coeff / n, PowerLogTail(coeff, 1.0))


def oscillator_sequence(horizon):
    """mu_n = (2 + sin log log n) / n for n >= 3, first three entries
    tied at the n=3 value.  Log-log oscillation makes alpha_k wander
    forever; no power-log tail captures it, so none is attached."""
    H = int(horizon)
    if H < 3:
        raise ValueError("oscillator horizon must be >= 3")
    v = np.empty(H, dtype=np.float64)
    n = np.arange(3, H + 1, dtype=np.float64)
    v[2:] = (2.0 + np.sin(np.log(np.log(n)))) / n
    v[0] = v[1] = v[2]
    return SingularSequence(v)


def power_log_sequence(coeff, power, log_power, horizon):
    """mu_n = coeff (log n)^log_power n^-power sampled at n = 2..horizon,
    sorted nonincreasingly (the raw formula is not monotone near its
    start for log_power > 0), with the tail model attached.  Head entry
    k holds n = k + 1, so the tail carries offset 1."""
    H = int(horizon)
    if H < 16:
        raise ValueError("horizon must be >= 16")
    tail = PowerLogTail(coeff, power, log_power, offset=1)
    n = np.arange(2, H + 1, dtype=np.float64)
    v = np.sort(np.asarray(tail.value(n)))[::-1].copy()
    return SingularSequence(v, tail)
