"""Concrete spectral models: flat-torus lattices, Fourier-multiplier
matrix truncations, Hermitian/positive-part splittings, the twisted
coefficient algebra of the noncommutative 2-torus, and pointwise
domination checks.

Torus convention: the torus is [0, 2pi)^n so that e^{i m.x}, m in Z^n,
is an orthonormal eigenbasis and the model operator (1+Delta)^{-p} has
eigenvalues (1+|m|^2)^{-p}.  Degenerate eigenvalues are ordered by the
Cantor enumeration of Z^n, which fixes every basis-dependent result.
"""

import cmath
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import integrate, linalg

from . import kernels
from .sequences import PowerLogTail, SingularSequence

UNIT_BALL_VOL = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
SPHERE_VOL = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

DEFAULT_BUDGET_MB = 2048.0


class BudgetError(RuntimeError):
    """Raised when an enumeration or matrix would exceed the memory cap."""

    def __init__(self, what, need_mb, budget_mb):
        self.what = what
        self.need_mb = float(need_mb)
        self.budget_mb = float(budget_mb)
        super().__init__(
            "%s needs about %.0f MB but the budget is %.0f MB "
            "(raise DIXLAB_BUDGET_MB)" % (what, need_mb, budget_mb)
        )


class CertificateError(RuntimeError):
    """Raised when a numerical result fails its own accuracy check."""


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


def _check_dim(n):
    if n not in (1, 2, 3):
        raise ValueError("lattice dimension must be 1, 2 or 3")


# ------------------------------------------------------- lattice spectra


def lattice_count(n, radius):
    """#{m in Z^n : |m| <= radius}, exact integer arithmetic."""
    _check_dim(n)
    radius = int(radius)
    if radius < 1:
        raise ValueError("cutoff radius must be >= 1")
    r2 = radius * radius
    if n == 1:
        return 2 * radius + 1
    if n == 2:
        return sum(
            2 * math.isqrt(r2 - m1 * m1) + 1 for m1 in range(-radius, radius + 1)
        )
    total = 0
    for m1 in range(-radius, radius + 1):
        rem1 = r2 - m1 * m1
        h1 = math.isqrt(rem1)
        for m2 in range(-h1, h1 + 1):
            total += 2 * math.isqrt(rem1 - m2 * m2) + 1
    return total


def _spectrum_tail(n, power):
    # Weyl counting N(lambda) ~ omega_n * lambda^{n/(2p)} inverts to
    # mu_k ~ (omega_n / k)^{2p/n}
    a = 2.0 * power / n
    return PowerLogTail(UNIT_BALL_VOL[n] ** a, a, 0.0)


def _lattice_w(n, radius):
    """kernels.lattice_w behind the radius check and the memory budget."""
    radius = int(radius)
    if radius < 1:
        raise ValueError("cutoff radius must be >= 1")
    est = UNIT_BALL_VOL[n] * (radius + 1.0) ** n
    _check_budget("lattice enumeration (radius %d)" % radius, est * 8 * 4)
    return kernels.lattice_w(n, radius)


def torus_spectrum(n, cutoff_radius, power=None):
    """Eigenvalues (1+|m|^2)^{-power} over |m| <= cutoff, nonincreasing,
    with the Weyl-law tail model attached."""
    _check_dim(n)
    p = float(power) if power is not None else n / 2.0
    if not p > 0.0:
        raise ValueError("operator power must be positive")
    w = _lattice_w(n, cutoff_radius)
    w.sort()
    return SingularSequence(w ** (-p), _spectrum_tail(n, p))


class LatticeZeta(NamedTuple):
    value: float
    head: float
    tail_magnitude: float


def _zeta_tail(n, q, radius):
    """Integral of (1+|x|^2)^{-q} over |x| > radius in R^n."""
    r = float(radius)
    if n == 2:
        return math.pi * (1.0 + r * r) ** (1.0 - q) / (q - 1.0)
    if n == 1:
        val, _ = integrate.quad(lambda x: (1.0 + x * x) ** (-q), r, math.inf)
        return 2.0 * val
    val, _ = integrate.quad(
        lambda w: math.sqrt(w) * (1.0 + w) ** (-q), r * r, math.inf
    )
    return 2.0 * math.pi * val


def _zeta_exponent(n, p, s):
    """q = p*s, the exponent of (1+|m|^2) in Tr(T^s); the lattice sum
    diverges for q <= n/2, which raises, naming s."""
    s = float(s)
    q = p * s
    if q <= n / 2.0:
        raise ValueError(
            "zeta sum diverges at s=%g (needs s > %g)" % (s, n / (2.0 * p))
        )
    return q


def lattice_zeta(n, s, cutoff_radius, power=None):
    """Tr(T^s) = sum (1+|m|^2)^{-ps} with a radial-integral tail.

    Head: exact lattice sum over |m| <= cutoff.  Tail: the continuum
    integral over |x| > cutoff (the n=2 case closes in elementary form).
    Diverges for s <= n/(2p); that raises, naming s.
    """
    _check_dim(n)
    p = float(power) if power is not None else n / 2.0
    q = _zeta_exponent(n, p, s)
    head = kernels.power_sum(_lattice_w(n, cutoff_radius), -q)
    tail = _zeta_tail(n, q, int(cutoff_radius))
    return LatticeZeta(head + tail, head, tail)


@dataclass(frozen=True)
class LatticeModel:
    """(1+Delta)^{-operator_power} on the n-torus, truncated at a
    Euclidean lattice radius."""

    dimension: int
    cutoff_radius: int
    operator_power: float = None

    def __post_init__(self):
        _check_dim(self.dimension)
        p = self.operator_power
        p = self.dimension / 2.0 if p is None else float(p)
        if not p > 0.0:
            raise ValueError("operator power must be positive")
        object.__setattr__(self, "operator_power", p)
        object.__setattr__(self, "cutoff_radius", int(self.cutoff_radius))
        if self.cutoff_radius < 1:
            raise ValueError("cutoff radius must be >= 1")

    def count(self):
        return lattice_count(self.dimension, self.cutoff_radius)

    def spectrum(self):
        cached = getattr(self, "_spectrum", None)
        if cached is None:
            cached = torus_spectrum(
                self.dimension, self.cutoff_radius, self.operator_power
            )
            object.__setattr__(self, "_spectrum", cached)
        return cached

    def zeta(self, s):
        """lattice_zeta read off the cached spectrum: its values to the
        power s plus the same radial-integral tail, so the lattice is
        enumerated once per model."""
        n, p = self.dimension, self.operator_power
        q = _zeta_exponent(n, p, s)
        head = kernels.power_sum(self.spectrum().values, s)
        return head + _zeta_tail(n, q, self.cutoff_radius)

    def heat(self, t, alpha=1.0):
        return self.spectrum().heat_sum(t, alpha) / t


# ------------------------------------------------ basis order / multipliers


def _zigzag(m):
    # Cantor enumeration of Z: 0, 1, -1, 2, -2, ...
    m = np.asarray(m, dtype=np.int64)
    return np.where(m > 0, 2 * m - 1, -2 * m)


def _pair(a, b):
    return (a + b) * (a + b + 1) // 2 + b


def cantor_index(points):
    """Position of each z in Z^n under the iterated Cantor pairing of the
    zigzag enumeration; a total order used only to break eigenvalue ties."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.int64))
    n = pts.shape[1]
    _check_dim(n)
    idx = _zigzag(pts[:, 0])
    for j in range(1, n):
        idx = _pair(idx, _zigzag(pts[:, j]))
    return idx


def cube_basis(n, halfwidth):
    """Lattice points of the cube |m_i| <= halfwidth ordered by
    nonincreasing model eigenvalue, ties broken by Cantor index."""
    _check_dim(n)
    M = int(halfwidth)
    if M < 0:
        raise ValueError("cube halfwidth must be >= 0")
    axes = [np.arange(-M, M + 1, dtype=np.int64)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = 1 + np.sum(pts * pts, axis=1)
    order = np.lexsort((cantor_index(pts), w))
    return pts[order], w[order].astype(np.float64)


@dataclass(frozen=True)
class FourierMultiplier:
    """Finitely supported symbol coefficients fhat: Z^n -> C.

    real_flag asserts fhat(-m) == conj(fhat(m)) exactly, making the
    symbol a real-valued function."""

    coefficients: dict
    real_flag: bool = True

    def __post_init__(self):
        clean = {}
        dim = None
        for key, val in self.coefficients.items():
            key = (key,) if isinstance(key, int) else tuple(int(k) for k in key)
            if dim is None:
                dim = len(key)
                _check_dim(dim)
            elif len(key) != dim:
                raise ValueError("mixed key dimensions in coefficients")
            val = complex(val)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError("coefficients must be finite")
            clean[key] = val
        if dim is None:
            raise ValueError("multiplier needs at least one coefficient")
        if self.real_flag:
            for key, val in clean.items():
                neg = tuple(-k for k in key)
                if clean.get(neg, 0j) != val.conjugate():
                    raise ValueError(
                        "real_flag set but fhat(-m) != conj(fhat(m)) at %r"
                        % (key,)
                    )
        object.__setattr__(self, "coefficients", clean)

    @property
    def dim(self):
        return len(next(iter(self.coefficients)))

    @property
    def degree(self):
        return max(
            (max(abs(k) for k in key) for key in self.coefficients), default=0
        )

    @property
    def fhat0(self):
        return self.coefficients.get((0,) * self.dim, 0j)

    def value_on_grid(self, grid_points):
        """Symbol values on the uniform grid (2pi k / G)^n."""
        G = int(grid_points)
        if G < 1:
            raise ValueError("need at least one grid point")
        theta = 2.0 * math.pi * np.arange(G) / G
        vals = np.zeros((G,) * self.dim, dtype=np.complex128)
        for key, c in self.coefficients.items():
            term = np.complex128(c)
            for axis, k in enumerate(key):
                shape = [1] * self.dim
                shape[axis] = G
                term = term * np.exp(1j * k * theta).reshape(shape)
            vals = vals + term
        return vals

    def mean_value(self):
        """Quadrature mean over the torus; equals fhat(0) exactly for a
        trig polynomial once the grid resolves the degree."""
        G = 2 * self.degree + 1
        return complex(np.mean(self.value_on_grid(G)))


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense matrix of f(x) * (1+Delta)^{-power} on the cube |m_i| <= M,
    rows/columns in cube_basis order."""

    cube_halfwidth: int
    dimension: int
    entries: np.ndarray
    basis_points: np.ndarray
    provenance: str = field(default="", compare=False)

    @property
    def size(self):
        return int(self.entries.shape[0])


def multiplication_matrix(f, n, halfwidth, power=None):
    """Matrix A[i, j] = fhat(m_i - m_j) * (1+|m_j|^2)^{-power}.

    Coefficients reaching outside the 2M difference cube cannot connect
    any pair of basis points; they are ignored and noted."""
    if not isinstance(f, FourierMultiplier):
        raise TypeError("first argument must be a FourierMultiplier")
    _check_dim(n)
    if f.dim != n:
        raise ValueError("multiplier dimension %d != n=%d" % (f.dim, n))
    p = float(power) if power is not None else n / 2.0
    M = int(halfwidth)
    if M < 1:
        raise ValueError("cube halfwidth must be >= 1")
    dim = (2 * M + 1) ** n
    _check_budget("matrix assembly (%d x %d)" % (dim, dim), dim * dim * 16 * 5)
    pts, w = cube_basis(n, M)
    weights = w ** (-p)
    index = {tuple(pt): i for i, pt in enumerate(pts)}
    A = np.zeros((dim, dim), dtype=np.complex128)
    dropped = []
    rows = np.arange(dim)
    for key, c in f.coefficients.items():
        if max(abs(k) for k in key) > 2 * M:
            dropped.append(key)
            continue
        shifted = pts + np.asarray(key, dtype=np.int64)
        for j in rows:
            i = index.get(tuple(shifted[j]))
            if i is not None:
                A[i, j] += c * weights[j]
    note = "f support %d terms, power %g" % (len(f.coefficients), p)
    if dropped:
        note += "; ignored coefficients outside the 2M cube: %r" % (dropped,)
    return TruncatedOperator(M, n, A, pts, provenance=note)


# ------------------------------------------------------ dense linear algebra


def _as_matrix(a):
    if isinstance(a, TruncatedOperator):
        a = a.entries
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square dense matrix")
    return A


def singular_values(a):
    """Singular values, nonincreasing, with a residual certificate:
    every pair must satisfy ||(A*A)v - s^2 v|| <= 1e-8 * ||A||^2, or
    CertificateError is raised."""
    A = _as_matrix(a)
    try:
        _, s, vh = linalg.svd(A, full_matrices=False)
    except linalg.LinAlgError as exc:
        raise CertificateError(
            "singular value solver failed: %s" % exc
        ) from exc
    v = vh.conj().T
    resid = A.conj().T @ (A @ v) - v * (s * s)
    worst = float(np.max(np.linalg.norm(resid, axis=0))) if s.size else 0.0
    scale = float(s[0] * s[0]) if s.size and s[0] > 0 else 1.0
    if worst > 1e-8 * scale:
        raise CertificateError(
            "singular value residual %.3e exceeds 1e-8 * ||A||^2 = %.3e"
            % (worst, 1e-8 * scale)
        )
    return SingularSequence(s)


def _positive_parts(H):
    lam, V = linalg.eigh(H)
    pos = V @ (np.clip(lam, 0.0, None)[:, None] * V.conj().T)
    neg = V @ (np.clip(-lam, 0.0, None)[:, None] * V.conj().T)
    return pos, neg


def hermitian_decompose(a):
    """T = T1 - T2 + i T3 - i T4 with all four parts positive
    semidefinite, T1 T2 = 0 and T3 T4 = 0 (certified)."""
    A = _as_matrix(a)
    H = 0.5 * (A + A.conj().T)
    K = (A - A.conj().T) / 2j
    t1, t2 = _positive_parts(H)
    t3, t4 = _positive_parts(K)
    scale = max(float(np.linalg.norm(A)), 1e-300)
    recon = t1 - t2 + 1j * (t3 - t4)
    if float(np.linalg.norm(recon - A)) > 1e-10 * scale:
        raise RuntimeError("positive-part reconstruction failed")
    for x, y in ((t1, t2), (t3, t4)):
        if float(np.linalg.norm(x @ y)) > 1e-8 * scale * scale:
            raise RuntimeError("positive/negative parts not orthogonal")
    return t1, t2, t3, t4


def expectation_sequence(a, basis=None):
    """Diagonal expectations <h_m, a h_m> in a given basis.

    FourierMultiplier a: the model eigenbasis is the torus exponentials
    and every expectation equals the quadrature mean of the symbol
    (= fhat(0) for trig polynomials); basis gives the length, either an
    integer or an array of lattice points.  Dense a: basis is a unitary
    whose columns are the h_m (identity if omitted)."""
    if isinstance(a, FourierMultiplier):
        if basis is None:
            raise ValueError("multiplier expectations need a basis length")
        count = int(basis) if np.isscalar(basis) else int(np.shape(basis)[0])
        return np.full(count, a.mean_value(), dtype=np.complex128)
    A = _as_matrix(a)
    if basis is None:
        return np.ascontiguousarray(np.diag(A))
    U = np.asarray(basis, dtype=np.complex128)
    if U.shape != A.shape:
        raise ValueError("basis must be a unitary of matching shape")
    return np.ascontiguousarray(np.diag(U.conj().T @ A @ U))


# --------------------------------------------------- noncommutative torus


@dataclass(frozen=True)
class NCTorusElement:
    """Finite sum a = sum a_{m,n} u^m v^n in the rotation algebra A_theta."""

    coefficients: dict
    theta: float

    def __post_init__(self):
        th = float(self.theta)
        if not 0.0 <= th < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        clean = {}
        for key, val in self.coefficients.items():
            m, n = (int(key[0]), int(key[1]))
            val = complex(val)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError("coefficients must be finite")
            clean[(m, n)] = val
        object.__setattr__(self, "coefficients", clean)
        object.__setattr__(self, "theta", th)

    @property
    def lam(self):
        return cmath.exp(2j * math.pi * self.theta)


def nc_element(coefficients, theta):
    return NCTorusElement(coefficients, theta)


def nc_identity(theta):
    return NCTorusElement({(0, 0): 1.0}, theta)


def nc_monomial(m, n, theta, coeff=1.0):
    """coeff * u^m v^n."""
    return NCTorusElement({(int(m), int(n)): coeff}, theta)


def _phase(theta, k):
    return cmath.exp(2j * math.pi * theta * k)


def _same_theta(a, b):
    if a.theta != b.theta:
        raise ValueError(
            "theta mismatch: %r vs %r" % (a.theta, b.theta)
        )


def nc_product(a, b):
    """(ab)_{r,s} = sum_{m,n} a_{r-m,n} lambda^{mn} b_{m,s-n}.

    Under this printed convention vu = lambda * uv; the glossary's
    "uv = lambda vu" corresponds to theta -> -theta and does not affect
    any tau_0 identity."""
    _same_theta(a, b)
    out = {}
    for (p, q), va in a.coefficients.items():
        for (m, w), vb in b.coefficients.items():
            key = (p + m, q + w)
            out[key] = out.get(key, 0j) + va * vb * _phase(a.theta, m * q)
    return NCTorusElement(out, a.theta)


def nc_star(a):
    """(a*)_{r,s} = lambda^{rs} * conj(a_{-r,-s})."""
    out = {}
    for (p, q), val in a.coefficients.items():
        out[(-p, -q)] = _phase(a.theta, p * q) * val.conjugate()
    return NCTorusElement(out, a.theta)


def nc_tau0(a):
    """The canonical trace reads the (0,0) coefficient."""
    return a.coefficients.get((0, 0), 0j)


def nc_torus_spectrum(cutoff_radius, power=None):
    """Spectrum of (1+Delta_theta)^{-power}: identical to the flat
    2-torus lattice for every theta."""
    return torus_spectrum(2, cutoff_radius, power)


# ------------------------------------------------------------ Connes RHS


def connes_rhs(f, n):
    """Vol(S^{n-1}) * fhat(0) / n: the residue-side constant of the
    trace theorem for the multiplier f on the n-torus."""
    if not isinstance(f, FourierMultiplier):
        raise TypeError("first argument must be a FourierMultiplier")
    _check_dim(n)
    if f.dim != n:
        raise ValueError("multiplier dimension %d != n=%d" % (f.dim, n))
    val = f.fhat0 * SPHERE_VOL[n] / n
    if f.real_flag:
        return float(val.real)
    return complex(val)


# ------------------------------------------------------ domination check


def domination_check(basis_profiles, candidate, atol=1e-12):
    """True iff every profile |h_m(x)|^2 is pointwise below the
    candidate |h(x)|^2 on the shared grid (the multiplication-algebra
    surrogate for projection domination).  atol absorbs roundoff in
    profiles that are analytically equal to the candidate."""
    cand = np.asarray(candidate, dtype=np.float64)
    if np.any(cand < 0.0):
        raise ValueError("candidate profile must be nonnegative")
    profiles = np.asarray(basis_profiles, dtype=np.float64)
    if profiles.ndim == cand.ndim:
        profiles = profiles[None, ...]
    if profiles.shape[1:] != cand.shape:
        raise ValueError("profile grid does not match candidate grid")
    if np.any(profiles < 0.0):
        raise ValueError("profiles must be nonnegative")
    return bool(np.all(profiles <= cand + atol))
