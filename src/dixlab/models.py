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
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from . import kernels
from .sequences import (  # BudgetError: models.BudgetError stays public
    BudgetError,
    FieldError,
    PowerLogTail,
    SingularSequence,
    _check_budget,
)

UNIT_BALL_VOL = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
SPHERE_VOL = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class CertificateError(RuntimeError):
    """Raised when a numerical result fails its own accuracy check."""


def _check_dim(n):
    if n not in (1, 2, 3):
        raise FieldError("dimension", "lattice dimension must be 1, 2 or 3")


def _check_multiplier(f, n):
    if not isinstance(f, FourierMultiplier):
        raise TypeError("first argument must be a FourierMultiplier")
    _check_dim(n)
    if f.dim != n:
        raise ValueError("multiplier dimension %d != n=%d" % (f.dim, n))


def _operator_power(n, power):
    """The exponent p of (1+Delta)^{-p}: n/2 when power is None, and
    positive and finite in any case."""
    p = n / 2.0 if power is None else float(power)
    if not 0.0 < p < math.inf:
        raise FieldError("operator_power",
                         "operator power must be positive and finite")
    return p


# ------------------------------------------------------- lattice spectra


def _charge_shells(n, radius):
    """Check n and radius and charge the budget for the shell table of
    kernels.shell_counts(n, radius): at most min(point count, radius^2 +
    1) entries, six int64 words each with the temporaries of a dense
    pass."""
    _check_dim(n)
    radius = int(radius)
    if radius < 1:
        raise FieldError("cutoff_radius", "cutoff radius must be >= 1")
    points = UNIT_BALL_VOL[n] * (radius + 1.0) ** n
    words = 6.0 * min(points, radius * radius + 1.0)
    _check_budget("lattice shell table (radius %d)" % radius, 8.0 * words)


def _shells(n, radius):
    """kernels.shell_counts(n, radius) behind the memory budget."""
    _charge_shells(n, radius)
    return kernels.shell_counts(n, radius)


def lattice_count(n, radius):
    """#{m in Z^n : |m| <= radius}, exact integer arithmetic: the sum of
    the shell counts."""
    return int(_shells(n, radius)[1].sum())


def _spectrum_tail(n, power):
    # Weyl counting N(lambda) ~ omega_n * lambda^{n/(2p)} inverts to
    # mu_k ~ (omega_n / k)^{2p/n}
    a = 2.0 * power / n
    if a * math.log(UNIT_BALL_VOL[n]) > 709.0:
        raise ValueError("operator power %g puts the Weyl tail past the "
                         "float range" % power)
    return PowerLogTail(UNIT_BALL_VOL[n] ** a, a, 0.0)


def torus_spectrum(n, cutoff_radius, power=None):
    """Eigenvalues (1+|m|^2)^{-power} over |m| <= cutoff, nonincreasing,
    with the Weyl-law tail model attached: one run per lattice shell,
    its count the number of points on the shell."""
    _check_dim(n)
    p = _operator_power(n, power)
    keys, counts = _shells(n, cutoff_radius)
    return SingularSequence((1.0 + keys) ** (-p), _spectrum_tail(n, p),
                            counts)


def _zeta_tail(n, q, radius):
    """Integral of (1+|x|^2)^{-q} over |x| > radius in R^n.

    u = 1/(1+|x|^2) turns it into Vol(S^{n-1})/2 * B(a, n/2) * I(u_R; a,
    n/2), a = q - n/2, an incomplete beta function that stays exact as
    q -> n/2+, where quadrature over [radius^2, inf) loses the slowly
    decaying integrand (the 3-torus at radius 200 read 35 for 774).
    For n = 2 it is elementary."""
    r = float(radius)
    if n == 2:
        return math.pi * (1.0 + r * r) ** (1.0 - q) / (q - 1.0)
    a = q - 0.5 * n
    u = 1.0 / (1.0 + r * r)
    return (0.5 * SPHERE_VOL[n] * special.beta(a, 0.5 * n)
            * special.betainc(a, 0.5 * n, u))


@dataclass(frozen=True)
class LatticeModel:
    """(1+Delta)^{-operator_power} on the n-torus, truncated at a
    Euclidean lattice radius."""

    dimension: int
    cutoff_radius: int
    operator_power: float = None

    def __post_init__(self):
        p = _operator_power(self.dimension, self.operator_power)
        object.__setattr__(self, "operator_power", p)
        object.__setattr__(self, "cutoff_radius", int(self.cutoff_radius))
        # checked here, before any experiment runs: the spectrum is lazy
        _charge_shells(self.dimension, self.cutoff_radius)
        _spectrum_tail(self.dimension, p)

    def spectrum(self):
        cached = getattr(self, "_spectrum", None)
        if cached is None:
            cached = torus_spectrum(
                self.dimension, self.cutoff_radius, self.operator_power
            )
            object.__setattr__(self, "_spectrum", cached)
        return cached

    def zeta_tail(self, s):
        """sum over |m| > cutoff of (1+|m|^2)^{-ps}: the continuum
        integral _zeta_tail.  It diverges for s <= n/(2p), which raises,
        naming s."""
        n, p, s = self.dimension, self.operator_power, float(s)
        if p * s <= n / 2.0:
            raise ValueError("zeta sum diverges at s=%g (needs s > %g)"
                             % (s, n / (2.0 * p)))
        return _zeta_tail(n, p * s, self.cutoff_radius)


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


@dataclass(frozen=True, eq=False)  # array fields: identity equality
class TruncatedOperator:
    """f(x) * (1+Delta)^{-power} on the cube |m_i| <= M, held as its
    symbol: the coefficients fhat(k) with |k_i| <= 2M and the weights
    (1+|m|^2)^{-power} of basis_points, in cube_basis order.  entries
    assembles the dense matrix on first use."""

    cube_halfwidth: int
    dimension: int
    basis_points: np.ndarray
    coefficients: dict
    weights: np.ndarray
    provenance: str

    @property
    def size(self):
        return int(self.basis_points.shape[0])

    @property
    def entries(self):
        """Dense A[i, j] = fhat(m_i - m_j) * weights[j], built and
        charged (16 bytes per entry) on first use."""
        cached = getattr(self, "_entries", None)
        if cached is not None:
            return cached
        n, M, dim = self.dimension, self.cube_halfwidth, self.size
        side = 2 * M + 1
        _check_budget("matrix assembly (%d x %d)" % (dim, dim), dim * dim * 16)
        pts, weights = self.basis_points, self.weights
        # position in pts of each cube point, keyed by its row-major index
        where = np.empty(dim, dtype=np.int64)
        where[np.ravel_multi_index(tuple((pts + M).T), (side,) * n)] = (
            np.arange(dim)
        )
        A = np.zeros((dim, dim), dtype=np.complex128)
        for key, c in self.coefficients.items():
            # column j holds m_j; its row is m_j + key when in the cube
            shifted = pts + np.asarray(key, dtype=np.int64)
            j = np.flatnonzero(np.all(np.abs(shifted) <= M, axis=1))
            i = where[np.ravel_multi_index(tuple((shifted[j] + M).T),
                                           (side,) * n)]
            A[i, j] = c * weights[j]
        object.__setattr__(self, "_entries", A)
        return A


def multiplication_matrix(f, n, halfwidth, power=None):
    """The truncation A[i, j] = fhat(m_i - m_j) * (1+|m_j|^2)^{-power}
    as its symbol; TruncatedOperator.entries builds the dense matrix.

    Coefficients reaching outside the 2M difference cube cannot connect
    any pair of basis points; they are ignored and noted."""
    _check_multiplier(f, n)
    p = _operator_power(n, power)
    M = int(halfwidth)
    if M < 1:
        raise FieldError("halfwidth", "cube halfwidth must be >= 1")
    dim = (2 * M + 1) ** n
    # cube_basis and the weights peak at 3n + 5 words per point: the
    # grids, the points and their sorted copy, and five one-word arrays
    _check_budget("cube basis (%d points)" % dim, 8.0 * (3 * n + 5) * dim)
    pts, w = cube_basis(n, M)
    kept = {key: c for key, c in f.coefficients.items()
            if max(abs(k) for k in key) <= 2 * M}
    dropped = [key for key in f.coefficients if key not in kept]
    note = "f support %d terms, power %g" % (len(f.coefficients), p)
    if dropped:
        note += "; ignored coefficients outside the 2M cube: %r" % (dropped,)
    return TruncatedOperator(M, n, pts, kept, w ** (-p), provenance=note)


# ------------------------------------------------------ singular values

# Golub-Kahan vectors certified per banded matvec
_BLOCK = 16
# a 1-D band path costs about N^2 * kd against N^3 for the dense SVD;
# timed for deg f = 1..10 on 2 CPUs with one BLAS thread, at N = 90 kd
# the dense SVD is faster (a tie at deg f = 10), at 110 kd the band is
_BAND_MIN_SIZE_PER_KD = 100


def _as_matrix(a, what, arrays):
    """a as a square complex matrix, once the budget admits `arrays`
    N x N complex arrays (a itself among them) for the step `what`; a
    TruncatedOperator is assembled only after that charge."""
    truncation = isinstance(a, TruncatedOperator)
    if not truncation:
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("need a square dense matrix")
    N = a.size if truncation else a.shape[0]
    _check_budget("%s (%d x %d)" % (what, N, N), arrays * 16.0 * N * N)
    return a.entries if truncation else a


def _golub_kahan_band(op):
    """Lower band storage (ab[o, c] = H[c + o, c]) of the Hermitian
    H = [[0, A], [A*, 0]] of a 1-D truncation, interleaved in the natural
    order m = -M..M: row m of A at 2(m+M), column m at 2(m+M) + 1.
    A[j + k, j] = fhat(k) w_j, so H has bandwidth 2 deg f + 1 and the
    eigenvalues +-sigma_i."""
    M, N = op.cube_halfwidth, op.size
    weights = np.empty(N)
    weights[op.basis_points[:, 0] + M] = op.weights  # natural order
    kd = _band_kd(op)
    ab = np.zeros((kd + 1, 2 * N), dtype=np.complex128)
    for (k,), c in op.coefficients.items():
        if k > 0:  # A[j + k, j] at H[2(j + k), 2j + 1]
            ab[2 * k - 1, 1:2 * (N - k):2] = c * weights[:N - k]
        else:  # conj(A[i, i - k]) at H[2(i - k) + 1, 2i]
            ab[1 - 2 * k, 0:2 * (N + k):2] = c.conjugate() * weights[-k:]
    return ab


def _golub_kahan_matvec(ab, X):
    """H x for each row x of X, H held in lower band storage ab.  A
    Golub-Kahan band couples rows to columns only, so only its odd
    offsets are nonzero."""
    n = ab.shape[1]
    Y = np.zeros_like(X)
    for o in range(1, ab.shape[0], 2):
        Y[:, o:] += ab[o, :n - o] * X[:, :n - o]
        Y[:, :n - o] += ab[o, :n - o].conj() * X[:, o:]
    return Y


def _unit(sigma_1):
    """The power of two 2^-e that puts sigma_1 * 2^-e in [1/2, 1) (at
    most 2^1023 for a subnormal sigma_1), or 1 when sigma_1 is 0 or not
    finite.  A certificate computed in these units scales exactly, so it
    neither overflows nor underflows and decides alike at any scale of
    the operator."""
    return 2.0 ** -max(math.frexp(sigma_1)[1], -1023)


def _certify_band(ab, sigma):
    """Raise CertificateError unless every sigma_i has a unit vector x
    with ||Hx - sigma_i x|| <= 1e-8 * sigma_1, which puts an eigenvalue
    of H within that distance.  x is one step of inverse iteration from
    a fixed pseudo-random start (a structured start such as all ones can
    be orthogonal to a whole symmetry class of eigenvectors).

    The residuals place each value but not the multiset (a value
    repeated in place of its neighbour passes them), so sum sigma_i^2
    must also equal ||A||_F^2, the sum of |ab|^2 (the lower band holds
    each entry of A once), within what values that close allow.  Both
    checks run on H and sigma in _unit(sigma_1); ab is scaled in place."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    unit = _unit(float(sigma[0]))
    ab *= unit
    sigma = sigma * unit
    scale = float(sigma[0]) if sigma[0] > 0 else 1.0
    bound = 1e-8 * scale
    # general band storage for gbsv: H[i, j] at row 2 kd + i - j
    gb = np.zeros((3 * kd + 1, n), dtype=np.complex128, order="F")
    for o in range(kd + 1):
        gb[2 * kd + o, :n - o] = ab[o, :n - o]
        gb[2 * kd - o, o:] = ab[o, :n - o].conj()
    gbsv, = linalg.get_lapack_funcs(("gbsv",), (gb,))
    rng = np.random.Generator(np.random.Philox(0))
    start = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:, None]
    nudge = 4.0 * np.spacing(scale)
    for lo in range(0, sigma.size, _BLOCK):
        block = sigma[lo:lo + _BLOCK]
        X = np.empty((block.size, n), dtype=np.complex128)
        for i, s in enumerate(block):
            # (H - s)^-1 start; an exactly singular shift is retried once
            for shift in (s, s + nudge):
                shifted = gb.copy(order="F")
                shifted[2 * kd] -= shift
                _, _, x, info = gbsv(kd, kd, shifted, start, overwrite_ab=1)
                if info == 0:
                    break
            else:
                raise CertificateError(
                    "inverse iteration at %.17g: shifted band is singular"
                    % (s / unit)
                )
            X[i] = x[:, 0]
        X /= np.linalg.norm(X, axis=1)[:, None]
        resid = np.linalg.norm(
            _golub_kahan_matvec(ab, X) - block[:, None] * X, axis=1
        )
        worst = float(np.max(resid))  # a NaN residual propagates here
        if not worst <= bound:
            raise CertificateError(
                "singular value residual %.3e * sigma_1 exceeds 1e-8 * "
                "sigma_1" % (worst / scale)
            )
    gap = abs(float(np.sum(sigma * sigma)) - float(np.vdot(ab, ab).real))
    # |s^2 - t^2| <= bound * (2 s + bound) whenever |s - t| <= bound
    if not gap <= bound * (2.0 * float(np.sum(sigma)) + sigma.size * bound):
        raise CertificateError(
            "singular values miss ||A||_F^2 by %.3e * sigma_1^2: a value "
            "is repeated or lost" % (gap / scale**2)
        )


def _band_singular_values(op):
    """Singular values of a 1-D truncation from the eigenvalues of its
    Golub-Kahan band (no squaring of A), each certified by
    _certify_band."""
    ab = _golub_kahan_band(op)
    kd, n = ab.shape[0] - 1, ab.shape[1]
    _check_budget(
        "banded singular values (%d x %d, bandwidth %d)"
        % (op.size, op.size, kd),
        16.0 * n * (2 * (kd + 1) + 2 * (3 * kd + 1) + 4 * _BLOCK),
    )
    try:
        lam = linalg.eig_banded(ab, lower=True, eigvals_only=True)
    except linalg.LinAlgError as exc:
        raise CertificateError(
            "singular value solver failed: %s" % exc
        ) from exc
    # eigenvalues ascend and pair up as +-sigma: the top half, reversed
    sigma = np.maximum(lam[op.size:][::-1], 0.0)
    _certify_band(ab, sigma)
    return sigma


def _band_kd(op):
    """Bandwidth 2 deg f + 1 of the Golub-Kahan band of a 1-D
    truncation, deg f over the coefficients it kept."""
    return 2 * max((abs(k) for (k,) in op.coefficients), default=0) + 1


def _takes_band_path(a):
    return (isinstance(a, TruncatedOperator) and a.dimension == 1
            and a.size >= _BAND_MIN_SIZE_PER_KD * _band_kd(a))


def singular_values(a):
    """Singular values, nonincreasing, each certified or CertificateError
    is raised.

    A 1-D TruncatedOperator whose size is large against its symbol's
    degree takes the banded Golub-Kahan path (_band_singular_values,
    residual bound 1e-8 * sigma_1).  Anything else takes a dense SVD:
    every pair must satisfy ||(A*A)v - s^2 v|| <= 1e-8 * ||A||^2."""
    if _takes_band_path(a):
        return SingularSequence(_band_singular_values(a))
    # the entries and, at the peak, six more: LAPACK's copy of A, U,
    # V^H and its workspace, then the certificate's products
    A = _as_matrix(a, "dense SVD", 7)
    try:
        _, s, vh = linalg.svd(A, full_matrices=False)
    except linalg.LinAlgError as exc:
        raise CertificateError(
            "singular value solver failed: %s" % exc
        ) from exc
    v = vh.conj().T
    # in _unit(s_1)^2, scaling each product in place
    unit = _unit(float(s[0])) if s.size else 1.0
    resid = A @ v
    resid *= unit
    resid = A.conj().T @ resid
    resid *= unit
    resid -= v * (s * unit) ** 2
    worst = float(np.max(np.linalg.norm(resid, axis=0))) if s.size else 0.0
    scale = float(s[0] * unit) ** 2 if s.size and s[0] > 0 else 1.0
    if not worst <= 1e-8 * scale:
        raise CertificateError(
            "singular value residual %.3e * ||A||^2 exceeds 1e-8 * ||A||^2"
            % (worst / scale)
        )
    return SingularSequence(s)


# ------------------------------------------------------ dense linear algebra


def _positive_parts(H):
    lam, V = linalg.eigh(H)
    pos = V @ (np.clip(lam, 0.0, None)[:, None] * V.conj().T)
    neg = V @ (np.clip(-lam, 0.0, None)[:, None] * V.conj().T)
    return pos, neg


def hermitian_decompose(a):
    """T = T1 - T2 + i T3 - i T4 with all four parts positive
    semidefinite, T1 T2 = 0 and T3 T4 = 0 (certified)."""
    # the input and, at the peak, eight more (H, K, the parts, eigh's)
    A = _as_matrix(a, "hermitian decomposition", 9)
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
    # with a basis: A, U and the two products U* A and U* A U
    A = _as_matrix(a, "expectations", 1 if basis is None else 4)
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


def nc_product(a, b):
    """(ab)_{r,s} = sum_{m,n} a_{r-m,n} lambda^{mn} b_{m,s-n}.

    Under this printed convention vu = lambda * uv; the glossary's
    "uv = lambda vu" corresponds to theta -> -theta and does not affect
    any tau_0 identity."""
    if a.theta != b.theta:
        raise ValueError("theta mismatch: %r vs %r" % (a.theta, b.theta))
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
    _check_multiplier(f, n)
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
