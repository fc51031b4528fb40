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
import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

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


def _shells(n, radius):
    """kernels.shell_counts(n, radius), once n and radius pass the one
    check of every lattice path and the budget admits what its pass
    holds, kernels._shell_bytes."""
    _check_dim(n)
    radius = int(radius)
    if radius < 1:
        raise FieldError("cutoff_radius", "cutoff radius must be >= 1")
    _check_budget("lattice shell table (radius %d)" % radius,
                  kernels._shell_bytes(n, radius))
    return kernels.shell_counts(n, radius)


def lattice_count(n, radius):
    """#{m in Z^n : |m| <= radius}, exact integer arithmetic: the sum of
    the shell counts."""
    return int(_shells(n, radius)[1].sum())


@dataclass(frozen=True, kw_only=True)
class TorusTail(PowerLogTail):
    """The Weyl tail coeff * k^-power, power = 2p/n and coeff omega_n^power
    (times the factor of SingularSequence.scaled), past the spectrum
    (1+|m|^2)^-p of the n-torus over |m| <= cutoff_radius, p the
    operator_power.  Every sum past the head (log-average, power and
    heat) is the PowerLogTail's Euler-Maclaurin sum; the sum of s-th
    powers diverges for s <= 1/power, that is p s <= n/2.  Inside its
    ball the torus's values are the lattice shells, not the Weyl
    formula, so the tail continues that head only: head_length, its
    number of lattice points, is the only length SingularSequence
    accepts in front of it."""

    dimension: int
    operator_power: float
    cutoff_radius: int
    head_length: int


def torus_spectrum(dimension, cutoff_radius, operator_power=None):
    """Eigenvalues (1+|m|^2)^{-p} of (1+Delta)^{-p} on the n-torus over
    |m| <= cutoff, nonincreasing, one run per lattice shell with the
    number of points on the shell as its count, and the TorusTail past
    them.  p is operator_power, n/2 by default."""
    n = dimension
    keys, counts = _shells(n, cutoff_radius)
    p = _operator_power(n, operator_power)
    # Weyl counting N(lambda) ~ omega_n * lambda^{n/(2p)} inverts to
    # mu_k ~ (omega_n / k)^{2p/n}
    a = 2.0 * p / n
    if a * math.log(UNIT_BALL_VOL[n]) > 709.0:
        raise ValueError("operator power %g puts the Weyl tail past the "
                         "float range" % p)
    tail = TorusTail(UNIT_BALL_VOL[n] ** a, a, dimension=n, operator_power=p,
                     cutoff_radius=int(cutoff_radius),
                     head_length=int(counts.sum()))
    # raised in place, the keys freed first: SingularSequence's acceptance
    # holds two more head-sized arrays beside the head and counts
    head = keys + 1.0
    del keys
    head **= -p
    return SingularSequence(head, tail, counts)


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
    def fhat0(self):
        return self.coefficients.get((0,) * self.dim, 0j)


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

# cluster leads whose vectors are multiplied by A and A* in one batch
_BLOCK = 16
# numpy's ufunc buffer size in _band_apply: at 1024 elements and above a
# strided 16 x 401 complex product is copied through iteration buffers
# (numpy 2.4), at 256 and below it runs in place and is no slower
_UFUNC_BUFSIZE = 256
# a 1-D band path costs about N^2 * kd against N^3 for the dense SVD.
# Timed for deg f = 1, 3, 5 and 10 on 2 CPUs with one BLAS thread (best
# of 3, BENCH_33.json), band/dense time at N = 10, 40 and 70 kd: deg f =
# 1 1.99, 1.06, 0.72; 3 2.04, 0.87, 0.60; 5 2.42, 1.21, 0.43; 10 2.45,
# 0.80, 0.81.  The band is faster at every degree from 70 kd on
_BAND_MIN_SIZE_PER_KD = 70
# eig_banded returns the Gram band's eigenvalues to c * eps * sigma_1^2,
# so sigma = sqrt(lambda) is off by c * eps * sigma_1^2 / (2 sigma).  c
# measured at most 0.16 (degrees 1 to 10, real and complex symbols, N up
# to 1201): 1.8e-13 sigma_1 at sigma = 1e-4 sigma_1, inside the 1e-12
# sigma_1 to which it matches the dense SVD (1.1e-12 even at c = 1).
# Smaller values come from the 2N Golub-Kahan band (no squaring of A)
_GRAM_MIN_SIGMA = 1e-4
# a value within _SHARE * sigma_1 of the value whose inverse step made
# the certificate vector (its lead) reuses the lead's vector and its
# products by A and A*.  Its residual ||R - delta y|| / nu (_certify_band)
# exceeds the lead's by about |delta| ||y|| / nu: |lead - s| on the 2N
# band, at most |lead - s| (2 + |lead - s| / s) on the Gram band, about
# 2e-12 sigma_1 for s >= _GRAM_MIN_SIGMA sigma_1: 2e-4 of the
# certificate's 1e-8 sigma_1.  The even weights (1+m^2)^(-1/2) make the
# m > 0 and m < 0 halves twins at small sigma
_SHARE = 1e-12


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


def _symbol_band(op):
    """A of a 1-D truncation in column band storage, in the natural order
    m = -M..M: a[d + k, j] = A[j + k, j] = fhat(k) w_j for |k| <= d =
    deg f, zero where row j + k leaves the cube."""
    M, N = op.cube_halfwidth, op.size
    weights = np.empty(N)
    weights[op.basis_points[:, 0] + M] = op.weights  # natural order
    d = (_band_kd(op) - 1) // 2
    a = np.zeros((2 * d + 1, N), dtype=np.complex128)
    for (k,), c in op.coefficients.items():
        lo, hi = max(0, -k), min(N, N - k)
        a[d + k, lo:hi] = c * weights[lo:hi]
    return a


def _golub_kahan_band(a):
    """Lower band storage (ab[o, c] = H[c + o, c]) of the Hermitian
    H = [[0, A], [A*, 0]] of the band a (_symbol_band), interleaved in the
    natural order: row m of A at 2(m+M), column m at 2(m+M) + 1.  H has
    bandwidth 2 deg f + 1 and the eigenvalues +-sigma_i."""
    d, N = (a.shape[0] - 1) // 2, a.shape[1]
    ab = np.zeros((2 * d + 2, 2 * N), dtype=np.complex128)
    for k in range(-d, d + 1):
        if k > 0:  # A[j + k, j] at H[2(j + k), 2j + 1]
            ab[2 * k - 1, 1:2 * (N - k):2] = a[d + k, :N - k]
        else:  # conj(A[i, i - k]) at H[2(i - k) + 1, 2i]
            ab[1 - 2 * k, 0:2 * (N + k):2] = a[d + k, -k:].conj()
    return ab


def _gram_band(a):
    """Lower band storage (g[q, j] = B[j + q, j]) of the Hermitian
    B = A*A of the band a (_symbol_band), bandwidth 2 deg f:
    B[j + q, j] = sum_k conj(A[j + k, j + q]) A[j + k, j]."""
    d, N = (a.shape[0] - 1) // 2, a.shape[1]
    g = np.zeros((2 * d + 1, N), dtype=np.complex128)
    for q in range(min(2 * d, N - 1) + 1):
        for k in range(q - d, d + 1):  # both k and k - q within the band
            g[q, :N - q] += a[d + k - q, q:].conj() * a[d + k, :N - q]
    return g


def _general_band(lower):
    """The lower band storage of a Hermitian band as gbsv's general band
    storage, H[i, j] at row 2 kd + i - j, with room for the LU fill."""
    kd, n = lower.shape[0] - 1, lower.shape[1]
    gb = np.zeros((3 * kd + 1, n), dtype=np.complex128, order="F")
    for o in range(min(kd, n - 1) + 1):
        gb[2 * kd + o, :n - o] = lower[o, :n - o]
        gb[2 * kd - o, o:] = lower[o, :n - o].conj()
    return gb


def _start(n):
    """The fixed pseudo-random start of inverse iteration, as a column (a
    structured start such as all ones can be orthogonal to a whole
    symmetry class of eigenvectors)."""
    rng = np.random.Generator(np.random.Philox(0))
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:, None]


def _inverse_step(gb, shift, start, nudge):
    """(G - shift)^-1 start for the Hermitian band G in general band
    storage gb (_general_band), or None when G - shift and, retried once,
    G - shift - nudge are exactly singular."""
    kd = (gb.shape[0] - 1) // 3
    gbsv, = linalg.get_lapack_funcs(("gbsv",), (gb,))
    for s in (shift, shift + nudge):
        shifted = gb.copy(order="F")
        shifted[2 * kd] -= s
        _, _, x, info = gbsv(kd, kd, shifted, start, overwrite_ab=1)
        if info == 0:
            return x[:, 0]
    return None


def _band_apply(a, X, adjoint=False):
    """A x for each row x of X, A held in column band storage a; with
    adjoint, A^T x, so A* x when a holds conj(A).

    Holds two block arrays, Y and one product buffer P reused for every
    diagonal.  numpy would copy each strided block operand through an
    iteration buffer of up to its default 8192 elements; with the buffer
    size at _UFUNC_BUFSIZE, below a row, it walks the rows in place."""
    d, N = (a.shape[0] - 1) // 2, a.shape[1]
    Y, P = np.zeros_like(X), np.empty_like(X)
    with _small_ufunc_buffers():
        for k in range(-d, d + 1):
            lo, hi = max(0, -k), min(N, N - k)  # columns j with a row j + k
            p = P[:, :hi - lo]
            if adjoint:
                Y[:, lo:hi] += np.multiply(a[d + k, lo:hi],
                                           X[:, lo + k:hi + k], out=p)
            else:
                Y[:, lo + k:hi + k] += np.multiply(a[d + k, lo:hi],
                                                   X[:, lo:hi], out=p)
    return Y


@contextlib.contextmanager
def _small_ufunc_buffers():
    """numpy's ufunc buffer size at _UFUNC_BUFSIZE, restored on exit."""
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _dots(X, Y):
    """Re <x, y> for each pair of rows x of X and y of Y."""
    return np.einsum("ij,ij->i", X.view(np.float64), Y.view(np.float64))


def _lead_sums(a, ac, l, on_h, V, W):
    """||R||^2, Re <R, y>, ||y||^2 and ||A v||^2 (0 on the 2N band) of the
    leads l (_certify_band), v and, on the 2N band, u the rows of V and W
    (overwritten): one product by A (a) and one by A* (ac), freed on
    return, before the next block's products are formed.

    Holds three block arrays: A v, R and _band_apply's product buffer,
    then A v, R and one buffer P for both row scalings, each formed
    under small ufunc buffers (at numpy's default a row-broadcast
    product is copied through an iteration buffer of most of a block)."""
    AV = _band_apply(a, V)
    W[~on_h] = AV[~on_h]
    R = _band_apply(ac, W, adjoint=True)
    P = np.empty_like(V)
    with _small_ufunc_buffers():
        R -= np.multiply(np.where(on_h, l, l * l)[:, None], V, out=P)
    sums = np.stack([_dots(R, R), _dots(R, V), _dots(V, V),
                     np.where(on_h, 0.0, _dots(W, W))])
    if on_h.any():  # R's first half on the 2N band: A v - l u
        with _small_ufunc_buffers():
            AV -= np.multiply(l[:, None], W, out=P)
        sums[:3] += np.where(on_h, [_dots(AV, AV), _dots(AV, W),
                                    _dots(W, W)], 0.0)
    return sums


def _norms(U, V):
    """||(u, v)|| for u and v the rows of U and V."""
    return np.hypot(np.linalg.norm(U, axis=1), np.linalg.norm(V, axis=1))


def _residuals(U, V, AV, AU, s):
    """||Hx - s x|| / ||x|| of H = [[0, A], [A*, 0]] for each x = (u, v),
    u, v, A v and A* u the rows of U, V, AV and AU: Hx = (A v, A* u).
    NaN where ||x|| overflows."""
    s = s[:, None]
    size = _norms(U, V)
    resid = _norms(AV - s * U, AU - s * V)
    return np.where(np.isfinite(size), resid / size, np.nan)


def _unit(sigma_1):
    """The power of two 2^-e that puts sigma_1 * 2^-e in [1/2, 1) (at
    most 2^1023 for a subnormal sigma_1), or 1 when sigma_1 is 0 or not
    finite.  A certificate computed in these units scales exactly, so it
    neither overflows nor underflows and decides alike at any scale of
    the operator."""
    return 2.0 ** -max(math.frexp(sigma_1)[1], -1023)


def _certify(sigma, resid, frobenius):
    """Raise CertificateError unless every sigma_i has a vector x with
    resid_i = ||Hx - sigma_i x|| / ||x|| <= 1e-8 * sigma_1, H = [[0, A],
    [A*, 0]], whose eigenvalues are the +-sigma of A, and sum sigma_i^2
    equals frobenius = ||A||_F^2 within what values that close allow.

    A residual places each value, whatever produced x, but not the
    multiset (a value repeated in place of its neighbour passes it):
    the Frobenius check catches that.  Every argument is in one power-of-
    two unit that keeps sigma_1 and ||A||_F inside the float range, so
    the rule decides alike at any scale of A."""
    scale = float(sigma[0]) if sigma.size and sigma[0] > 0 else 1.0
    bound = 1e-8 * scale
    if not np.all(resid <= bound):
        worst = float(np.max(resid))  # a NaN residual propagates here
        raise CertificateError(
            "singular value residual %.3e * sigma_1 exceeds 1e-8 * sigma_1"
            % (worst / scale)
        )
    gap = abs(float(np.sum(sigma * sigma)) - frobenius)
    # |s^2 - t^2| <= bound * (2 s + bound) whenever |s - t| <= bound
    if not gap <= bound * (2.0 * float(np.sum(sigma)) + sigma.size * bound):
        raise CertificateError(
            "singular values miss ||A||_F^2 by %.3e * sigma_1^2: a value "
            "is repeated or lost" % (gap / scale**2)
        )


def _on_golub_kahan(sigma):
    """Where a value is served by the 2N Golub-Kahan band rather than the
    N x N Gram band: below _GRAM_MIN_SIGMA * sigma_1, or not > 0 (no
    u = A v / sigma)."""
    return (sigma < _GRAM_MIN_SIGMA * sigma[0]) | ~(sigma > 0)


def _certify_band(a, sigma, gram, golub_kahan):
    """_certify the singular values sigma of the band a (_symbol_band),
    both in the unit of _band_singular_values, which hands over the
    bands it formed: gram = _gram_band(a) and golub_kahan =
    _golub_kahan_band(a), or None when no value is _on_golub_kahan.

    A value joins the cluster of the last value that took a step (its
    lead) when it is on the same band within _SHARE * sigma_1 of it.  A
    lead l takes one step of inverse iteration from a fixed pseudo-random
    start: on the Gram band, (A*A - l^2) v = start; for a value
    _on_golub_kahan, on the 2N band, (H - l) x = start, x = (u, v), H =
    [[0, A], [A*, 0]].  Its vector is multiplied once by A and once by
    A*, into R = A*A v - l^2 v, or R = Hx - l x on the 2N band.

    Each value s keeps its own residual ||Hx - s x|| / ||x||: ||R - (s -
    l) x|| / ||x|| on the 2N band.  On the Gram band x = (A v / s, v), so
    Hx - s x = (0, (A*A v - s^2 v) / s) and ||x|| = nu / s, nu^2 = ||A
    v||^2 + s^2 ||v||^2: the residual is ||R - (s^2 - l^2) v|| / nu."""
    ac = a.conj()
    scale = float(sigma[0]) if sigma[0] > 0 else 1.0
    N = a.shape[1]
    gram, start = _general_band(gram), _start(N)
    nudge = 4.0 * np.spacing(scale * scale)  # on the scale of A*A
    if golub_kahan is not None:
        golub_kahan, start_2n = _general_band(golub_kahan), _start(2 * N)
        nudge_2n = 4.0 * np.spacing(scale)
    wide = _on_golub_kahan(sigma)  # the values stepped on H
    share, leads = _SHARE * scale, []
    lead, lead_on_h = math.nan, None  # the cluster's lead and its band
    for i, (s, on_h) in enumerate(zip(sigma.tolist(), wide.tolist())):
        # a NaN value starts a cluster of its own
        if on_h != lead_on_h or not abs(s - lead) <= share:
            leads.append(i)
            lead, lead_on_h = s, on_h
    owner = np.repeat(np.arange(len(leads)), np.diff(leads, append=sigma.size))
    leads = np.asarray(leads)
    sums = np.empty((4, leads.size))  # _lead_sums of each lead
    V = np.empty((min(_BLOCK, leads.size), N), dtype=np.complex128)
    W = np.empty_like(V)  # u on the 2N band
    # a vector that overflows has a NaN residual, which _certify refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, leads.size, _BLOCK):
            block = leads[lo:lo + _BLOCK]
            l, on_h = sigma[block], wide[block]
            for i, s in enumerate(l):
                if on_h[i]:
                    x = _inverse_step(golub_kahan, s, start_2n, nudge_2n)
                else:
                    x = _inverse_step(gram, s * s, start, nudge)
                if x is None:
                    raise CertificateError(
                        "inverse iteration at %.17g * sigma_1: shifted "
                        "band is singular" % (s / scale)
                    )
                x = x / np.max(np.abs(x))
                if on_h[i]:
                    W[i], V[i] = x[0::2], x[1::2]
                else:
                    V[i] = x
            sums[:, lo:lo + l.size] = _lead_sums(a, ac, l, on_h, V[:l.size],
                                                 W[:l.size])
        # ||R - delta y||^2 expanded: rounding moves a residual by about
        # sqrt(N eps) (||R|| + |delta| ||y||) / nu, 5e-15 sigma_1 at N =
        # 1201 for a lead at the bound (|delta| ||y|| / nu: see _SHARE)
        r2, ry, y2, a2 = sums[:, owner]
        l = sigma[leads[owner]]
        delta = np.where(wide, sigma - l, sigma * sigma - l * l)
        num = r2 - 2.0 * delta * ry + delta * delta * y2
        resid = np.sqrt(np.maximum(num, 0.0)
                        / (a2 + np.where(wide, 1.0, sigma * sigma) * y2))
    _certify(sigma, resid, float(np.vdot(a, a).real))


def _band_eigenvalues(ab):
    """All eigenvalues, ascending, of the Hermitian band in lower band
    storage ab, or CertificateError when the solver fails."""
    try:
        return linalg.eig_banded(ab, lower=True, eigvals_only=True)
    except linalg.LinAlgError as exc:
        raise CertificateError(
            "singular value solver failed: %s" % exc
        ) from exc


def _check_float_range(largest, what):
    """ValueError naming the float64 range when largest, the largest
    magnitude of the result what, is infinite."""
    if largest == math.inf:
        raise ValueError("%s lies past the float64 range" % what)


def _band_singular_values(op):
    """Singular values of a 1-D truncation, each certified by
    _certify_band.  The band A is taken in _unit(||A||_F), so that no
    band formed from it overflows or underflows where it matters, and
    each band is formed once: sigma = sqrt(lambda) from the eigenvalues
    lambda of the N x N Gram band A*A, and the values _on_golub_kahan
    from the 2N Golub-Kahan band, formed only when there are any.  The
    certificate reads the same bands in the same unit."""
    kd, N = _band_kd(op), op.size
    # 16 bytes per entry, at the certificate's peak: the A band and its
    # conjugate and the Gram band (3 kd x N), its general band and LU copy
    # (2 (3 kd - 2) x N), the Golub-Kahan band (2 (kd + 1) x N), its
    # general band and LU copy (4 (3 kd + 1) x N), the two starts (3 x N),
    # a step's solution and its scaled copy (4 x N) and 5 block arrays (5 x
    # 16 x N): the leads' v and u, A v, R and one product buffer
    # (_lead_sums).  The eigenvalue step holds less: the A band and
    # its scaled copy, then the scaled band, the Gram band and eig_banded's
    # copy (3 kd x N) and, for small values, the Golub-Kahan band and its
    # copy (4 (kd + 1) x N)
    _check_budget(
        "banded singular values (%d x %d, bandwidth %d)" % (N, N, kd),
        16.0 * N * (23 * kd + 9 + 5 * _BLOCK),
    )
    a = _symbol_band(op)
    # ||A||_F >= sigma_1, taken in _unit(max |a|) so it cannot overflow;
    # the product is capped at 2^1023 as _unit is, for a subnormal A
    unit = _unit(float(np.max(np.abs(a))))
    unit = min(unit * _unit(float(np.linalg.norm(a * unit))), 2.0**1023)
    a = a * unit
    gram = _gram_band(a)
    sigma = np.sqrt(np.maximum(_band_eigenvalues(gram)[::-1], 0.0))
    small = _on_golub_kahan(sigma)
    golub_kahan = None
    if small.any():
        # the top half of H's eigenvalues +-sigma, reversed; spliced in
        # by rank, then sorted: a value at the threshold may meet its
        # near-twin from the other band out of order
        golub_kahan = _golub_kahan_band(a)
        lam = _band_eigenvalues(golub_kahan)
        sigma[small] = np.maximum(lam[N:][::-1], 0.0)[small]
        sigma = np.sort(sigma)[::-1]
    _certify_band(a, sigma, gram, golub_kahan)
    _check_float_range(float(sigma[0]) / unit, "singular value sigma_1")
    return sigma / unit


def _band_kd(op):
    """Bandwidth 2 deg f + 1 of the Golub-Kahan band of a 1-D
    truncation, deg f over the coefficients it kept."""
    return 2 * max((abs(k) for (k,) in op.coefficients), default=0) + 1


def _takes_band_path(a):
    return (isinstance(a, TruncatedOperator) and a.dimension == 1
            and a.size >= _BAND_MIN_SIZE_PER_KD * _band_kd(a))


def singular_values(a):
    """Singular values, nonincreasing, each certified by _certify or
    CertificateError is raised.

    A 1-D TruncatedOperator whose size is large against its symbol's
    degree takes the banded Golub-Kahan path (_band_singular_values).
    Anything else takes a dense SVD, whose own vectors x = (u, v) and
    ||A||_F^2 go to the same certificate."""
    if _takes_band_path(a):
        return SingularSequence(_band_singular_values(a))
    # the entries and, at the peak, six more: LAPACK's copy of A, U, V^H
    # and its workspace.  The certificate holds U, V^H and, a quarter of
    # the values at a time, a few blocks of vectors: less than that peak
    A = _as_matrix(a, "dense SVD", 7)
    try:
        u, s, vh = linalg.svd(A, full_matrices=False)
    except linalg.LinAlgError as exc:
        raise CertificateError(
            "singular value solver failed: %s" % exc
        ) from exc
    if s.size:
        _check_float_range(float(s[0]), "singular value sigma_1")
    # in _unit(s_1), scaling each product of A
    unit = _unit(float(s[0])) if s.size else 1.0
    resid, frobenius = np.empty(s.size), 0.0
    step = s.size // 4 + 1
    for lo in range(0, s.size, step):
        rows = slice(lo, lo + step)
        U, V = u[:, rows].T, vh[rows].conj()  # rows u_i and v_i
        AU = (U.conj() @ A).conj() * unit  # rows A* u_i
        resid[rows] = _residuals(U, V, (V @ A.T) * unit, AU, s[rows] * unit)
        block = A[rows] * unit
        frobenius += float(np.vdot(block, block).real)
    _certify(s * unit, resid, frobenius)
    return SingularSequence(s)


# ------------------------------------------------------ dense linear algebra


def _positive_parts(H):
    lam, V = linalg.eigh(H)
    pos = V @ (np.clip(lam, 0.0, None)[:, None] * V.conj().T)
    neg = V @ (np.clip(-lam, 0.0, None)[:, None] * V.conj().T)
    return pos, neg


def hermitian_decompose(a):
    """T = T1 - T2 + i T3 - i T4 with all four parts positive
    semidefinite, T1 T2 = 0 and T3 T4 = 0, formed and certified in
    _unit(max |T|) (so at any scale of T) or CertificateError is raised;
    ValueError when a part lies past the float64 range."""
    # the input and, at the peak, eight more (its scaled copy, K, eigh's
    # vectors, the four parts and a product)
    A = _as_matrix(a, "hermitian decomposition", 9)
    unit = _unit(float(np.max(np.abs(A)))) if A.size else 1.0
    A = A * unit
    parts = (*_positive_parts(0.5 * (A + A.conj().T)),
             *_positive_parts((A - A.conj().T) / 2j))
    t1, t2, t3, t4 = parts
    scale = float(np.linalg.norm(A))
    if not float(np.linalg.norm(t1 - t2 + 1j * (t3 - t4) - A)) <= (
            1e-10 * scale):
        raise CertificateError("positive-part reconstruction failed")
    for x, y in ((t1, t2), (t3, t4)):
        if not float(np.linalg.norm(x @ y)) <= 1e-8 * scale * scale:
            raise CertificateError("positive/negative parts not orthogonal")
    if A.size:
        _check_float_range(max(float(np.max(np.abs(t))) for t in parts)
                           / unit, "a positive part")
    for t in parts:  # real and imaginary apart: numpy's complex division
        t.real /= unit  # by a subnormal unit (max |T| >= 2^1023) overflows
        t.imag /= unit
    return parts


def expectation_sequence(a, basis=None):
    """Diagonal expectations <h_m, a h_m> in a given basis.

    FourierMultiplier a: the model eigenbasis is the torus exponentials
    and every expectation equals the mean of the symbol, fhat(0); basis
    gives the length, either an integer or an array of lattice points.
    Dense a: basis is a unitary whose columns are the h_m (identity if
    omitted)."""
    if isinstance(a, FourierMultiplier):
        if basis is None:
            raise ValueError("multiplier expectations need a basis length")
        count = int(basis) if np.isscalar(basis) else int(np.shape(basis)[0])
        return np.full(count, a.fhat0, dtype=np.complex128)
    # with a basis: A, U and the two products U* A and U* A U
    A = _as_matrix(a, "expectations", 1 if basis is None else 4)
    if basis is None:
        return np.ascontiguousarray(np.diag(A))
    U = np.asarray(basis, dtype=np.complex128)
    if U.shape != A.shape:
        raise ValueError("basis must be a unitary of matching shape")
    return np.ascontiguousarray(np.diag(U.conj().T @ A @ U))


# --------------------------------------------------- noncommutative torus


def _theta(theta):
    """theta as a float, or FieldError unless it lies in [0, 1)."""
    th = float(theta)
    if not 0.0 <= th < 1.0:
        raise FieldError("theta", "theta must lie in [0, 1)")
    return th


@dataclass(frozen=True)
class NCTorusElement:
    """Finite sum a = sum a_{m,n} u^m v^n in the rotation algebra A_theta."""

    coefficients: dict
    theta: float

    def __post_init__(self):
        th = _theta(self.theta)
        clean = {}
        for key, val in self.coefficients.items():
            m, n = (int(key[0]), int(key[1]))
            val = complex(val)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError("coefficients must be finite")
            clean[(m, n)] = val
        object.__setattr__(self, "coefficients", clean)
        object.__setattr__(self, "theta", th)


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


def nc_torus_spectrum(cutoff_radius, theta=0.0, operator_power=None):
    """Spectrum of (1+Delta_theta)^{-operator_power}: the flat 2-torus
    spectrum for every theta in [0, 1)."""
    _theta(theta)
    return torus_spectrum(2, cutoff_radius, operator_power)


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


def domination_check(basis_profiles, candidate):
    """True iff every profile |h_m(x)|^2 is pointwise below the
    candidate |h(x)|^2 plus 1e-12 on the shared grid (the
    multiplication-algebra surrogate for projection domination); the
    1e-12 absorbs roundoff in profiles that are analytically equal to
    the candidate."""
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
    return bool(np.all(profiles <= cand + 1e-12))
