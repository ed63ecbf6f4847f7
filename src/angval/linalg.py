"""Small dense linear algebra kernels used by every other module.

Matrices are plain numpy arrays of float64 at desk scale (dimension <= 32 or
so).  Every SVD goes through LAPACK's backward-stable dgesdd; the
small-angle paths upstream read small angles from sines rather than from
cosines near 1, so they need no more than that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBlock, NoConvergence, RankDeficient, SingularMatrix


def as_matrix(m):
    """Coerce to a 2-d float64 array and reject non-finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError("expected a matrix, got ndim=%d" % a.ndim)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def square_matrix(m):
    """Coerce to a square 2-d float64 array, such as a system matrix, and
    reject non-finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
    return as_matrix(a)


def solve_right(rhs, q, where):
    """x = rhs q^{-1} for each member of (n, d, d) stacks, returned in C order
    (stacked products round a transposed stack differently).  A q singular at
    working precision raises SingularMatrix, naming `where`."""
    try:
        x = np.linalg.solve(q.swapaxes(-1, -2), rhs.swapaxes(-1, -2))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("kinematic transform matrix Q is singular at one of the %s" % where) from exc
    return np.ascontiguousarray(x.swapaxes(-1, -2))


# The rank test of every orthonormal basis: a diagonal entry of R at most
# RANK_TOL * ||w||_F means w has lost a column.
RANK_TOL = 1e-10
# Frobenius norms inside this range are summed from squares that neither
# overflow nor go subnormal.
_SAFE_SCALE = (2.0**-500, 2.0**500)


def qr(w):
    """Thin QR factorization w = q r of a (d, s) matrix, or of each member of
    an (n, d, s) stack, with diag(r) >= 0.

    A member whose Frobenius norm leaves _SAFE_SCALE is factored scaled by
    an exact power of two, which changes no bit of q; r is scaled back, and
    reads inf where ||w|| leaves the float range.  Raises RankDeficient if
    a diagonal entry of r is at most RANK_TOL * ||w||_F, and
    FloatingPointError if w has a non-finite entry.
    """
    if w.ndim == 3 and len(w) == 1:
        # a stack of one costs less as its one member, with the same bits
        q, r = qr(w[0])
        return q[None], r[None]
    scale = np.sqrt(np.einsum("...ij,...ij->...", w, w))
    exp = None
    # count_nonzero is the cheapest all() and any() on a few entries
    if np.count_nonzero((scale >= _SAFE_SCALE[0]) & (scale <= _SAFE_SCALE[1])) < scale.size:
        if not np.isfinite(w).all():
            raise FloatingPointError("matrix has non-finite entries")
        # the largest entry of each member moves into [1/2, 1)
        exp = np.frexp(np.abs(w).max(axis=(-2, -1)))[1][..., None, None]
        w = np.ldexp(w, -exp)
        scale = np.sqrt(np.einsum("...ij,...ij->...", w, w))
        if not scale.all():
            raise RankDeficient("zero matrix")
    if w.shape[-1] == 1:
        # one column: R is its norm, and the rank test is "nonzero column",
        # which the range test has passed
        q, r = w / scale[..., None, None], scale[..., None, None]
    else:
        q, r = np.linalg.qr(w)
        diag = r.diagonal(0, -2, -1)
        # the transpose puts the members last, against their scales
        if np.count_nonzero(np.abs(diag).T <= RANK_TOL * scale):
            raise RankDeficient("rank-deficient matrix at tolerance %g" % RANK_TOL)
        sign = np.sign(diag)
        q, r = q * sign[..., None, :], r * sign[..., :, None]
    if exp is not None:
        with np.errstate(over="ignore"):
            r = np.ldexp(r, exp)
    return q, r


def qr_thin(m):
    """Thin QR factorization of one matrix with a nonnegative diagonal of R.

    Parameters
    ----------
    m : (d, s) array_like of finite entries, d >= s >= 1

    Returns
    -------
    q : (d, s) ndarray with orthonormal columns
    r : (s, s) upper triangular ndarray, diag(r) >= 0

    Raises
    ------
    RankDeficient
        If any diagonal entry of R is at most RANK_TOL * ||m||_F.
    """
    a = as_matrix(m)
    if not 1 <= a.shape[1] <= a.shape[0]:
        raise ValueError("qr_thin needs d >= s >= 1, got shape %s" % (a.shape,))
    return qr(a)


@dataclass(frozen=True)
class Svd:
    """Factorization m = y @ diag(sigma) @ z.T with orthonormal y, z."""

    y: np.ndarray
    sigma: np.ndarray
    z: np.ndarray

    def reconstruct(self):
        return (self.y * self.sigma) @ self.z.T


def svd(m):
    """Thin SVD from LAPACK's divide-and-conquer driver (dgesdd).

    Returns an Svd with sigma descending and y, z of min(rows, cols)
    orthonormal columns each.  Raises NoConvergence when LAPACK reports
    that its iteration did not converge.
    """
    y, sigma, vt = _lapack_svd(as_matrix(m), compute_uv=True)
    return Svd(y=y, sigma=sigma, z=vt.T)


def singular_values(m):
    """Singular values of m, descending; LAPACK computes no vectors."""
    return _lapack_svd(m, compute_uv=False)


def _lapack_svd(a, compute_uv):
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("svd: %s" % exc) from exc


def spectral_norm(m):
    """Largest singular value of m."""
    a = as_matrix(m)
    if min(a.shape) == 0:
        return 0.0
    # dgesdd scales a matrix whose squares would overflow or underflow
    return float(singular_values(a)[0])


def spectral_norms(m):
    """Largest singular value of each member of a (..., d, s) stack, from its
    Gram matrix m^T m (a closed form at s <= 2, eigvalsh at s >= 3); a
    non-finite member reads inf or nan."""
    g = m.swapaxes(-1, -2) @ m
    s = g.shape[-1]
    if s == 1:
        return np.sqrt(g[..., 0, 0])
    if s == 2:
        g00, g01, g11 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
        return np.sqrt(0.5 * (g00 + g11 + np.sqrt((g00 - g11) ** 2 + 4.0 * g01 * g01)))
    if not np.isfinite(g).all():
        return np.full(g.shape[:-2], np.inf)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(g)[..., -1], 0.0))


# Real quasitriangular building blocks.  A ComplexBlock packs a conjugate
# eigenvalue pair beta +- i*omega with shape parameter rho as the 2x2 matrix
# [[beta, -omega/rho], [rho*omega, beta]]; a RealBlock is the 1x1 [[beta]].


@dataclass(frozen=True)
class RealBlock:
    beta: float

    def __post_init__(self):
        _validate_block(self.beta)

    @property
    def dim(self):
        return 1

    def matrix(self):
        return np.array([[float(self.beta)]])


@dataclass(frozen=True)
class ComplexBlock:
    beta: float
    omega: float
    rho: float

    def __post_init__(self):
        _validate_block(self.beta, self.omega, self.rho)

    @property
    def dim(self):
        return 2

    def matrix(self):
        b, w, r = float(self.beta), float(self.omega), float(self.rho)
        return np.array([[b, -w / r], [r * w, b]])


def _validate_block(beta, omega=1.0, rho=1.0):
    if not math.isfinite(beta):
        raise InvalidBlock("beta must be finite, got %r" % (beta,))
    if not (0.0 < rho <= 1.0):
        raise InvalidBlock("rho must lie in (0, 1], got %r" % (rho,))
    if not (0.0 < omega < math.inf):
        raise InvalidBlock("omega must be positive and finite, got %r" % (omega,))


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def block_flow(block, t):
    """Flow map exp(t * Lambda) of a single quasitriangular block.

    For a ComplexBlock this is exp(beta t) * D_rho @ rotation(t omega) @
    D_rho^{-1}; for a RealBlock the scalar exp(beta t).
    """
    if isinstance(block, RealBlock):
        return np.array([[math.exp(block.beta * float(t))]])
    if isinstance(block, ComplexBlock):
        b, w, r = float(block.beta), float(block.omega), float(block.rho)
        c = math.cos(w * t)
        s = math.sin(w * t)
        return math.exp(b * t) * np.array([[c, -s / r], [r * s, c]])
    raise InvalidBlock("unknown block type %r" % (type(block).__name__,))
