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

from .errors import InvalidBlock, NoConvergence, RankDeficient


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
    """Coerce to a square 2-d float64 array, such as a system matrix."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
    return a


def qr_thin(m, tol=None):
    """Thin QR factorization with a nonnegative diagonal of R.

    Parameters
    ----------
    m : (d, s) array_like, d >= s
    tol : float, optional
        Rank tolerance relative to ||m||.  Defaults to 1e-10.

    Returns
    -------
    q : (d, s) ndarray with orthonormal columns
    r : (s, s) upper triangular ndarray, diag(r) >= 0

    Raises
    ------
    RankDeficient
        If any diagonal entry of R falls below tol * ||m||.
    """
    a = as_matrix(m)
    d, s = a.shape
    if d < s:
        raise ValueError("qr_thin needs d >= s, got shape %s" % (a.shape,))
    if tol is None:
        tol = 1e-10
    if s == 1:
        # One column: QR is just normalization; ||m|| is the column norm, so
        # the rank check degenerates to "nonzero column".
        nrm = float(np.linalg.norm(a[:, 0]))
        if nrm == 0.0:
            raise RankDeficient("zero column at tolerance %g" % tol)
        q = a / nrm
        return q, np.array([[nrm]])
    q, r = np.linalg.qr(a)
    # Fix signs so that diag(r) >= 0; the thin factorization is then unique
    # for full-rank input.
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    r = signs[:, None] * r
    scale = float(np.linalg.norm(a))
    if np.any(np.abs(np.diag(r)) <= tol * scale):
        raise RankDeficient("rank-deficient matrix at tolerance %g" % tol)
    return q, r


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
    if min(a.shape) == 1:
        return float(np.linalg.norm(a))
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
        _validate_complex(self.omega, self.rho)

    @property
    def dim(self):
        return 2

    def matrix(self):
        b, w, r = float(self.beta), float(self.omega), float(self.rho)
        return np.array([[b, -w / r], [r * w, b]])


def _validate_complex(omega, rho):
    if not (0.0 < rho <= 1.0):
        raise InvalidBlock("rho must lie in (0, 1], got %r" % (rho,))
    if not (omega > 0.0):
        raise InvalidBlock("omega must be positive, got %r" % (omega,))


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
        _validate_complex(block.omega, block.rho)
        b, w, r = float(block.beta), float(block.omega), float(block.rho)
        c = math.cos(w * t)
        s = math.sin(w * t)
        return math.exp(b * t) * np.array([[c, -s / r], [r * s, c]])
    raise InvalidBlock("unknown block type %r" % (type(block).__name__,))
