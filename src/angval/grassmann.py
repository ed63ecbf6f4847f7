"""Subspaces of R^d, principal angles, and the metrics they induce.

A subspace is represented by one orthonormal basis.  Principal angles
between two s-dimensional subspaces come from the SVD of the cross-Gram
matrix of the bases; cosines near 1 are refined through the sine of the
angle (singular values of the residual (I - P P^T) Q), which keeps full
accuracy for angles down to the square root of machine precision and
below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_matrix, qr_thin, singular_values, spectral_norm, spectral_norms, svd

# Above this cosine the arccos loses digits and the sine path takes over.
_SINE_PATH_THRESHOLD = 1.0 - 1e-4


@dataclass(frozen=True)
class Subspace:
    """An s-dimensional linear subspace of R^d, held as an orthonormal basis.

    The basis matrix is d x s with orthonormal columns (checked to 1e-10 at
    construction).  Use subspace_from_spanning to build one from an arbitrary
    spanning set.
    """

    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = as_matrix(self.basis)
        if b.shape[0] < b.shape[1]:
            raise ValueError("basis must be d x s with d >= s, got %s" % (b.shape,))
        gram = b.T @ b
        if np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-10:
            raise ValueError("basis columns are not orthonormal to 1e-10")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def d(self):
        return self.basis.shape[0]

    @property
    def s(self):
        return self.basis.shape[1]


def subspace_from_spanning(m, tol=None):
    """Orthonormalize the columns of m and wrap them as a Subspace.

    Raises RankDeficient (from qr_thin) when the columns do not span an
    s-dimensional subspace at the tolerance.
    """
    q, _ = qr_thin(as_matrix(m), tol=tol)
    return Subspace(q)


def coordinate_subspace(d, indices):
    """Span of the standard basis vectors e_i for i in indices."""
    idx = list(indices)
    b = np.zeros((d, len(idx)))
    for j, i in enumerate(idx):
        b[i, j] = 1.0
    return Subspace(b)


def _check_pair(v, w):
    if v.d != w.d:
        raise DimensionMismatch("ambient dimensions differ: %d vs %d" % (v.d, w.d))
    if v.s != w.s:
        raise DimensionMismatch("subspace dimensions differ: %d vs %d" % (v.s, w.s))


@dataclass(frozen=True)
class PrincipalAngleResult:
    """Principal angles in ascending order with matched principal vectors.

    angles[j] pairs the unit vectors vectors_v[:, j] in V and
    vectors_w[:, j] in W, with cos(angles[j]) = vectors_v[:, j] @
    vectors_w[:, j].  Principal vectors are not unique when angles repeat;
    any valid choice is returned.
    """

    angles: np.ndarray
    vectors_v: np.ndarray
    vectors_w: np.ndarray


def principal_angles(v, w):
    """All principal angles between two subspaces of equal dimension.

    Returns a PrincipalAngleResult with angles ascending in [0, pi/2].
    """
    _check_pair(v, w)
    g = v.basis.T @ w.basis
    f = svd(g)
    # sigma is descending, so arccos(sigma) is already ascending.
    cosines = np.clip(f.sigma, 0.0, 1.0)
    angles = np.arccos(cosines)
    small = cosines > _SINE_PATH_THRESHOLD
    if np.any(small):
        residual = w.basis - v.basis @ g  # (I - P P^T) Q
        sines_desc = singular_values(residual)
        sines_asc = np.clip(sines_desc[::-1], 0.0, 1.0)
        angles = np.where(small, np.arcsin(sines_asc), angles)
    return PrincipalAngleResult(
        angles=angles,
        vectors_v=v.basis @ f.y,
        vectors_w=w.basis @ f.z,
    )


def _gram_sigma_min_2x2(g):
    # sigma_min as |det g| / sigma_max: sqrt((tr - disc) / 2) of g^T g cancels
    # to an absolute error of sqrt(eps) when sigma_min is small (angle near pi/2)
    a, b, c, d = g.ravel().tolist()
    p, q, r = a * a + c * c, b * b + d * d, a * b + c * d  # g^T g
    sigma_max = math.sqrt(0.5 * (p + q + math.sqrt((p - q) ** 2 + 4.0 * r * r)))
    return abs(a * d - b * c) / sigma_max if sigma_max > 0.0 else 0.0


def max_angle_between_bases(b1, b2):
    """Largest principal angle between the spans of two orthonormal bases.

    The kernel for a single pair (max_angles takes a stack of them);
    equivalent to principal_angles(...).angles[-1].
    """
    s = b1.shape[1]
    if s == 1:
        # two lines: the cosine is |<b1, b2>| and the sine the norm of the
        # residual, in scalar arithmetic
        dot = float(np.vdot(b1, b2))
        c = min(abs(dot), 1.0)
        if c > _SINE_PATH_THRESHOLD:
            r = (b2 - dot * b1).ravel()
            return math.asin(min(math.sqrt(float(r @ r)), 1.0))
        return math.acos(c)
    g = b1.T @ b2
    if s == 2:
        c = _gram_sigma_min_2x2(g)
    else:
        c = float(singular_values(g)[-1])
    c = min(max(c, 0.0), 1.0)
    if c > _SINE_PATH_THRESHOLD:
        sine = spectral_norm(b2 - b1 @ g)
        return math.asin(min(max(sine, 0.0), 1.0))
    return math.acos(c)


def max_angles(b1, b2):
    """Largest principal angle between each pair of members of two (n, d, s)
    stacks of orthonormal bases, by the rules of max_angle_between_bases in
    one pass over the stack; a single pair costs less through that one."""
    g = b1.swapaxes(-1, -2) @ b2
    s = g.shape[-1]
    if s == 1:
        c = np.abs(g[:, 0, 0])
    elif s == 2:
        # |det g| / sigma_max, as in _gram_sigma_min_2x2
        det = np.abs(g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0])
        sigma_max = spectral_norms(g)
        c = np.divide(det, sigma_max, out=np.zeros_like(det), where=sigma_max > 0.0)
    else:
        c = singular_values(g)[:, -1]
    c = np.clip(c, 0.0, 1.0)
    angles = np.arccos(c)
    sine = c > _SINE_PATH_THRESHOLD
    if sine.any():
        residual = b2[sine] - b1[sine] @ g[sine]
        angles[sine] = np.arcsin(np.clip(spectral_norms(residual), 0.0, 1.0))
    return angles


def max_angle(v, w):
    """Largest principal angle: the max-min angle between V and W."""
    _check_pair(v, w)
    return max_angle_between_bases(v.basis, w.basis)


def metric_d1(v, w):
    """Geodesic-type metric: the maximal principal angle, in [0, pi/2]."""
    return max_angle(v, w)


def metric_d2(v, w):
    """Gap metric: spectral norm of the difference of orthogonal projectors.

    Equals sin(metric_d1) for subspaces of equal dimension.
    """
    _check_pair(v, w)
    return spectral_norm(projection_matrix(v) - projection_matrix(w))


def metric_dF(v, w):
    """Procrustes (chordal) metric 2 * sqrt(sum_j sin^2(phi_j / 2)).

    Coincides with the minimal Frobenius distance min_Q ||P - Q R||_F over
    orthogonal R for orthonormal bases P, Q of the two subspaces.
    """
    res = principal_angles(v, w)
    half = np.sin(res.angles / 2.0)
    return 2.0 * math.sqrt(float(np.sum(half * half)))


def metric_dsigma(v, w):
    """Spectral Procrustes metric 2 * sin(phi_max / 2) = sqrt(2 (1 - sigma_s))."""
    phi = max_angle(v, w)
    return 2.0 * math.sin(phi / 2.0)


@dataclass(frozen=True)
class ProcrustesResult:
    """Minimizer and minimum of ||p1 - p2 @ q||_F over orthogonal q.

    unique is False when the cross-Gram matrix is singular; the minimizer
    is then one of several.
    """

    q: np.ndarray
    value: float
    unique: bool


def procrustes_min(p1, p2, tol=1e-12):
    """Orthogonal Procrustes alignment of two d x s matrices.

    The minimizer is z @ y.T where y diag(sigma) z.T is the SVD of
    p1.T @ p2; the minimum is sqrt(||p1||_F^2 + ||p2||_F^2 - 2 sum sigma).
    """
    a = as_matrix(p1)
    b = as_matrix(p2)
    if a.shape != b.shape:
        raise DimensionMismatch("shapes differ: %s vs %s" % (a.shape, b.shape))
    f = svd(a.T @ b)
    q = f.z @ f.y.T
    sq = float(np.sum(a * a) + np.sum(b * b) - 2.0 * np.sum(f.sigma))
    value = math.sqrt(max(sq, 0.0))
    unique = bool(f.sigma[-1] > tol * max(1.0, float(f.sigma[0])))
    return ProcrustesResult(q=q, value=value, unique=unique)


def projection_matrix(v):
    """Orthogonal projector onto the subspace, P = B B^T."""
    return v.basis @ v.basis.T


def subspaces_equal(v, w, tol=1e-8):
    """True when the gap metric d2 is at most tol."""
    if v.d != w.d or v.s != w.s:
        return False
    return metric_d2(v, w) <= tol
