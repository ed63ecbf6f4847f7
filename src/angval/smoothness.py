"""One-sided derivatives of the maximal principal angle along subspace
curves, and the perturbation bounds that control angles under linear maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuous import _speeds
from .errors import RankDeficient, SingularMatrix
from .grassmann import max_angle, subspace_from_spanning
from .linalg import RANK_TOL, as_matrix, rotation, singular_values, spectral_norm, svd

# Lipschitz constant of V -> angle(SV, W) in ||S - I||.
LIPSCHITZ_CONSTANT = math.pi / 2.0 + math.sqrt(math.pi**2 / 4.0 + 1.0)


@dataclass(frozen=True)
class CurvePoint:
    """Basis curve data at one parameter value: W(t) and its derivative."""

    w: np.ndarray
    wdot: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check: lhs <= bound up to 1e-12 slack."""

    lhs: float
    bound: float
    satisfied: bool
    constants: dict


def _report(lhs, bound, constants):
    return BoundReport(lhs=lhs, bound=bound, satisfied=lhs <= bound + 1e-12, constants=constants)


def angle_derivative_right(point):
    """Right derivative of t -> angle(span W(tau), span W(t)) at t = tau.

    Evaluates ||(I - P) Wdot (W^T W)^(-1/2)|| in the spectral norm, with P
    the orthogonal projector onto span W.  The left derivative is the
    negative of this value.  Invariant under basis reparametrizations
    W -> W G(t) with G invertible.
    """
    w = as_matrix(point.w)
    wdot = as_matrix(point.wdot)
    f = svd(w)
    if f.sigma[-1] <= RANK_TOL * max(f.sigma[0], 1.0):
        raise RankDeficient("curve basis is rank deficient")
    b = f.y  # orthonormal basis of span W
    whiten = (f.z / f.sigma) @ f.z.T  # (W^T W)^(-1/2)
    m = wdot @ whiten
    m = m - b @ (b.T @ m)
    return spectral_norm(m)


def angle_derivative_flow(a, v):
    """Angular speed ||(I - P) A P|| of a subspace carried by a linear flow.

    v is a Subspace; a is the generator evaluated at the current time.
    Unchanged under trace shifts a -> a + lam * I.
    """
    return float(_speeds(v.basis, as_matrix(a) @ v.basis))


def planar_angular_speed(a, vec):
    """|v_perp^T A v| / ||v||^2 for a line spanned by vec in the plane."""
    v = np.asarray(vec, dtype=float).reshape(2)
    perp = np.array([-v[1], v[0]])
    return abs(float(perp @ (as_matrix(a) @ v))) / float(v @ v)


def model2d_alpha(tau, v0, rho, omega):
    """Angular speed along the elliptic rotation flow at time tau.

    The generator is omega * D_rho J D_rho^(-1); the speed at time tau from
    initial direction v0 is rho omega ||D^(-1) v0||^2 / ||D T(tau omega)
    D^(-1) v0||^2, a pi/omega-periodic function whose mean is omega.
    """
    v = np.asarray(v0, dtype=float).reshape(2)
    dinv = np.array([v[0], v[1] / rho])
    moved = np.diag([1.0, rho]) @ (rotation(tau * omega) @ dinv)
    return rho * omega * float(dinv @ dinv) / float(moved @ moved)


def _sv_extremes(m):
    sigma = singular_values(m)
    return float(sigma[0]), float(sigma[-1])


def check_angle_bound(s_mat, v, w):
    """angle(SV, SW) <= pi k (1 + k) angle(V, W) with k = cond_2(S)."""
    s = as_matrix(s_mat)
    smax, smin = _sv_extremes(s)
    if smin <= 1e-14 * smax:
        raise SingularMatrix("S is singular at working precision")
    kappa = smax / smin
    lhs = max_angle(subspace_from_spanning(s @ v.basis), subspace_from_spanning(s @ w.basis))
    bound = math.pi * kappa * (1.0 + kappa) * max_angle(v, w)
    return _report(lhs, bound, {"kappa": kappa})


def tan_angle_bound_vectors(v, w):
    """tan^2 angle(v + w, w) <= ||v||^2 / (||w||^2 - ||v||^2), for ||v|| < ||w||."""
    v = np.asarray(v, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    nv, nw = float(np.linalg.norm(v)), float(np.linalg.norm(w))
    if nv >= nw:
        raise ValueError("needs ||v|| < ||w||")
    u = v + w
    c = abs(float(u @ w)) / (float(np.linalg.norm(u)) * nw)
    ang = math.acos(min(max(c, 0.0), 1.0))
    lhs = math.tan(ang) ** 2
    bound = nv**2 / (nw**2 - nv**2)
    return _report(lhs, bound, {"norm_v": nv, "norm_w": nw})


def check_near_identity(s_mat, v):
    """angle(V, SV) <= q / sqrt(1 - q^2) where q bounds ||(I-S)x|| / ||Sx|| on V.

    q is computed exactly as the largest generalized singular value of the
    pair ((I - S) B, S B); when q >= 1 the hypothesis fails and the bound
    is reported as infinite (trivially satisfied).
    """
    s = as_matrix(s_mat)
    b = v.basis
    m = (np.eye(s.shape[0]) - s) @ b
    n = s @ b
    fn = svd(n)
    if fn.sigma[-1] <= 1e-14 * max(fn.sigma[0], 1.0):
        raise SingularMatrix("S collapses V")
    whiten = (fn.z / fn.sigma) @ fn.z.T  # (N^T N)^(-1/2)
    q = spectral_norm(m @ whiten)
    lhs = max_angle(v, subspace_from_spanning(n))
    bound = q / math.sqrt(1.0 - q * q) if q < 1.0 else math.inf
    return _report(lhs, bound, {"q": q})


def check_lipschitz(s_mat, v, w):
    """|angle(SV, W) - angle(V, W)| <= C ||S - I|| with the module constant C."""
    s = as_matrix(s_mat)
    sv = subspace_from_spanning(s @ v.basis)
    lhs = abs(max_angle(sv, w) - max_angle(v, w))
    dist = spectral_norm(s - np.eye(s.shape[0]))
    bound = LIPSCHITZ_CONSTANT * dist
    return _report(lhs, bound, {"C": LIPSCHITZ_CONSTANT, "dist": dist})
