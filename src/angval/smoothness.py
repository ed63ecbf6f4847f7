"""One-sided derivatives of the maximal principal angle along subspace
curves, and the perturbation bounds that control angles under linear maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuous import _speeds
from .errors import RankDeficient, SingularMatrix
from .grassmann import Subspace, max_angle
from .linalg import RANK_TOL, as_matrix, rotation, spectral_norm, svd

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


def _full_rank_svd(m, error, message):
    # the SVD of m, refused by the one rank rule sigma_min <= RANK_TOL * sigma_max
    f = svd(m)
    if f.sigma[-1] <= RANK_TOL * f.sigma[0]:
        raise error(message)
    return f


def _whitened_norm(x, f):
    # ||x (M^T M)^(-1/2)|| for the SVD f of M, as ||x Z diag(1/sigma)||: the
    # orthogonal Z^T of (M^T M)^(-1/2) changes no spectral norm; inf on overflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = x @ (f.z / f.sigma)
    return spectral_norm(m) if np.isfinite(m).all() else math.inf


def angle_derivative_right(point):
    """Right derivative of t -> angle(span W(tau), span W(t)) at t = tau.

    Evaluates ||(I - P) Wdot (W^T W)^(-1/2)|| in the spectral norm, with P
    the orthogonal projector onto span W.  The left derivative is the
    negative of this value.  Invariant under basis reparametrizations
    W -> W G(t) with G invertible.  Raises RankDeficient if sigma_min(W) <=
    RANK_TOL * sigma_max(W), and SingularMatrix if the value overflows.
    """
    w = as_matrix(point.w)
    wdot = as_matrix(point.wdot)
    f = _full_rank_svd(w, RankDeficient, "curve basis is rank deficient")
    with np.errstate(over="ignore", invalid="ignore"):
        # project out span W first: the part of Wdot inside it is never whitened
        value = _whitened_norm(wdot - f.y @ (f.y.T @ wdot), f)
    if value == math.inf:
        raise SingularMatrix("the derivative leaves the float range")
    return value


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


def check_angle_bound(s_mat, v, w):
    """angle(SV, SW) <= pi k (1 + k) angle(V, W) with k = cond_2(S); S with
    sigma_min(S) <= RANK_TOL * sigma_max(S) raises SingularMatrix."""
    s = as_matrix(s_mat)
    sigma = _full_rank_svd(s, SingularMatrix, "S is singular at working precision").sigma
    kappa = float(sigma[0] / sigma[-1])
    lhs = max_angle(Subspace(svd(s @ v.basis).y), Subspace(svd(s @ w.basis).y))
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
    is reported as infinite (trivially satisfied).  Raises SingularMatrix
    if sigma_min(SV) <= RANK_TOL * sigma_max(SV) for the basis V.
    """
    s = as_matrix(s_mat)
    fn = _full_rank_svd(s @ v.basis, SingularMatrix, "S collapses V")
    q = _whitened_norm((np.eye(s.shape[0]) - s) @ v.basis, fn)
    lhs = max_angle(v, Subspace(fn.y))
    bound = q / math.sqrt(1.0 - q * q) if q < 1.0 else math.inf
    return _report(lhs, bound, {"q": q})


def check_lipschitz(s_mat, v, w):
    """|angle(SV, W) - angle(V, W)| <= C ||S - I||; SV is refused as in check_near_identity."""
    s = as_matrix(s_mat)
    lhs = abs(max_angle(Subspace(_full_rank_svd(s @ v.basis, SingularMatrix, "S collapses V").y), w) - max_angle(v, w))
    dist = spectral_norm(s - np.eye(s.shape[0]))
    return _report(lhs, LIPSCHITZ_CONSTANT * dist, {"C": LIPSCHITZ_CONSTANT, "dist": dist})
