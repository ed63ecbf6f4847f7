"""Slow, independent reference implementations used to pin test values.

Everything here evaluates a definition as directly as possible: max-min
angles by sampling unit vectors, angle sums by stepping with matrix
exponentials and numpy's own SVD, Procrustes minima by scanning the
orthogonal group, the resonant line by adaptive quadrature of each orbit
term.  None of it shares code with the fast paths; numerics
go through numpy/scipy directly on purpose.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, RankDeficient, SingularMatrix, StepUnstable


def _unit_grid_2d(basis, m, offset):
    theta = (np.arange(m) + offset) * math.pi / m
    coeff = np.vstack([np.cos(theta), np.sin(theta)])
    return basis @ coeff  # (d, m) unit vectors


def maxmin_angle(v, w, samples=10**6, seed=0):
    """max over unit vectors of V of the min angle to W, by sampling.

    The sampling resolution per unit sphere is O(samples^(-1/2)) for planes
    and degrades with dimension; the returned value never exceeds the true
    max-min angle by more than the resolution.
    """
    if v.d != w.d or v.s != w.s:
        raise DimensionMismatch("subspace pair mismatch")
    rng = np.random.default_rng(seed)
    s = v.s
    if s == 1:
        vdirs = v.basis
        wdirs = w.basis
    elif s == 2:
        m = max(int(math.sqrt(samples)), 8)
        vdirs = _unit_grid_2d(v.basis, m, rng.uniform())
        wdirs = _unit_grid_2d(w.basis, m, rng.uniform())
    else:
        m = max(int(math.sqrt(samples)), 8)
        cv = rng.standard_normal((s, m))
        cw = rng.standard_normal((s, m))
        vdirs = v.basis @ (cv / np.linalg.norm(cv, axis=0))
        wdirs = w.basis @ (cw / np.linalg.norm(cw, axis=0))
    dots = np.abs(vdirs.T @ wdirs)  # (mv, mw)
    best_per_v = dots.max(axis=1)  # cos of min angle to W
    worst = best_per_v.min()  # cos at the maximizing v
    return float(math.acos(min(max(worst, 0.0), 1.0)))


def fd_angle_derivative(w, wdot, h):
    """Forward difference of the max principal angle along t -> span(w + t wdot)."""
    if h == 0.0:
        raise ValueError("the difference step h must be nonzero")
    w = np.asarray(w, dtype=float)
    wdot = np.asarray(wdot, dtype=float)
    q0, _ = np.linalg.qr(w)
    q1, _ = np.linalg.qr(w + h * wdot)
    return _angle_between_orthonormal(q0, q1) / h


def procrustes_bruteforce(p1, p2, angle_steps=20000):
    """min_Q ||p1 - p2 Q||_F over orthogonal Q by scanning O(s), s <= 2.

    Returns (value, q). For s = 2 the scan covers rotations and reflections
    on a uniform angle grid.
    """
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    s = a.shape[1]
    if s == 1:
        cands = [np.array([[1.0]]), np.array([[-1.0]])]
        vals = [np.linalg.norm(a - b @ q) for q in cands]
        i = int(np.argmin(vals))
        return float(vals[i]), cands[i]
    if s != 2:
        raise ValueError("brute force supports s <= 2 only")
    g = b.T @ a  # maximize tr(Q^T g') with g' = b^T a
    theta = np.arange(angle_steps) * (2.0 * math.pi / angle_steps)
    c, sn = np.cos(theta), np.sin(theta)
    tr_rot = c * (g[0, 0] + g[1, 1]) + sn * (g[0, 1] - g[1, 0])
    tr_ref = c * (g[0, 0] - g[1, 1]) + sn * (g[0, 1] + g[1, 0])
    const = float(np.sum(a * a) + np.sum(b * b))
    i_rot = int(np.argmax(tr_rot))
    i_ref = int(np.argmax(tr_ref))
    if tr_rot[i_rot] >= tr_ref[i_ref]:
        q = np.array([[c[i_rot], -sn[i_rot]], [sn[i_rot], c[i_rot]]])
        best = tr_rot[i_rot]
    else:
        q = np.array([[c[i_ref], sn[i_ref]], [sn[i_ref], -c[i_ref]]])
        best = tr_ref[i_ref]
    return math.sqrt(max(const - 2.0 * best, 0.0)), q


def _angle_between_orthonormal(b1, b2):
    sig = np.linalg.svd(b1.T @ b2, compute_uv=False)
    c = min(max(float(sig[-1]), 0.0), 1.0)
    if c > 1.0 - 1e-4:
        resid = b2 - b1 @ (b1.T @ b2)
        sine = float(np.linalg.svd(resid, compute_uv=False)[0])
        return math.asin(min(max(sine, 0.0), 1.0))
    return math.acos(c)


def birkhoff_average(system, v0, horizon, step=None):
    """Long-run average angular increment along a trajectory, evaluated
    directly from the definition: orthonormal bases are pushed forward step
    by step and successive maximal principal angles are summed.

    For discrete systems horizon is the number of steps.  Continuous
    systems are advanced with matrix exponentials of the generator frozen
    at midpoints, with time step `step`; the sum of successive angles
    converges to the angle integral as step -> 0.  A non-finite image of
    the basis raises StepUnstable, a collapsed one (|R_jj| <= 1e-10 max
    |image|) SingularMatrix.
    """
    from .continuous import ContinuousSystem
    from .discrete import DiscreteSystem
    from scipy.linalg import expm

    basis = np.asarray(v0.basis if hasattr(v0, "basis") else v0, dtype=float)
    if basis.ndim != 2:
        raise ValueError("v0 must be a matrix whose columns span the subspace, got ndim %d" % basis.ndim)
    if isinstance(system, DiscreteSystem):
        nsteps = length = int(horizon)
        step_map = system.matrix
    elif isinstance(system, ContinuousSystem):
        if step is None:
            raise ValueError("continuous birkhoff_average needs a step")
        nsteps = int(round(horizon / step))
        length = nsteps * step
        if system.constant is not None:
            step_map = lambda k, flow=expm(step * system.constant): flow
        else:
            step_map = lambda k: expm(step * system.matrix((k + 0.5) * step))
    else:
        raise TypeError("unsupported system type %r" % (type(system).__name__,))
    if basis.shape[0] != system.dim:
        raise DimensionMismatch("v0 lies in R^%d but the system acts on R^%d" % (basis.shape[0], system.dim))
    q, r = np.linalg.qr(basis)
    if np.linalg.matrix_rank(r) < basis.shape[1]:
        raise RankDeficient("the starting basis is rank deficient")
    total = 0.0
    for k in range(nsteps):
        image = step_map(k) @ q
        size = np.abs(image).max()  # nan or inf when an entry is
        if not math.isfinite(size):
            raise StepUnstable("step %d carries the basis to non-finite entries" % k)
        nxt, r = np.linalg.qr(image)
        if np.abs(r.diagonal()).min() <= 1e-10 * size:
            raise SingularMatrix("step %d collapses the propagated subspace" % k)
        total += _angle_between_orthonormal(q, nxt)
        q = nxt
    return total / length


def _speed(theta, omega, rho):
    c, s = np.cos(theta), np.sin(theta)
    return rho * omega / (c * c + rho * rho * s * s)


def resonant_line(t, omega1, p, q, rho1, rho2):
    """L(t) = (1/(2 pi q)) sum_{j<q} int_0^{2 pi} max(E1(t + tau),
    E2(kappa (tau + 2 pi j))) dtau for kappa = p/q, omega2 = kappa omega1 and
    the ellipse speeds E(theta) = rho omega / (cos^2 theta + rho^2 sin^2 theta).

    Each orbit term is split where the speeds cross (sign changes of their
    difference on a grid of 4096 points, polished by brentq) and at their
    peaks, so that every adaptive quadrature integrates one smooth branch.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    kappa = p / q
    omega2 = kappa * omega1
    taus = np.linspace(0.0, 2.0 * math.pi, 4097)
    total = 0.0
    for j in range(q):
        shift = 2.0 * math.pi * j

        def diff(tau):
            return _speed(t + tau, omega1, rho1) - _speed(kappa * (tau + shift), omega2, rho2)

        def top(tau):
            return max(_speed(t + tau, omega1, rho1), _speed(kappa * (tau + shift), omega2, rho2))

        d = diff(taus)
        cuts = [0.0]
        for k in np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0):
            cuts.append(brentq(diff, taus[k], taus[k + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps))
        peaks = np.r_[(0.5 * math.pi - t) % math.pi + np.arange(2) * math.pi,
                      (0.5 + np.arange(2 * p + 2)) * math.pi / kappa - shift]
        cuts = sorted(cuts + [x for x in peaks if 0.0 < x < 2.0 * math.pi] + [2.0 * math.pi])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                total += quad(top, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return total / (2.0 * math.pi * q)
