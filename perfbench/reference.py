"""Independent references for the benchmark's output checks.

Built from numpy and scipy only; nothing here imports angval, so a fault
in a fast path of the program cannot hide in its own reference.

- `torus_max_mean`: mean of max_j E_j over the torus, as a 1-D quadrature
  of 1 - prod_j F_j, where F_j is the closed-form CDF of one ellipse speed
  E_j(theta) = rho_j omega_j / (cos^2 theta + rho_j^2 sin^2 theta) with
  theta uniform.
- `resonant_line`: the resonant two-block line L(t), one adaptive
  quadrature per orbit term.
- `planar_circle_average`: circle average of the step angle of the
  sheared planar rotation D_rho T_phi D_rho^-1.
- `principal_angles_np`, `max_angle_np`, `angle_sum_np`: angles and angle
  sums from plain `np.linalg.qr` / `np.linalg.svd`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi
_QUAD = {"epsabs": 1e-12, "epsrel": 1e-11, "limit": 400}


def ellipse_speed(theta, omega, rho):
    c = math.cos(theta)
    s = math.sin(theta)
    return rho * omega / (c * c + rho * rho * s * s)


def ellipse_speed_cdf(x, omega, rho):
    """P(E <= x) for theta uniform: (2/pi) asin sqrt((1 - rho omega/x) / (1 - rho^2))
    on [rho omega, omega/rho]; a unit step at omega when rho = 1."""
    lo, hi = rho * omega, omega / rho
    if x >= hi:
        return 1.0
    if x <= lo:
        return 0.0
    u = (1.0 - lo / x) / (1.0 - rho * rho)
    return (2.0 / math.pi) * math.asin(math.sqrt(min(max(u, 0.0), 1.0)))


def torus_max_mean(params):
    """pi^-|J| integral over [0, pi]^|J| of max_j E_j, for params [(omega, rho), ...].

    E[max] = integral_0^inf (1 - prod_j F_j(x)) dx.  The integrand is 1 below
    the largest lower end max_j rho_j omega_j and 0 above the largest upper
    end, and smooth between the band ends, which are the quadrature breaks.
    """
    params = [(float(w), float(r)) for w, r in params]
    a = max(r * w for w, r in params)
    b = max(w / r for w, r in params)
    cuts = sorted({x for w, r in params for x in (r * w, w / r) if a < x < b} | {a, b})

    def tail(x):
        prod = 1.0
        for w, r in params:
            prod *= ellipse_speed_cdf(x, w, r)
        return 1.0 - prod

    total = a
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += quad(tail, lo, hi, **_QUAD)[0]
    return total


def resonant_line(t, omega1, p, q, rho1, rho2, grid=2048):
    """L(t) = (1 / (2 pi q)) sum_{j<q} integral_0^{2pi} max(E1(t + tau),
    E2(kappa (tau + 2 pi j))) dtau with kappa = p/q and omega2 = kappa omega1.

    Each orbit term is split where the two speeds cross (sign changes of
    their difference on a fine grid, polished by brentq), so every adaptive
    quadrature panel integrates one smooth branch.
    """
    kappa = p / q
    omega2 = kappa * omega1
    taus = np.linspace(0.0, TWO_PI, grid + 1)
    total = 0.0
    for j in range(q):
        shift = TWO_PI * j

        def diff(tau):
            return ellipse_speed(t + tau, omega1, rho1) - ellipse_speed(
                kappa * (tau + shift), omega2, rho2
            )

        def f(tau):
            return max(
                ellipse_speed(t + tau, omega1, rho1),
                ellipse_speed(kappa * (tau + shift), omega2, rho2),
            )

        d = _speeds_np(t + taus, omega1, rho1) - _speeds_np(kappa * (taus + shift), omega2, rho2)
        cuts = [0.0]
        for k in np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]:
            cuts.append(brentq(diff, taus[k], taus[k + 1], xtol=1e-15))
        cuts.append(TWO_PI)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                total += quad(f, lo, hi, **_QUAD)[0]
    return total / (TWO_PI * q)


def _speeds_np(theta, omega, rho):
    c = np.cos(theta)
    s = np.sin(theta)
    return rho * omega / (c * c + rho * rho * s * s)


def line_angle(u, v):
    """Angle in [0, pi/2] between the lines spanned by two plane vectors."""
    return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), abs(u[0] * v[0] + u[1] * v[1]))


def planar_circle_average(rho, phi):
    """(1/2pi) integral of the step angle ang(D x, D T_phi x) over unit x.

    The step of u -> D T_phi D^-1 u from u = D x lands on D T_phi x, and x
    rotates by phi each step, so for phi / 2pi irrational this is the
    long-run average step angle from every starting line.
    """
    c, s = math.cos(phi), math.sin(phi)

    def g(th):
        x0, x1 = math.cos(th), math.sin(th)
        return line_angle((x0, rho * x1), (c * x0 - s * x1, rho * (s * x0 + c * x1)))

    return quad(g, 0.0, TWO_PI, **_QUAD)[0] / TWO_PI


def orthonormal_np(m):
    q, _ = np.linalg.qr(np.asarray(m, dtype=float))
    return q


def principal_angles_np(v, w):
    """Ascending principal angles between span(v) and span(w).

    Cosines are the singular values of V^T W, sines those of (I - V V^T) W;
    pairing them through atan2 keeps full accuracy at both ends.
    """
    qv, qw = orthonormal_np(v), orthonormal_np(w)
    cos_desc = np.linalg.svd(qv.T @ qw, compute_uv=False)
    sin_desc = np.linalg.svd(qw - qv @ (qv.T @ qw), compute_uv=False)
    return np.arctan2(sin_desc[::-1], cos_desc)


def max_angle_np(v, w):
    return float(principal_angles_np(v, w)[-1])


def angle_sum_np(matrices, v0, n):
    """sum_{j=1}^{n} angle(Phi(j-1) V, Phi(j) V) with A_j = matrices[j % len]."""
    b = orthonormal_np(v0)
    total = 0.0
    k = len(matrices)
    for j in range(n):
        nxt = orthonormal_np(matrices[j % k] @ b)
        total += max_angle_np(b, nxt)
        b = nxt
    return total


def rotation_np(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def block_rotation_np(angles):
    """Block-diagonal orthogonal map with one plane rotation per angle."""
    n = 2 * len(angles)
    m = np.zeros((n, n))
    for i, a in enumerate(angles):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation_np(a)
    return m
