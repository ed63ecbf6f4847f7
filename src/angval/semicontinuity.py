"""Upper-semicontinuity toolkit for angular values.

The central construction averages an observable along orbits of a circle
rotation: rationally independent angles get the circle average (which is
independent of the starting point), rational angles phi = 2 pi p/q get the
exact q-term orbit average.  Taking the sup over starting points yields a
function that is upper semicontinuous in the rotation angle.  On top of
that this module evaluates the first angular value of the sheared planar
rotation in closed form and drives the two-frequency parameter sweep whose
rational spikes make the "hairy" dataset.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autonomous import SchurSpec, angular_value_irrational, angular_value_resonant_4d, rational_approximation
from .linalg import ComplexBlock, rotation

TWO_PI = 2.0 * math.pi
# uniform circle grid: the irrational orbit average, and the starting points
# scanned for a rational sup
CIRCLE_POINTS = 4096
# the sweep grid holds about 0.3 qmax^2 ratios, each a cell per row
MAX_QMAX = 100


@dataclass(frozen=True)
class RationalTag:
    """Arithmetic type of a ratio: p/q in lowest terms, or none found.

    `value` is the raw scalar that was classified (a frequency ratio, or
    phi/(2 pi) for a rotation angle).  kind is "rational" or "irrational";
    rational tags satisfy p >= 0, q >= 1, gcd(p, q) = 1.
    """

    kind: str
    value: float
    p: Optional[int] = None
    q: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("rational", "irrational"):
            raise ValueError("tag kind must be rational or irrational")
        if self.kind == "rational":
            if self.p is None or self.q is None or self.q < 1 or self.p < 0:
                raise ValueError("rational tag needs p >= 0, q >= 1")
            if math.gcd(self.p, self.q) != 1:
                raise ValueError("rational tag must be in lowest terms")
        elif self.p is not None or self.q is not None:
            raise ValueError("irrational tag carries no fraction")

    @property
    def rational(self):
        return self.kind == "rational"


def classify_ratio(x, qmax=20, tol=1e-9):
    """Tag x as p/q if a fraction with denominator <= qmax sits within tol.

    Grids are normally built so that rational cells hold the fraction
    exactly; tol only has to absorb float construction noise.
    """
    x = float(x)
    if x < 0:
        raise ValueError("ratio must be nonnegative")
    if x == 0.0:
        return RationalTag("rational", 0.0, 0, 1)
    pq = rational_approximation(x, qmax=qmax, tol=tol)
    if pq is None:
        return RationalTag("irrational", x)
    return RationalTag("rational", x, pq[0], pq[1])


def tag_angle(phi, qmax=10**4, tol=1e-12):
    """RationalTag for a rotation angle: classifies phi / (2 pi).

    Endpoints follow the convention p=0, q=1 at phi = 0 and p=q=1 at
    phi = 2 pi.
    """
    phi = float(phi)
    if phi == 0.0:
        return RationalTag("rational", 0.0, 0, 1)
    if phi == TWO_PI:
        return RationalTag("rational", 1.0, 1, 1)
    return classify_ratio(phi / TWO_PI, qmax=qmax, tol=tol)


def _circle_points(angles):
    return np.vstack([np.cos(angles), np.sin(angles)])


def f_infinity(f, x, phi, lam, tag):
    """Orbit average of f under the rotation by phi, per the tag.

    f(x, phi, lam) maps a (2, m) array of points to their m values.  x is
    one point or a (2, m) array of starting points; the result is a float
    or the m averages.  Rational tags produce the exact q-term averages
    starting at x, in q array passes; the irrational branch returns the
    circle average (trapezoid on a uniform periodic grid), which does not
    depend on x at all.
    """
    if not isinstance(tag, RationalTag):
        raise TypeError("tag must be a RationalTag")
    x = np.asarray(x, dtype=float)
    if tag.rational:
        xj = x.reshape(2, -1)
        step = rotation(phi)
        total = np.zeros(xj.shape[1])
        for _ in range(tag.q):
            total += f(xj, phi, lam)
            xj = step @ xj
        avg = total / tag.q
    else:
        pts = _circle_points(np.arange(CIRCLE_POINTS) * (TWO_PI / CIRCLE_POINTS))
        avg = np.full(x.size // 2, f(pts, phi, lam).mean())
    return float(avg[0]) if x.ndim == 1 else avg


def theta_infinity(f, phi, lam, tag):
    """sup over starting points of the orbit average f_infinity.

    The irrational branch is grid-free: its average does not depend on the
    start, so one point is enough.  The rational branch scans a uniform
    grid of starting points in one call of f_infinity and refines in one
    more, around the best cell with 8x finer spacing.
    """
    if not tag.rational:
        return f_infinity(f, np.array([1.0, 0.0]), phi, lam, tag)
    h = TWO_PI / CIRCLE_POINTS
    angles = np.arange(CIRCLE_POINTS) * h
    vals = f_infinity(f, _circle_points(angles), phi, lam, tag)
    k = int(np.argmax(vals))
    fine = f_infinity(f, _circle_points(angles[k] + np.linspace(-h, h, 17)), phi, lam, tag)
    return float(max(vals[k], fine.max()))


def _line_angle(u, v):
    # principal angles between span(u[:, k]) and span(v[:, k]) for 2-vectors;
    # the cross/dot form stays fully accurate at both ends of [0, pi/2]
    dot = u[0] * v[0] + u[1] * v[1]
    cross = u[0] * v[1] - u[1] * v[0]
    return np.arctan2(np.abs(cross), np.abs(dot))


def discrete2d_theta1(phi, rho, tag=None):
    """First angular value of the sheared planar rotation u -> D T_phi D^-1 u.

    The per-step angle is g(x) = ang(x, D_rho T_phi D_rho^-1 x); writing
    f(x) = g(D_rho x) puts the long-run average into orbit-average form,
    and the value is sup_x of that average.  At rho = 1 the step is a pure
    rotation and the value collapses to the line angle min(phi, pi - phi).
    """
    phi = float(phi)
    rho = float(rho)
    if not 0.0 <= phi <= TWO_PI:
        raise ValueError("phi must lie in [0, 2 pi]")
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    if tag is None:
        tag = tag_angle(phi)
    d = np.diag([1.0, rho])
    t = rotation(phi)

    def f(x, _phi, _rho):
        return _line_angle(d @ x, d @ (t @ x))

    val = theta_infinity(f, phi, rho, tag)
    return min(max(val, 0.0), math.pi / 2.0)


@dataclass(frozen=True)
class SweepCell:
    """One (kappa, rho2) cell of the sweep.

    Rational cells take their value as the sup of the vertical line L(t),
    attained at t_argmax; irrational cells hold the torus mean.
    err_estimate bounds the error of the value (of L at t_argmax for
    rational cells) and seconds is the wall time the cell took.
    """

    kappa: float
    rho2: float
    tag: RationalTag
    value: float
    err_estimate: float
    t_argmax: Optional[float] = None
    seconds: float = field(default=0.0, compare=False)


def build_kappa_grid(lo=0.05, hi=1.0, qmax=20, spacing=0.005, extras=(1.0 / math.sqrt(2.0),)):
    """Frequency-ratio grid: all p/q with q <= qmax in [lo, hi], a uniform
    background grid, and any extra marked points (deduplicated)."""
    vals = []
    for q in range(1, qmax + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1:
                continue
            x = p / q
            if lo - 1e-12 <= x <= hi + 1e-12:
                vals.append(x)
    kept = sorted(vals)
    candidates = [lo + spacing * k for k in range(int(round((hi - lo) / spacing)) + 1)]
    candidates.extend(extras)
    for x in candidates:
        if all(abs(x - y) > 1e-9 for y in kept):
            kept.append(x)
    return sorted(kept)


def build_rho2_grid():
    """Default second-ellipse grid 0.1, ..., 1.0 plus the marked 1/4."""
    return sorted([k / 10.0 for k in range(1, 11)] + [0.25])


def _sweep_cell(omega1, rho1, kappa, rho2, tag):
    t0 = time.perf_counter()
    if tag.rational:
        res = angular_value_resonant_4d(omega1, tag.p, tag.q, rho1, rho2)
        t_argmax = res.t_argmax
    else:
        spec = SchurSpec((ComplexBlock(0.0, omega1, rho1), ComplexBlock(-1.0, kappa * omega1, rho2)))
        # rationality was already judged at the sweep's q <= Qmax resolution,
        # so the strict per-call gate (which would reject any float grid
        # point with a small decimal denominator) is bypassed
        res = angular_value_irrational(2, spec, override_gate=True)
        t_argmax = None
    return SweepCell(
        kappa=kappa,
        rho2=rho2,
        tag=tag,
        value=res.value,
        err_estimate=res.error,
        t_argmax=t_argmax,
        seconds=time.perf_counter() - t0,
    )


def hairy_sweep(
    omega1,
    rho1,
    kappa_grid=None,
    rho2_grid=None,
    qmax=20,
    threads=None,
):
    """Second angular value of the two-block system over a (kappa, rho2) grid.

    kappa = omega2/omega1 is tagged rational when a fraction p/q with
    q <= qmax matches it to grid precision; those cells evaluate the
    resonant sup-of-line formula, all others the independent-frequency
    torus mean.  The cells run one after another in (kappa, rho2)
    lexicographic order, which is the order of the result.  threads is a
    retired setting: None and 1 are accepted, any other value is refused.
    """
    if threads not in (None, 1):
        raise ValueError("threads must be 1, got %r: the sweep runs one worker" % (threads,))
    if not (math.isfinite(omega1) and omega1 > 0):
        raise ValueError("omega1 must be positive and finite, got %r" % (omega1,))
    if not 0.0 < rho1 <= 1.0:
        raise ValueError("rho1 must lie in (0, 1]")
    if not 1 <= qmax <= MAX_QMAX:
        raise ValueError("qmax must lie in 1..%d, got %r" % (MAX_QMAX, qmax))
    if kappa_grid is None:
        kappa_grid = build_kappa_grid(qmax=qmax)
    if rho2_grid is None:
        rho2_grid = build_rho2_grid()
    jobs = []
    for kappa in sorted(float(k) for k in kappa_grid):
        if not (math.isfinite(kappa) and kappa > 0):
            raise ValueError("kappa_grid entries must be positive and finite, got %r" % kappa)
        tag = classify_ratio(kappa, qmax=qmax)
        for rho2 in sorted(float(r) for r in rho2_grid):
            jobs.append((kappa, rho2, tag))
    return [_sweep_cell(omega1, rho1, kappa, rho2, tag) for kappa, rho2, tag in jobs]
