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
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .autonomous import (
    QuadConfig,
    SchurSpec,
    angular_value_irrational,
    angular_value_resonant_4d,
    rational_approximation,
)
from .errors import AngvalError
from .linalg import ComplexBlock, rotation

TWO_PI = 2.0 * math.pi
# the sweep grid holds about 0.3 qmax^2 ratios, each with a stored line per row
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


def _circle_points(n, offset=0.0):
    theta = offset + np.arange(n) * (TWO_PI / n)
    return np.vstack([np.cos(theta), np.sin(theta)])


def f_infinity(f, x, phi, lam, tag, grid=4096):
    """Orbit average of f under the rotation by phi, per the tag.

    Rational tags produce the exact q-term average starting at x; the
    irrational branch returns the circle average (trapezoid on a uniform
    periodic grid), which does not depend on x at all.
    """
    if not isinstance(tag, RationalTag):
        raise TypeError("tag must be a RationalTag")
    if tag.rational:
        q = tag.q
        xj = np.asarray(x, dtype=float).reshape(2)
        step = rotation(phi)
        total = 0.0
        for _ in range(q):
            total += float(f(xj, phi, lam))
            xj = step @ xj
        return total / q
    pts = _circle_points(int(grid))
    total = 0.0
    for k in range(pts.shape[1]):
        total += float(f(pts[:, k], phi, lam))
    return total / pts.shape[1]


def theta_infinity(f, phi, lam, tag, torus_grid=4096):
    """sup over starting points of the orbit average f_infinity.

    The irrational branch is grid-free: the average is evaluated at two
    probe points and checked to agree (it cannot depend on the start).
    The rational branch scans a uniform grid of starting points and
    refines once around the best cell with 8x finer spacing.
    """
    if tag.rational:
        n = int(torus_grid)
        h = TWO_PI / n
        angles = np.arange(n) * h
        vals = [
            f_infinity(f, np.array([math.cos(a), math.sin(a)]), phi, lam, tag)
            for a in angles
        ]
        k = int(np.argmax(vals))
        best = vals[k]
        for a in angles[k] + np.linspace(-h, h, 17):
            v = f_infinity(f, np.array([math.cos(a), math.sin(a)]), phi, lam, tag)
            if v > best:
                best = v
        return best
    probes = (np.array([1.0, 0.0]), np.array([-0.6, 0.8]))
    v0 = f_infinity(f, probes[0], phi, lam, tag, grid=torus_grid)
    v1 = f_infinity(f, probes[1], phi, lam, tag, grid=torus_grid)
    if abs(v0 - v1) > 1e-10:
        raise AngvalError("irrational-branch average depends on the start point")
    return v0


def _line_angle(u, v):
    # principal angle between span(u) and span(v) for 2-vectors; the
    # cross/dot form stays fully accurate at both ends of [0, pi/2]
    dot = float(u[0] * v[0] + u[1] * v[1])
    cross = float(u[0] * v[1] - u[1] * v[0])
    return math.atan2(abs(cross), abs(dot))


def discrete2d_theta1(phi, rho, tag=None, torus_grid=4096):
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
        u = d @ x
        return _line_angle(u, d @ (t @ x))

    val = theta_infinity(f, phi, rho, tag, torus_grid=torus_grid)
    return min(max(val, 0.0), math.pi / 2.0)


@dataclass(frozen=True)
class SweepCell:
    """One (kappa, rho2) cell of the sweep.

    Rational cells carry the sampled vertical line {L(t)} and take their
    value as its sup; irrational cells hold the torus quadrature value.
    err_estimate is the per-cell quadrature diagnostic and seconds the
    wall time the cell took.
    """

    kappa: float
    rho2: float
    tag: RationalTag
    value: float
    err_estimate: float
    t_argmax: Optional[float] = None
    line: Optional[Tuple[np.ndarray, np.ndarray]] = None
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


def _resolve_threads(threads, jobs=math.inf):
    """Worker threads: `threads`, else ANGVAL_THREADS, else 1, clamped to
    the number of jobs and of CPUs, beyond which threads would only wait."""
    if threads is None:
        env = os.environ.get("ANGVAL_THREADS") or "1"
        try:
            threads = int(env)
        except ValueError:
            raise ValueError("ANGVAL_THREADS=%r is not an integer" % env) from None
    return max(min(int(threads), os.cpu_count() or 1, jobs), 1)


def _sweep_cell(omega1, rho1, kappa, rho2, tag, quad):
    t0 = time.perf_counter()
    if tag.rational:
        res = angular_value_resonant_4d(omega1, tag.p, tag.q, rho1, rho2, quad=quad)
        return SweepCell(
            kappa=kappa,
            rho2=rho2,
            tag=tag,
            value=res.value,
            err_estimate=res.error,
            t_argmax=res.t_argmax,
            line=(res.t_values, res.l_values),
            seconds=time.perf_counter() - t0,
        )
    spec = SchurSpec(
        (
            ComplexBlock(0.0, omega1, rho1),
            ComplexBlock(-1.0, kappa * omega1, rho2),
        )
    )
    # rationality was already judged at the sweep's q <= Qmax resolution,
    # so the strict per-call gate (which would reject any float grid
    # point with a small decimal denominator) is bypassed
    res = angular_value_irrational(2, spec, quad=quad, override_gate=True)
    return SweepCell(
        kappa=kappa,
        rho2=rho2,
        tag=tag,
        value=res.value,
        err_estimate=res.error,
        seconds=time.perf_counter() - t0,
    )


def hairy_sweep(
    omega1,
    rho1,
    kappa_grid=None,
    rho2_grid=None,
    qmax=20,
    quad=None,
    threads=None,
):
    """Second angular value of the two-block system over a (kappa, rho2) grid.

    kappa = omega2/omega1 is tagged rational when a fraction p/q with
    q <= qmax matches it to grid precision; those cells evaluate the
    resonant sup-of-line formula, all others the independent-frequency
    torus quadrature.  Cells are independent; results come back in
    (kappa, rho2) lexicographic order regardless of thread count.
    """
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
    if quad is None:
        quad = QuadConfig()
    jobs = []
    for kappa in sorted(float(k) for k in kappa_grid):
        if not (math.isfinite(kappa) and kappa > 0):
            raise ValueError("kappa_grid entries must be positive and finite, got %r" % kappa)
        tag = classify_ratio(kappa, qmax=qmax)
        for rho2 in sorted(float(r) for r in rho2_grid):
            jobs.append((kappa, rho2, tag))
    nthreads = _resolve_threads(threads, len(jobs))
    if nthreads == 1:
        return [
            _sweep_cell(omega1, rho1, kappa, rho2, tag, quad)
            for kappa, rho2, tag in jobs
        ]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        futs = [
            pool.submit(_sweep_cell, omega1, rho1, kappa, rho2, tag, quad)
            for kappa, rho2, tag in jobs
        ]
        return [f.result() for f in futs]
