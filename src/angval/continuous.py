"""Continuous-time linear systems u' = A(t) u: subspace propagation by
classical Runge-Kutta with re-orthonormalization at every node, angle
integrals, and angular value estimates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import StepUnstable
from .search import default_sample_times, run_search


@dataclass(frozen=True)
class ContinuousSystem:
    """Generator t -> A(t).  `constant` holds the matrix when A is autonomous,
    which unlocks propagation by precomputed powers of the one-step map."""

    generator: Callable[[float], np.ndarray]
    dim: int
    constant: Optional[np.ndarray] = None

    def matrix(self, t):
        if self.constant is not None:
            return self.constant
        return self.generator(float(t))

    @staticmethod
    def from_constant(a):
        a = np.asarray(a, dtype=float)
        return ContinuousSystem(generator=lambda t: a, dim=a.shape[0], constant=a)

    @staticmethod
    def model2d(rho, omega):
        """Elliptic rotation generator omega * D_rho J D_rho^{-1}."""
        a = np.array([[0.0, -omega / rho], [rho * omega, 0.0]])
        return ContinuousSystem.from_constant(a)

    @staticmethod
    def time_varying(fn, dim):
        return ContinuousSystem(generator=fn, dim=dim)


@dataclass(frozen=True)
class SubspaceTrajectory:
    """Node times, orthonormal bases, and the angular speed at each node."""

    times: np.ndarray
    bases: np.ndarray
    integrand: np.ndarray


# Every generator is propagated in blocks: B nodes are carried from one
# orthonormal basis by the products M_j ... M_1 of the RK4 step maps and
# orthonormalized together.  That is as accurate as stepping while the
# products stay well conditioned, so B is the longest leading run of
# products, up to _MAX_BLOCK, whose condition number is at most _BLOCK_COND.
# A constant generator has one step matrix M, whose powers are formed once.
_MAX_BLOCK = 256
_BLOCK_COND = 1e4
_RANK_TOL = 1e-10  # qr_thin's default

# overflow/invalid during a blown-up step is reported via StepUnstable, not
# as a numpy warning
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _well_conditioned(prods):
    """Length, at least 1, of the longest leading run of a (B, d, d) stack
    whose condition numbers are at most _BLOCK_COND."""
    finite = np.all(np.isfinite(prods), axis=(1, 2))
    cond = np.full(len(prods), np.inf)
    sigma = np.linalg.svd(prods[finite], compute_uv=False)
    cond[finite] = sigma[:, 0] / sigma[:, -1]
    ok = cond <= _BLOCK_COND  # 0/0 is nan: a zero product fails too
    return len(prods) if ok.all() else max(int(np.argmin(ok)), 1)


@_quiet
def _step_powers(a, h, nsteps):
    """Stack (B, d, d) of the powers of the RK4 step matrix M, each scaled to
    unit norm, which keeps the spans they carry and keeps long blocks of
    growing or decaying steps from overflowing or underflowing."""
    # classical RK4 on W' = A W with constant A collapses to the degree-4
    # Taylor polynomial of exp(h A), here in Horner form
    powers = np.eye(len(a))
    for j in (4, 3, 2, 1):
        powers = np.eye(len(a)) + (h / j) * (a @ powers)
    powers = powers[None]
    cap = min(_MAX_BLOCK, nsteps)
    while len(powers) < cap:
        powers = np.concatenate([powers, powers @ powers[-1]])
        powers /= np.linalg.norm(powers, axis=(1, 2), keepdims=True)
    return powers[: _well_conditioned(powers[:cap])]


def _prefix_products(maps):
    """Products M_j ... M_1 (j = 1..n) of a stack of n maps, each scaled to
    unit norm, by a scan of about log2(n) stacked products."""
    prods = maps / np.linalg.norm(maps, axis=(1, 2), keepdims=True)
    span = 1
    while span < len(prods):
        prods = np.concatenate([prods[:span], prods[span:] @ prods[:-span]])
        prods /= np.linalg.norm(prods, axis=(1, 2), keepdims=True)
        span *= 2
    return prods


def _varying_blocks(gen, h, nsteps, a0):
    """Yield the blocks (unit-scaled products, A at their end nodes) of a
    time-varying generator.  The RK4 step maps of up to _MAX_BLOCK steps at a
    time come from one generator call at each of the times one-step RK4 uses;
    after a block is cut short, the next forms its products only up to that
    length, and each block that is not cut doubles the length tried."""
    eye = np.eye(len(a0))
    tried = _MAX_BLOCK
    for k0 in range(0, nsteps, _MAX_BLOCK):
        amid, nodes = [], [a0]
        for k in range(k0, min(k0 + _MAX_BLOCK, nsteps)):
            t = k * h
            amid.append(gen(t + 0.5 * h))
            nodes.append(gen(t + h))
        amid, nodes = np.array(amid), np.array(nodes)
        k2 = amid @ (eye + (0.5 * h) * nodes[:-1])
        k3 = amid @ (eye + (0.5 * h) * k2)
        k4 = nodes[1:] @ (eye + h * k3)
        maps = eye + (h / 6.0) * (nodes[:-1] + 2.0 * (k2 + k3) + k4)
        j = 0
        while j < len(maps):
            prods = _prefix_products(maps[j : j + tried])
            b = _well_conditioned(prods)
            yield prods[:b], nodes[j + 1 : j + 1 + b]
            tried = b if b < len(prods) else min(2 * tried, _MAX_BLOCK)
            j += b
        a0 = nodes[-1]


def _orthonormalize(w):
    """Orthonormal factor of a (d, s) basis or of each member of an (n, d, s)
    stack, with diag R >= 0 and qr_thin's rank test; an overflowed or
    rank-deficient basis raises StepUnstable."""
    scale = np.sqrt(np.einsum("...ij,...ij->...", w, w))
    if not np.isfinite(scale).all():
        raise StepUnstable("propagated basis overflowed or has non-finite entries")
    if w.shape[-1] == 1:
        # one column: R is its norm, and the rank test is "nonzero column"
        if not (scale > 0.0).all():
            raise StepUnstable("propagated basis lost rank")
        return w / scale[..., None, None]
    q, r = np.linalg.qr(w)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if (np.abs(diag) <= _RANK_TOL * scale[..., None]).any():
        raise StepUnstable("propagated basis lost rank")
    return q * np.sign(diag)[..., None, :]


def _speeds(q, aq):
    """Angular speed ||(I - Q Q^T) A Q||_2 of an orthonormal basis Q, or of
    each member of a stack of them, given A Q."""
    m = aq - q @ (q.swapaxes(-1, -2) @ aq)
    g = m.swapaxes(-1, -2) @ m
    s = g.shape[-1]
    if s == 1:
        speeds = np.sqrt(g[..., 0, 0])
    elif s == 2:
        g00, g01, g11 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
        speeds = np.sqrt(0.5 * (g00 + g11 + np.sqrt((g00 - g11) ** 2 + 4.0 * g01 * g01)))
    elif np.isfinite(g).all():
        speeds = np.sqrt(np.maximum(np.linalg.eigvalsh(g)[..., -1], 0.0))
    else:
        speeds = np.full(g.shape[:-2], np.inf)
    if not np.isfinite(speeds).all():
        raise StepUnstable("angular speed is non-finite")
    return speeds


@_quiet
def _propagate(a0, blocks, b0, nsteps, store_bases):
    d, s = b0.shape
    integrand = np.empty(nsteps + 1)
    bases = np.empty((nsteps + 1, d, s)) if store_bases else None
    integrand[0] = _speeds(b0, a0 @ b0)
    if store_bases:
        bases[0] = b0
    q, k = b0[None], 0
    for prods, a in blocks:
        q = _orthonormalize(prods @ q[-1])
        integrand[k + 1 : k + 1 + len(q)] = _speeds(q, a @ q)
        if store_bases:
            bases[k + 1 : k + 1 + len(q)] = q
        k += len(q)
    return bases, integrand


def _propagator(sys, h, nsteps):
    """propagate(b0, store_bases) -> (bases or None, integrand) over nsteps
    fixed RK4 steps, in blocks of step powers formed here for a constant
    generator, of step-map products formed per propagation otherwise."""
    a = sys.constant
    powers = None if a is None else _step_powers(a, h, nsteps)

    def propagate(b0, store_bases):
        if a is None:
            a0 = sys.matrix(0.0)
            return _propagate(a0, _varying_blocks(sys.matrix, h, nsteps, a0), b0, nsteps, store_bases)
        blocks = ((powers[: nsteps - k], a) for k in range(0, nsteps, len(powers)))
        return _propagate(a, blocks, b0, nsteps, store_bases)

    return propagate


def _resolve_steps(t_end, h):
    nsteps = max(int(round(t_end / h)), 1)
    return nsteps, t_end / nsteps


def _trajectory(sys, v0, t_end, h, store_bases):
    nsteps, h_eff = _resolve_steps(t_end, h)
    bases, integrand = _propagator(sys, h_eff, nsteps)(v0.basis, store_bases)
    times = np.arange(nsteps + 1) * h_eff
    return SubspaceTrajectory(times=times, bases=bases, integrand=integrand)


def propagate_subspace(sys, v0, t_end, h):
    """Carry span(v0) along the flow on [0, t_end] with fixed-step RK4.

    The basis is re-orthonormalized at every node and the angular speed
    ||(I - P) A(t) P|| is recorded there.  The step is adjusted to the
    nearest exact divisor of t_end.
    """
    return _trajectory(sys, v0, t_end, h, store_bases=True)


def integral_from_trajectory(traj, t_start=0.0):
    """Trapezoid rule over the stored integrand from t_start to the end."""
    h = traj.times[1] - traj.times[0]
    i0 = int(round(t_start / h))
    if not (0 <= i0 < len(traj.times)):
        raise ValueError("t_start outside the trajectory")
    f = traj.integrand[i0:]
    return float(h * (f.sum() - 0.5 * (f[0] + f[-1])))


def angular_integral(sys, v0, t_start, t_end, h):
    """Accumulated angle a_{t_start, t_end}(V): integral of the angular speed
    along the flow started at time 0 from span(v0)."""
    if not (0.0 <= t_start <= t_end):
        raise ValueError("need 0 <= t_start <= t_end")
    return integral_from_trajectory(_trajectory(sys, v0, t_end, h, store_bases=False), t_start)


def estimate_angular_value_ct(sys, s, variant, horizon, step, config):
    """Estimate an angular value of a continuous system by multistart search.

    Candidates are scored by (1/t) a_{0,t} at a shared sample of times in
    (0, horizon], accumulated by the trapezoid rule on the RK4 trajectory;
    the tail window provides the limsup/liminf proxies.
    """
    nsteps, h = _resolve_steps(horizon, step)
    if config.sample_times is not None:
        raw = np.asarray(config.sample_times, dtype=float)
    else:
        raw = default_sample_times(horizon, config.sample_count, discrete=False)
    idx = np.unique(np.clip(np.round(raw / h).astype(int), 1, nsteps))
    times = idx * h

    propagate = _propagator(sys, h, nsteps)

    def evaluate(basis):
        _, integrand = propagate(basis, store_bases=False)
        csum = np.cumsum(integrand)
        # trapezoid cumulative: h * (csum[i] - (f0 + f_i) / 2)
        cum = h * (csum[idx] - 0.5 * (integrand[0] + integrand[idx]))
        return cum / times

    return run_search(
        evaluate,
        d=sys.dim,
        s=s,
        variant=variant,
        horizon=float(horizon),
        times=times,
        config=config,
        steps_per_eval=nsteps,
    )


def kinematic_transform_ct(sys, q_fn, qdot_fn):
    """Change of variables u = Q(t) v: generator (Qdot + Q A) Q^{-1}.

    The transformed flow satisfies Phi~(t, tau) Q(tau) = Q(t) Phi(t, tau).
    """

    def gen(t):
        q = np.asarray(q_fn(t), dtype=float)
        qdot = np.asarray(qdot_fn(t), dtype=float)
        rhs = qdot + q @ sys.matrix(t)
        return np.linalg.solve(q.T, rhs.T).T

    return ContinuousSystem(generator=gen, dim=sys.dim)


def trace_normalize(sys):
    """Shift A(t) by -(tr A(t) / d) I; angular speeds are unchanged."""
    d = sys.dim
    if sys.constant is not None:
        a = sys.constant - (np.trace(sys.constant) / d) * np.eye(d)
        return ContinuousSystem.from_constant(a)

    def gen(t):
        a = sys.matrix(t)
        return a - (np.trace(a) / d) * np.eye(d)

    return ContinuousSystem(generator=gen, dim=d)
