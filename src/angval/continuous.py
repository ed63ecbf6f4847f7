"""Continuous-time linear systems u' = A(t) u: subspace propagation by
classical Runge-Kutta on the block path of blocks.py, with
re-orthonormalization at every node, angle integrals, and angular value
estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blocks import _MAX_BLOCK, _carry, _power_blocks, _quiet, _running_sums, _segment_blocks, _unit_powers
from .errors import BudgetExceeded, DimensionMismatch, StepUnstable
from .linalg import solve_right, spectral_norms, square_matrix
from .search import check_budget, default_sample_times, run_search


@dataclass(frozen=True)
class ContinuousSystem:
    """Generator A(t) as `matrices`: n times -> the (n, d, d) stack of A at
    them, in their order, asked for a chunk of steps at once.  `constant`
    holds the matrix when A is autonomous, which unlocks propagation by
    precomputed powers of the one-step map."""

    matrices: Callable[[np.ndarray], np.ndarray]
    dim: int
    constant: Optional[np.ndarray] = None

    def matrix(self, t):
        return self.matrices(np.array([float(t)]))[0]

    @staticmethod
    def from_constant(a):
        a = square_matrix(a)
        return ContinuousSystem(lambda times: np.broadcast_to(a, (len(times), *a.shape)), len(a), a)

    @staticmethod
    def model2d(rho, omega):
        """Elliptic rotation generator omega * D_rho J D_rho^{-1}; an overflowing omega / rho fails later."""
        if not (np.isfinite(rho) and rho != 0.0 and np.isfinite(omega)):
            raise ValueError("rho must be finite and nonzero and omega finite, got %r and %r" % (rho, omega))
        a = np.array([[0.0, -omega / rho], [rho * omega, 0.0]])
        return ContinuousSystem(lambda times: np.broadcast_to(a, (len(times), 2, 2)), 2, a)

    @staticmethod
    def time_varying(fn, dim):
        """The system of a callback t -> A(t), called once per float time, in order."""
        return ContinuousSystem(lambda times: np.array([fn(t) for t in times.tolist()]), dim)


@dataclass(frozen=True)
class SubspaceTrajectory:
    """Node times, orthonormal bases, and the angular speed at each node."""

    times: np.ndarray
    bases: np.ndarray
    integrand: np.ndarray


@_quiet
def _step_powers(a, h, nsteps):
    """Unit-scaled powers of the RK4 step matrix of a constant generator."""
    # classical RK4 on W' = A W with constant A collapses to the degree-4
    # Taylor polynomial of exp(h A), here in Horner form
    m = np.eye(len(a))
    for j in (4, 3, 2, 1):
        m = np.eye(len(a)) + (h / j) * (a @ m)
    return _unit_powers(m, nsteps)


def _varying_blocks(sys, h, nsteps, a0):
    """Yield the segment blocks (unit-scaled products, A at their end nodes)
    of a time-varying system.  The RK4 step maps of up to _MAX_BLOCK steps
    at a time come from one `sys.matrices` call at the times one-step RK4
    uses, t_k + h/2 and t_k + h for each step k, interleaved."""
    eye = np.eye(len(a0))

    def chunks(a0):
        for k0 in range(0, nsteps, _MAX_BLOCK):
            t = np.arange(k0, min(k0 + _MAX_BLOCK, nsteps)) * h
            a = sys.matrices(np.stack([t + 0.5 * h, t + h], axis=1).ravel())
            amid, nodes = a[0::2], np.concatenate([a0[None], a[1::2]])
            k2 = amid @ (eye + (0.5 * h) * nodes[:-1])
            k3 = amid @ (eye + (0.5 * h) * k2)
            k4 = nodes[1:] @ (eye + h * k3)
            yield eye + (h / 6.0) * (nodes[:-1] + 2.0 * (k2 + k3) + k4), nodes[1:]
            a0 = nodes[-1]

    return _segment_blocks(chunks(a0))


def _speeds(q, aq):
    """Angular speed ||(I - Q Q^T) A Q||_2 of an orthonormal basis Q, or of
    each member of a stack of them, given A Q."""
    speeds = spectral_norms(aq - q @ (q.swapaxes(-1, -2) @ aq))
    if not np.isfinite(speeds).all():
        raise StepUnstable("angular speed is non-finite")
    return speeds


def _propagator(sys, h, nsteps):
    """propagate(b0) -> the stream of blocks (angular speeds, node indices,
    bases) of nsteps fixed RK4 steps, node 0 first: step powers formed here
    for a constant generator, step-map products per propagation otherwise."""
    a = sys.constant
    powers = None if a is None else _step_powers(a, h, nsteps)

    def propagate(b0):
        if len(b0) != sys.dim:
            raise DimensionMismatch("v0 lies in R^%d but the system acts on R^%d" % (len(b0), sys.dim))
        if a is None:
            a0 = sys.matrix(0.0)
            blocks, a_at = _varying_blocks(sys, h, nsteps, a0), lambda ends: ends
        else:
            a0, blocks, a_at = a, _power_blocks(powers, nsteps), lambda ends: a
        yield np.atleast_1d(_speeds(b0, a0 @ b0)), range(1), b0[None]
        for q, ends, indices in _carry(b0, blocks):
            yield _speeds(q, a_at(ends) @ q), indices, q

    return propagate


def _resolve_steps(t_end, h):
    if not (t_end > 0.0 and h > 0.0):
        raise ValueError("need a positive horizon and step, got %r and %r" % (t_end, h))
    if not math.isfinite(t_end / h):  # before the integer cast overflows
        raise BudgetExceeded("horizon %g / step %g is not a finite number of steps" % (t_end, h))
    nsteps = max(int(round(t_end / h)), 1)
    return nsteps, t_end / nsteps


@_quiet
def propagate_subspace(sys, v0, t_end, h):
    """Carry span(v0) along the flow on [0, t_end] with fixed-step RK4.

    The basis is re-orthonormalized at every node and the angular speed
    ||(I - P) A(t) P|| is recorded there.  The step is adjusted to the
    nearest exact divisor of t_end.  The only call that stores every node.
    """
    nsteps, h = _resolve_steps(t_end, h)
    speeds, _, bases = zip(*_propagator(sys, h, nsteps)(v0.basis))
    return SubspaceTrajectory(np.arange(nsteps + 1) * h, np.concatenate(bases), np.concatenate(speeds))


def angular_integral(sys, v0, t_start, t_end, h):
    """Accumulated angle a_{t_start, t_end}(V): integral of the angular speed
    along the flow started at time 0 from span(v0), by the trapezoid rule on
    the RK4 nodes.  t_start is rounded to the nearest node; the speeds are
    added in node order."""
    if not (0.0 <= t_start <= t_end):
        raise ValueError("need 0 <= t_start <= t_end")
    nsteps, h = _resolve_steps(t_end, h)
    i0 = int(round(t_start / h))
    sums, f = _running_sums(_propagator(sys, h, nsteps)(v0.basis), np.array([i0, nsteps]), start=i0)
    return float(h * (sums[1] - 0.5 * (f[0] + f[1])))


def estimate_angular_value_ct(sys, s, variant, horizon, step, config):
    """Estimate an angular value of a continuous system by multistart search.

    Candidates are scored by (1/t) a_{0,t} at a shared sample of times in
    (0, horizon], accumulated by the trapezoid rule on the RK4 trajectory;
    the tail window (from horizon * TAIL_FRACTION on) provides the
    limsup/liminf proxies.
    """
    nsteps, h = _resolve_steps(horizon, step)
    # before the sample indices: a tiny step overflows their integer cast
    check_budget(sys.dim, s, config, nsteps)
    if config.sample_times is not None:
        raw = np.asarray(config.sample_times, dtype=float)
        if raw.min() <= 0.0 or raw.max() > horizon:
            raise ValueError("sample times must lie in (0, horizon]")
    else:
        raw = default_sample_times(horizon, discrete=False)
    idx = np.unique(np.clip(np.round(raw / h).astype(int), 1, nsteps))
    times = idx * h

    samples = np.concatenate([[0], idx])
    propagate = _propagator(sys, h, nsteps)

    def evaluate(basis):
        csum, f = _running_sums(propagate(basis), samples)
        # trapezoid cumulative: h * (csum_i - (f_0 + f_i) / 2)
        cum = h * (csum[1:] - 0.5 * (f[0] + f[1:]))
        return cum / times

    return run_search(
        evaluate,
        d=sys.dim,
        s=s,
        variant=variant,
        horizon=float(horizon),
        times=times,
        config=config,
    )


def kinematic_transform_ct(sys, q_fn, qdot_fn):
    """Change of variables u = Q(t) v: generator (Qdot + Q A) Q^{-1}.

    The transformed flow satisfies Phi~(t, tau) Q(tau) = Q(t) Phi(t, tau).
    Q and Qdot are called once per time, with a float; a Q(t) that is
    singular at working precision raises SingularMatrix.
    """

    def matrices(times):
        ts = times.tolist()
        q = np.array([q_fn(t) for t in ts], dtype=float)
        qdot = np.array([qdot_fn(t) for t in ts], dtype=float)
        return solve_right(qdot + q @ sys.matrices(times), q, "times %r to %r" % (ts[0], ts[-1]))

    return ContinuousSystem(matrices, sys.dim)


def trace_normalize(sys):
    """Shift A(t) by -(tr A(t) / d) I; angular speeds are unchanged."""
    d = sys.dim
    if sys.constant is not None:
        a = sys.constant - (np.trace(sys.constant) / d) * np.eye(d)
        return ContinuousSystem.from_constant(a)

    def matrices(times):
        a = sys.matrices(times)
        return a - (np.trace(a, axis1=-2, axis2=-1)[:, None, None] / d) * np.eye(d)

    return ContinuousSystem(matrices, d)
