"""Discrete-time linear systems u_{n+1} = A_n u_n: solution operators,
angle sums along subspaces propagated on the block path of blocks.py, and
angular value estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import grassmann
from .blocks import _MAX_BLOCK, _carry, _power_blocks, _quiet, _segment_blocks, _unit_powers
from .errors import DimensionMismatch, SingularMatrix, StepUnstable
from .linalg import rotation, solve_right, square_matrix
from .search import check_budget, default_sample_times, run_search


@dataclass(frozen=True)
class DiscreteSystem:
    """Step matrices A_n as `matrices`: n integer steps -> the (n, d, d)
    stack of A at them, in their order, asked for a chunk of steps at once.
    `constant_matrix` holds the matrix when A_n does not depend on n, which
    unlocks propagation by precomputed powers of it."""

    matrices: Callable[[np.ndarray], np.ndarray]
    dim: int
    constant_matrix: Optional[np.ndarray] = None

    def matrix(self, n):
        return self.matrices(np.array([int(n)]))[0]

    @staticmethod
    def constant(a):
        a = square_matrix(a)
        return DiscreteSystem(lambda ns: np.broadcast_to(a, (len(ns), *a.shape)), len(a), a)

    @staticmethod
    def from_sequence(mats, cycle=False):
        """A_n = mats[n] for n in 0..len-1 from one stack, or mats[n % len] for every n."""
        mats = [square_matrix(m) for m in mats]
        if len({m.shape for m in mats}) != 1:
            raise ValueError("a matrix sequence needs at least one matrix, all of one shape")
        stack = np.array(mats)

        def matrices(ns):
            if cycle:
                return stack[ns % len(stack)]
            outside = (ns < 0) | (ns >= len(stack))
            if outside.any():
                raise ValueError("a sequence of %d matrices has no step %d" % (len(stack), ns[outside][0]))
            return stack[ns]

        return DiscreteSystem(matrices, stack.shape[1])

    @staticmethod
    def planar_rotation(rho, phi):
        """The 2x2 map D_rho T_phi D_rho^{-1}: a rotation sheared to an ellipse.
        A 1 / rho that overflows fails later, in propagation."""
        if not (math.isfinite(rho) and rho != 0.0):
            raise ValueError("rho must be finite and nonzero, got %r" % (rho,))
        a = np.diag([1.0, rho]) @ rotation(phi) @ np.diag([1.0, 1.0 / rho])
        return DiscreteSystem(lambda ns: np.broadcast_to(a, (len(ns), 2, 2)), 2, a)


def solution_operator(sys, n, m):
    """Phi(n, m): the product A_{n-1} ... A_m, or its inverse branch for n < m.

    Satisfies the cocycle identity Phi(n, k) Phi(k, m) = Phi(n, m).
    """
    n, m = int(n), int(m)
    out = np.eye(sys.dim)
    try:
        if n >= m:
            for j in range(m, n):
                out = sys.matrix(j) @ out
        else:
            for j in range(m - 1, n - 1, -1):
                out = np.linalg.solve(sys.matrix(j), out)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("singular step matrix in solution operator") from exc
    if not np.all(np.isfinite(out)):
        raise SingularMatrix("solution operator overflowed; step matrix near singular")
    return out


def _propagator(sys, n):
    """sums(b0, times, m=1) -> the angle sums a_{m,j}(span b0) at each j of
    the sorted times in [1, n], over n steps on the shared block path (the
    powers of a constant map are formed here, once).  Memory is bounded by
    the block size and the number of times, not by n."""
    a = sys.constant_matrix
    powers = None if a is None else _unit_powers(a, n)

    def blocks():
        if powers is not None:
            return _power_blocks(powers, n)
        steps = (range(k0, min(k0 + _MAX_BLOCK, n)) for k0 in range(0, n, _MAX_BLOCK))
        chunks = ((sys.matrices(np.arange(ks.start, ks.stop)), range(ks.start + 1, ks.stop + 1)) for ks in steps)
        return _segment_blocks(chunks)

    @_quiet
    def sums(b0, times, m=1):
        out = np.empty(len(times))
        total, ptr, q = 0.0, 0, b0
        try:
            for nodes, ends in _carry(b0, blocks()):
                angles = grassmann.max_angles(np.concatenate([q[None], nodes[:-1]]), nodes)
                angles[: max(m - ends[0], 0)] = 0.0  # nodes before m add nothing
                running = np.cumsum(np.concatenate([[total], angles]))
                hi = np.searchsorted(times, ends[-1], side="right")
                out[ptr:hi] = running[times[ptr:hi] - ends[0] + 1]
                total, ptr, q = running[-1], hi, nodes[-1]
        except StepUnstable as exc:
            raise SingularMatrix("step matrix collapses the propagated subspace") from exc
        return out

    return sums


def angle_sum(sys, v, m, n):
    """Sum of successive maximal principal angles along the orbit of V.

    a_{m,n}(V) = sum_{j=m}^{n} angle(Phi(j-1,0) V, Phi(j,0) V), with the
    subspaces carried on the block path and re-orthonormalized at every node.
    """
    m, n = int(m), int(n)
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    if v.d != sys.dim:
        raise DimensionMismatch("v lies in R^%d but the system acts on R^%d" % (v.d, sys.dim))
    return float(_propagator(sys, n)(v.basis, np.array([n]), m)[0])


def estimate_angular_value(sys, s, variant, horizon, config):
    """Estimate one of the four angular value variants by multistart search.

    Candidates are scored by Cesaro averages of their angle sums on a
    shared logarithmic sample of [1, horizon]; the tail window (from
    horizon * TAIL_FRACTION on) provides the limsup/liminf proxies.  The
    returned value is a lower bound with respect to the subspace search.
    """
    if not (horizon >= 1 and float(horizon).is_integer()):
        raise ValueError("horizon must be a positive integer, got %r" % (horizon,))
    times = None if config.sample_times is None else np.sort(np.asarray(config.sample_times, dtype=float))
    if times is not None and (np.any(times != np.round(times)) or times[0] < 1 or times[-1] > horizon):
        raise ValueError("sample times must be integers in [1, horizon], got %r" % (config.sample_times,))
    # before the integer casts, which a huge horizon overflows
    check_budget(sys.dim, s, config, horizon if times is None else times[-1])
    if times is None:
        times = default_sample_times(int(horizon), discrete=True)
    times = times.astype(int)

    sums = _propagator(sys, int(times[-1]))

    def evaluate(basis):
        return sums(basis, times) / times

    return run_search(
        evaluate,
        d=sys.dim,
        s=s,
        variant=variant,
        horizon=int(horizon),
        times=times,
        config=config,
    )


def kinematic_transform(sys, q_seq):
    """Change of variables u_n = Q_n v_n: step matrices Q_{n+1} A_n Q_n^{-1}.

    The transformed solution operator satisfies
    Phi~(n, m) Q_m = Q_n Phi(n, m).  Q is called at n and n + 1 for each
    step n; a Q_n that is singular at working precision raises SingularMatrix.
    """

    def matrices(ns):
        ks = ns.tolist()
        q = np.array([q_seq(k) for k in ks], dtype=float)
        qn1 = np.array([q_seq(k + 1) for k in ks], dtype=float)
        return solve_right(qn1 @ sys.matrices(ns), q, "steps %d to %d" % (ks[0], ks[-1]))

    return DiscreteSystem(matrices, sys.dim)
