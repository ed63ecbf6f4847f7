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
from .errors import SingularMatrix, StepUnstable
from .linalg import rotation, square_matrix
from .search import check_budget, default_sample_times, run_search


@dataclass(frozen=True)
class DiscreteSystem:
    """Step matrices A_n indexed by n >= 0, produced by `generator`.
    `constant_matrix` holds the matrix when A_n does not depend on n, which
    unlocks propagation by precomputed powers of it."""

    generator: Callable[[int], np.ndarray]
    dim: int
    constant_matrix: Optional[np.ndarray] = None

    def matrix(self, n):
        return self.generator(int(n))

    @staticmethod
    def constant(a):
        a = square_matrix(a)
        return DiscreteSystem(generator=lambda n: a, dim=a.shape[0], constant_matrix=a)

    @staticmethod
    def from_sequence(mats, cycle=False):
        mats = [square_matrix(m) for m in mats]
        if len({m.shape for m in mats}) != 1:
            raise ValueError("a matrix sequence needs at least one matrix, all of one shape")

        def gen(n):
            return mats[n % len(mats)] if cycle else mats[n]

        return DiscreteSystem(generator=gen, dim=mats[0].shape[0])

    @staticmethod
    def planar_rotation(rho, phi):
        """The 2x2 map D_rho T_phi D_rho^{-1}: a rotation sheared to an ellipse."""
        if not (math.isfinite(rho) and rho != 0.0):
            raise ValueError("rho must be finite and nonzero, got %r" % (rho,))
        d = np.diag([1.0, rho])
        dinv = np.diag([1.0, 1.0 / rho])
        return DiscreteSystem.constant(d @ rotation(phi) @ dinv)


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
        chunks = ((np.array([sys.matrix(k) for k in ks]), range(ks.start + 1, ks.stop + 1)) for ks in steps)
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
    return float(_propagator(sys, n)(v.basis, np.array([n]), m)[0])


def estimate_angular_value(sys, s, variant, horizon, config):
    """Estimate one of the four angular value variants by multistart search.

    Candidates are scored by Cesaro averages of their angle sums on a
    shared logarithmic sample of [1, horizon]; the tail window (from
    horizon * tail_fraction on) provides the limsup/liminf proxies.  The
    returned value is a lower bound with respect to the subspace search.
    """
    if not (horizon >= 1 and float(horizon).is_integer()):
        raise ValueError("horizon must be a positive integer, got %r" % (horizon,))
    if config.sample_times is not None:
        times = np.sort(np.asarray(config.sample_times, dtype=float))
        if np.any(times != np.round(times)) or times[0] < 1 or times[-1] > horizon:
            raise ValueError("sample times must be integers in [1, horizon], got %r" % (config.sample_times,))
        times = times.astype(int)
    else:
        times = default_sample_times(int(horizon), config.sample_count, discrete=True)
    check_budget(sys.dim, s, config, int(times[-1]))

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
    Phi~(n, m) Q_m = Q_n Phi(n, m).
    """

    def gen(n):
        a = sys.matrix(n)
        qn1 = np.asarray(q_seq(n + 1), dtype=float)
        qn = np.asarray(q_seq(n), dtype=float)
        try:
            return np.linalg.solve(qn.T, (qn1 @ a).T).T
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("kinematic transform matrix is singular") from exc

    return DiscreteSystem(generator=gen, dim=sys.dim)
