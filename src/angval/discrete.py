"""Discrete-time linear systems u_{n+1} = A_n u_n: solution operators,
angle sums along subspaces propagated on the block path of blocks.py, and
angular value estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blocks import _MAX_BLOCK, _orthonormalize, _quiet, _segment_blocks, _unit_powers
from .errors import SingularMatrix, StepUnstable
from .grassmann import max_angle_between_bases
from .linalg import rotation
from .search import default_sample_times, run_search


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
        a = np.asarray(a, dtype=float)
        return DiscreteSystem(generator=lambda n: a, dim=a.shape[0], constant_matrix=a)

    @staticmethod
    def from_sequence(mats, cycle=False):
        mats = [np.asarray(m, dtype=float) for m in mats]
        k = len(mats)
        if k == 0:
            raise ValueError("a matrix sequence needs at least one matrix")

        def gen(n):
            if cycle:
                return mats[n % k]
            return mats[n]

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
    the sorted times in [1, n], over n steps on the shared block path, in
    blocks of powers formed here for a constant system, of segments of
    step-map products formed per propagation otherwise.  Memory is bounded
    by the block size and the number of times, not by n."""
    a = sys.constant_matrix
    powers = None if a is None else _unit_powers(a, n)

    def blocks():
        # (unit-scaled products of K blocks, the indices of the nodes they reach)
        if powers is not None:
            for k in range(0, n, len(powers)):
                yield powers[None, : n - k], range(k + 1, n + 1)[: len(powers)]
            return
        steps = (range(k0, min(k0 + _MAX_BLOCK, n)) for k0 in range(0, n, _MAX_BLOCK))
        chunks = ((np.array([sys.matrix(k) for k in ks]), range(ks.start + 1, ks.stop + 1)) for ks in steps)
        yield from _segment_blocks(chunks)

    @_quiet
    def sums(b0, times, m=1):
        out = np.empty(len(times))
        total, ptr, q = 0.0, 0, b0
        for prods, ends in blocks():
            # each of the K blocks starts from the end node of the one before
            starts = [q]
            for p in prods[:-1]:
                starts.append(np.linalg.qr(p[-1] @ starts[-1])[0])
            w = prods @ (np.stack(starts)[:, None] if len(starts) > 1 else q)
            try:
                nodes = _orthonormalize(w.reshape(-1, *q.shape))[: len(ends)]
            except StepUnstable as exc:
                raise SingularMatrix("step matrix collapses the propagated subspace") from exc
            skip = min(max(m - ends[0], 0), len(nodes))  # nodes before m add nothing
            prev = [q, *nodes[:-1]]
            angles = [0.0] * skip + [max_angle_between_bases(u, w) for u, w in zip(prev[skip:], nodes[skip:])]
            running = np.cumsum([total, *angles])
            hi = np.searchsorted(times, ends[-1], side="right")
            out[ptr:hi] = running[times[ptr:hi] - ends[0] + 1]
            total, ptr, q = running[-1], hi, nodes[-1]
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
    if config.sample_times is not None:
        times = np.asarray(sorted(int(t) for t in config.sample_times))
        if times[0] < 1 or times[-1] > horizon:
            raise ValueError("sample times must lie in [1, horizon]")
    else:
        times = default_sample_times(int(horizon), config.sample_count, discrete=True)

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
        steps_per_eval=int(times[-1]),
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
