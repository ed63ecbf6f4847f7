"""Discrete-time linear systems u_{n+1} = A_n u_n: solution operators,
angle sums along propagated subspaces, and angular value estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RankDeficient, SingularMatrix
from .grassmann import _SINE_PATH_THRESHOLD, max_angle_between_bases
from .linalg import qr_thin, rotation
from .search import default_sample_times, run_search


@dataclass(frozen=True)
class DiscreteSystem:
    """Step matrices A_n indexed by n >= 0, produced by `generator`."""

    generator: Callable[[int], np.ndarray]
    dim: int

    def matrix(self, n):
        return self.generator(int(n))

    @staticmethod
    def constant(a):
        a = np.asarray(a, dtype=float)
        return DiscreteSystem(generator=lambda n: a, dim=a.shape[0])

    @staticmethod
    def from_sequence(mats, cycle=False):
        mats = [np.asarray(m, dtype=float) for m in mats]
        k = len(mats)

        def gen(n):
            if cycle:
                return mats[n % k]
            return mats[n]

        return DiscreteSystem(generator=gen, dim=mats[0].shape[0])

    @staticmethod
    def planar_rotation(rho, phi):
        """The 2x2 map D_rho T_phi D_rho^{-1}: a rotation sheared to an ellipse."""
        d = np.diag([1.0, rho])
        dinv = np.diag([1.0, 1.0 / rho])
        a = d @ rotation(phi) @ dinv
        return DiscreteSystem(generator=lambda n: a, dim=2)


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


def _push_basis(a, b):
    try:
        q, _ = qr_thin(a @ b)
    except RankDeficient as exc:
        raise SingularMatrix("step matrix collapses the propagated subspace") from exc
    return q


def angle_sum(sys, v, m, n):
    """Sum of successive maximal principal angles along the orbit of V.

    a_{m,n}(V) = sum_{j=m}^{n} angle(Phi(j-1,0) V, Phi(j,0) V), computed
    incrementally with re-orthonormalization at every step.
    """
    m, n = int(m), int(n)
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    b = v.basis
    total = 0.0
    for j in range(1, n + 1):
        nxt = _push_basis(sys.matrix(j - 1), b)
        if j >= m:
            total += max_angle_between_bases(b, nxt)
        b = nxt
    return total


def _cesaro_line_samples(sys, b0, times):
    """Cesaro averages (1/n) a_{1,n} for a single line, at the sample times."""
    b = b0[:, 0].copy()
    total = 0.0
    out = np.empty(len(times))
    ptr = 0
    nmax = int(times[-1])
    for j in range(1, nmax + 1):
        w = sys.matrix(j - 1) @ b
        nw = math.sqrt(float(w @ w))
        if nw == 0.0 or not math.isfinite(nw):
            raise SingularMatrix("step matrix collapses the propagated line")
        w = w / nw
        c = abs(float(b @ w))
        if c > _SINE_PATH_THRESHOLD:
            resid = w - b * float(b @ w)
            sine = math.sqrt(float(resid @ resid))
            total += math.asin(min(sine, 1.0))
        else:
            total += math.acos(min(c, 1.0))
        b = w
        while ptr < len(times) and times[ptr] == j:
            out[ptr] = total / j
            ptr += 1
    return out


def _cesaro_samples(sys, b0, times):
    if b0.shape[1] == 1:
        return _cesaro_line_samples(sys, b0, times)
    b = b0
    total = 0.0
    out = np.empty(len(times))
    ptr = 0
    nmax = int(times[-1])
    for j in range(1, nmax + 1):
        nxt = _push_basis(sys.matrix(j - 1), b)
        total += max_angle_between_bases(b, nxt)
        b = nxt
        while ptr < len(times) and times[ptr] == j:
            out[ptr] = total / j
            ptr += 1
    return out


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

    def evaluate(basis):
        return _cesaro_samples(sys, basis, times)

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
