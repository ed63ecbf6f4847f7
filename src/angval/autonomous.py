"""Closed-form angular values for block-diagonal constant-coefficient systems:
block column echelon structure, limiting subspaces, admissible index sets,
the torus mean of the max of ellipse speeds (Gauss-Legendre on the 1-D
integral of their closed-form distributions, for every index set), and the
resonant one-parameter family for two 2x2 blocks (exact, from the crossings
of the two speeds)."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .continuous import ContinuousSystem
from .errors import (
    InvalidBlock,
    NotCoprime,
    RankDeficient,
    RationalityDetected,
)
from .linalg import RANK_TOL, ComplexBlock, RealBlock, as_matrix, block_flow, spectral_norm

TWO_PI = 2.0 * math.pi
# The strict rationality policy of the gate and of rotation angles: a ratio within
# GATE_TOL of a fraction of denominator at most GATE_QMAX is rational
GATE_QMAX, GATE_TOL = 10**4, 1e-12


@dataclass(frozen=True)
class SchurSpec:
    """Block-diagonal real quasitriangular data.

    Blocks are numbered 1..k in order; real parts must be non-increasing
    along the diagonal.  Complex blocks carry (beta, omega, rho) with the
    invariant ellipse semiaxis rho in (0, 1].
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise InvalidBlock("spec needs at least one block")
        for b in blocks:
            if not isinstance(b, (RealBlock, ComplexBlock)):
                raise InvalidBlock("blocks must be RealBlock or ComplexBlock")
        betas = [b.beta for b in blocks]
        for i in range(len(betas) - 1):
            if betas[i] < betas[i + 1]:
                raise InvalidBlock("block real parts must be non-increasing")

    @property
    def dim(self):
        return sum(b.dim for b in self.blocks)

    @property
    def block_count(self):
        return len(self.blocks)

    @property
    def betas(self):
        return tuple(b.beta for b in self.blocks)

    @property
    def complex_labels(self):
        """1-based labels of the 2x2 blocks."""
        return tuple(
            i + 1 for i, b in enumerate(self.blocks) if isinstance(b, ComplexBlock)
        )

    @property
    def offsets(self):
        """Start row of each block, with a closing sentinel equal to dim."""
        out = [0]
        for b in self.blocks:
            out.append(out[-1] + b.dim)
        return tuple(out)

    def matrix(self):
        d = self.dim
        a = np.zeros((d, d))
        off = self.offsets
        for i, b in enumerate(self.blocks):
            a[off[i] : off[i + 1], off[i] : off[i + 1]] = b.matrix()
        return a

    def flow(self, t):
        """exp(tA), assembled exactly block by block."""
        d = self.dim
        m = np.zeros((d, d))
        off = self.offsets
        for i, b in enumerate(self.blocks):
            m[off[i] : off[i + 1], off[i] : off[i + 1]] = block_flow(b, t)
        return m

    def system(self):
        return ContinuousSystem.from_constant(self.matrix())

    def has_isolated_real_parts(self):
        """No complex block shares its real part with any other block."""
        for i, b in enumerate(self.blocks):
            if not isinstance(b, ComplexBlock):
                continue
            for j, other in enumerate(self.blocks):
                if j != i and other.beta == b.beta:
                    return False
        return True


@dataclass(frozen=True)
class EchelonStructure:
    """Block column echelon data of a basis matrix.

    pivots[j] counts the zero block rows above pivot j (so it is the 0-based
    index of the pivot block), widths[j] is the pivot rank (1 or 2), and
    plateaus[j] the length of the equal-real-part run starting at the pivot.
    """

    pivots: tuple
    widths: tuple
    plateaus: tuple
    w_inf: np.ndarray
    echelon: np.ndarray


def _plateau_length(betas, start):
    n = 1
    while start + n < len(betas) and betas[start + n] == betas[start]:
        n += 1
    return n


def column_echelon(w, spec):
    """Reduce W to block column echelon form by column operations.

    Pivot positions and widths are unique; the span of the returned echelon
    matrix equals span(W) up to the rank tolerance RANK_TOL * ||W||_2.
    """
    work = as_matrix(w).copy()
    d, s = work.shape
    if d != spec.dim:
        raise ValueError("basis rows do not match the spec dimension")
    if not 1 <= s <= d:
        raise ValueError("need 1 <= columns <= dim")
    scale = spectral_norm(work)
    off = spec.offsets
    pivots, widths = [], []
    c0 = 0
    for bi, blk in enumerate(spec.blocks):
        if c0 == s:
            break
        rows = slice(off[bi], off[bi + 1])
        _, sigma, vt = np.linalg.svd(work[rows, c0:])
        rank = int(np.sum(sigma > RANK_TOL * scale))
        if rank == 0:
            work[rows, c0:] = 0.0
            continue
        work[:, c0:] = work[:, c0:] @ vt.T
        work[rows, c0 + rank :] = 0.0
        pivots.append(bi)
        widths.append(rank)
        c0 += rank
    if c0 < s:
        raise RankDeficient("basis matrix has rank below its column count")
    plateaus = tuple(_plateau_length(spec.betas, kj) for kj in pivots)
    w_inf = np.zeros_like(work)
    c0 = 0
    for kj, bj, lj in zip(pivots, widths, plateaus):
        r = slice(off[kj], off[kj + lj])
        w_inf[r, c0 : c0 + bj] = work[r, c0 : c0 + bj]
        c0 += bj
    return EchelonStructure(tuple(pivots), tuple(widths), plateaus, w_inf, work)


def w_infinity(w, spec):
    """Truncate W to the plateau rows of its echelon form.

    The flowed subspaces of W and of the result converge to each other in
    the projector norm; requires complex real parts isolated from all
    other block real parts.
    """
    if not spec.has_isolated_real_parts():
        raise InvalidBlock("complex block real parts must be isolated")
    return column_echelon(w, spec).w_inf


def admissible_sets(s, spec, maximal_only=False):
    """Subsets of complex-block labels realizable as width-1 pivots.

    J qualifies iff |J| <= min(s, d-s), and s-|J| is even when every block
    is complex; the empty set is included when it qualifies.  Sets are
    tuples of 1-based labels, sorted by (size, lexicographic).
    """
    d = spec.dim
    if not 1 <= s <= d:
        raise ValueError("need 1 <= s <= dim")
    labels = spec.complex_labels
    need_parity = len(labels) == spec.block_count
    cap = min(s, d - s)
    sets = []
    for r in range(0, cap + 1):
        if need_parity and (s - r) % 2 != 0:
            continue
        sets.extend(itertools.combinations(labels, r))
    if maximal_only:
        sets = [j for j in sets if not any(set(j) < set(k) for k in sets)]
    return sorted(sets, key=lambda j: (len(j), j))


def _espeed(theta, omega, rho):
    c = np.cos(theta)
    s = np.sin(theta)
    return rho * omega / (c * c + rho * rho * s * s)


def ellipse_speed(tau, block):
    """Instantaneous rotation speed rho*omega/(cos^2 + rho^2 sin^2) of a
    2x2 block's direction field; pi-periodic with mean omega."""
    if not isinstance(block, ComplexBlock):
        raise InvalidBlock("ellipse speed is defined for 2x2 blocks only")
    return _espeed(np.asarray(tau, dtype=float), block.omega, block.rho)


@dataclass(frozen=True)
class GateVerdict:
    independent: bool
    witnesses: tuple


def rational_approximation(x, qmax, tol):
    """Continued-fraction convergent p/q of x > 0 with q <= qmax and
    |x - p/q| <= tol, or None."""
    if x <= 0.0:
        raise ValueError("need a positive ratio")
    h0, k0 = 1, 0
    h1, k1 = int(math.floor(x)), 1
    rest = x - math.floor(x)
    for _ in range(64):
        if k1 > qmax:
            return None
        if abs(x - h1 / k1) <= tol:
            return h1, k1
        if rest <= 1e-18:
            return None
        y = 1.0 / rest
        a = int(math.floor(y))
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        rest = y - math.floor(y)
    return None


def rational_independence_gate(omegas):
    """Pairwise continued-fraction screen for rational frequency ratios.

    Each pair is screened in its larger-over-smaller orientation, so
    GATE_QMAX bounds the denominator of the canonical ratio.  A witness
    (i, j, p, q) means omega[j]/omega[i] is within GATE_TOL of p/q.
    """
    om = [float(w) for w in omegas]
    if any(w <= 0.0 for w in om):
        raise ValueError("frequencies must be positive")
    witnesses = []
    for i in range(len(om)):
        for j in range(i + 1, len(om)):
            hi, lo = (i, j) if om[i] >= om[j] else (j, i)
            pq = rational_approximation(om[hi] / om[lo], GATE_QMAX, GATE_TOL)
            if pq is not None:
                witnesses.append((hi, lo, pq[1], pq[0]))
    return GateVerdict(independent=not witnesses, witnesses=tuple(witnesses))


# T_POINTS grid steps span the resonant line's period 2 pi: its domain
# [0, pi/(2p)] is sampled no coarser, and the CLI writes L at the T_POINTS
# t of [0, 2 pi).  Each t takes a crossing grid of 8 max(p, q) cells, so
# max(p, q) is bounded to keep the full grid within 2^20 cells
T_POINTS = 720
MAX_ORDER = 2**20 // T_POINTS
# What the torus and resonant rules carry: below MIN_RHO the speed band
# [rho omega, omega/rho] is too wide for the 64-node torus rule, whose error
# then understates; above MAX_SPEED the squares of speeds and slopes overflow
MIN_RHO = 1e-2
MAX_SPEED = 1e100


def _check_speeds(params):
    for w, r in params:
        if not r >= MIN_RHO:
            raise InvalidBlock("rho = %r is below the floor %g of the torus and resonant rules" % (r, MIN_RHO))
        if not w / r <= MAX_SPEED:
            raise InvalidBlock(
                "omega/rho = %g exceeds the bound %g of the torus and resonant rules" % (w / r, MAX_SPEED)
            )


@dataclass(frozen=True)
class SetValue:
    index_set: tuple
    value: float
    error: float


@dataclass(frozen=True)
class IrrationalValue:
    value: float
    error: float
    argmax_set: tuple
    per_set: tuple


@dataclass(frozen=True)
class ResonantValue:
    value: float
    t_argmax: float
    error: float
    t_values: np.ndarray
    l_values: np.ndarray


@functools.lru_cache(maxsize=None)
def _gauss_rules():
    # 64- and 32-node Gauss-Legendre in phi on [0, pi] for x = a + (b - a)
    # sin^2(phi/2), dx = (b - a) sin(phi)/2 dphi: the offsets sin^2(phi/2) of
    # all 96 nodes, and one weight row per rule, zero off its own nodes
    from numpy.polynomial.legendre import leggauss  # a few ms: on first use only

    (t64, w64), (t32, w32) = leggauss(64), leggauss(32)
    phi = 0.5 * math.pi * (np.concatenate([t64, t32]) + 1.0)
    weights = np.array([np.r_[w64, 0.0 * w32], np.r_[0.0 * w64, w32]]) * (0.25 * math.pi * np.sin(phi))
    return np.sin(0.5 * phi) ** 2, weights


def _max_mean(params):
    # the integral and error of integral_for_set; the integrand is analytic
    # between band ends, with square-root ends that the sin^2 substitution smooths
    lo = max(r * w for w, r in params)
    hi = max(w / r for w, r in params)
    cuts = np.unique([lo, hi] + [x for w, r in params for x in (r * w, w / r) if lo < x < hi])
    offsets, weights = _gauss_rules()
    width = np.diff(cuts)[:, None]
    x = cuts[:-1, None] + width * offsets
    cdf = np.ones_like(x)
    for w, r in params:
        if r == 1.0:
            cdf *= x >= w
        else:
            u = (1.0 - r * w / x) / (1.0 - r * r)
            cdf *= (2.0 / math.pi) * np.arcsin(np.sqrt(np.clip(u, 0.0, 1.0)))
    v64, v32 = lo + weights @ np.sum(width * (1.0 - cdf), axis=0)
    return float(v64), float(abs(v64 - v32) + 64.0 * np.finfo(float).eps * hi)


def integral_for_set(spec, index_set):
    """pi^{-|J|} integral over [0, pi]^{|J|} of max_{j in J} E_j.

    For |J| >= 2 this is lo + int_lo^hi (1 - prod_j F_j(x)) dx with lo =
    max rho_j omega_j, hi = max omega_j/rho_j and the speed CDFs F_j(x) =
    (2/pi) asin sqrt((1 - rho_j omega_j/x) / (1 - rho_j^2)) (a unit step at
    omega_j when rho_j = 1), by 64-node Gauss-Legendre between band ends.
    `error` is |G64 - G32| plus a rounding floor of 64 eps hi.  |J| = 0 and
    |J| = 1 are exact (0 and omega) with error 0; for |J| >= 2 every rho_j
    must be at least MIN_RHO and every omega_j/rho_j at most MAX_SPEED.
    """
    j = tuple(index_set)
    if len(j) == 0:
        return SetValue((), 0.0, 0.0)
    params = []
    for label in j:
        blk = spec.blocks[label - 1]
        if not isinstance(blk, ComplexBlock):
            raise InvalidBlock("index set must reference 2x2 blocks")
        params.append((blk.omega, blk.rho))
    if len(j) == 1:
        # single-frequency mean is omega exactly
        return SetValue(j, params[0][0], 0.0)
    _check_speeds(params)
    return SetValue(j, *_max_mean(params))


def angular_value_irrational(s, spec, override_gate=False):
    """Outer angular value of the flow for gated-independent frequencies:
    max over maximal admissible index sets of the torus mean."""
    sets = admissible_sets(s, spec, maximal_only=True)
    wide = [j for j in sets if len(j) >= 2]
    # bounds before the gate, which reads every speed ratio above 2^53 as a resonance
    for j in wide:
        _check_speeds([(spec.blocks[l - 1].omega, spec.blocks[l - 1].rho) for l in j])
    if not override_gate:
        witnesses = []
        for j in wide:
            verdict = rational_independence_gate([spec.blocks[l - 1].omega for l in j])
            for (a, b, p, q) in verdict.witnesses:
                witnesses.append((j[a], j[b], p, q))
        if witnesses:
            raise RationalityDetected(sorted(set(witnesses)))
    per_set = tuple(integral_for_set(spec, j) for j in sets)
    best = max(per_set, key=lambda sv: sv.value)
    return IrrationalValue(
        value=best.value,
        error=best.error,
        argmax_set=best.index_set,
        per_set=per_set,
    )


# The crossing grid: base cells per unit of max(p, q), the split of a cell
# that neither Taylor test certifies, the split depth, and how many cells
# (rows of t times cells of sigma) are held at once
_CELLS_PER_DEGREE = 8
_SPLIT = 8
_MAX_DEPTH = 12
_CHUNK = 2**15
_MAX_POLISH = 60
_MAX_SECANT = 40
_EPS = float(np.finfo(float).eps)


class _ResonantLine:
    """The exact resonant line L(t), its slope L'(t) and an error bound, from
    the crossings of the two speeds along one orbit period.

    L(t) = omega2 + (1/(pi q)) int_0^{pi q} (E1(t + tau) - E2(kappa tau))^+ dtau.
    With tau = q sigma, sigma in [0, pi), the sign of E1 - E2 is that of
    P(sigma) = alpha + beta cos 2p sigma - gamma cos(2t + 2q sigma), since
    E1 - E2 = P / (D1 D2) for the speed denominators D_j = cos^2 + rho_j^2 sin^2
    in [rho_j^2, 1].  Between crossings E1 - E2 has the antiderivative
    H(tau) = G1(t + tau) - G2(kappa tau)/kappa with G(theta) = omega (theta +
    atan2((rho - 1) sin cos, cos^2 + rho sin^2)), so the integral is a signed
    sum of H at the crossings, and L' the same sum of E1(t + tau).
    """

    def __init__(self, omega1, p, q, rho1, rho2):
        if not (isinstance(p, (int, np.integer)) and isinstance(q, (int, np.integer))):
            raise ValueError("p and q must be integers")
        if p < 1 or q < 1:
            raise ValueError("need p, q >= 1")
        if max(p, q) > MAX_ORDER:
            raise ValueError("max(p, q) = %d exceeds %d" % (max(p, q), MAX_ORDER))
        if math.gcd(int(p), int(q)) != 1:
            raise NotCoprime("p/q = %d/%d is not in lowest terms" % (p, q))
        if not (math.isfinite(omega1) and omega1 > 0.0):
            raise ValueError("omega1 must be positive and finite, got %r" % (omega1,))
        for r in (rho1, rho2):
            if not 0.0 < r <= 1.0:
                raise ValueError("rho must lie in (0, 1]")
        self.p, self.q = p, q = int(p), int(q)
        self.omega1, self.omega2 = omega1, omega1 * p / q
        _check_speeds(((omega1, rho1), (self.omega2, rho2)))
        self.rho1, self.rho2 = rho1, rho2
        a1, a2 = rho1 * omega1, rho2 * self.omega2
        self.alpha = 0.5 * (a1 * (1.0 + rho2 * rho2) - a2 * (1.0 + rho1 * rho1))
        self.beta = 0.5 * a1 * (1.0 - rho2 * rho2)
        self.gamma = 0.5 * a2 * (1.0 - rho1 * rho1)
        # rounding bounds of P and P' as evaluated here, argument rounding included
        self.eps_p = 16.0 * _EPS * (a1 + a2 + TWO_PI * ((p + 1) * self.beta + (q + 2) * self.gamma))
        self.eps_dp = 2.0 * max(p, q) * self.eps_p
        # h sup|P| times this bounds the share of L from a sigma cell of width h
        self.err_scale = 1.0 / (math.pi * (rho1 * rho2) ** 2)
        # cos, sin of 2p sigma and 2q sigma on the half grid of the n0 base
        # cells; the angles are reduced mod 2 pi in integers, so the node at
        # sigma = pi takes the values at 0
        self.n0 = _CELLS_PER_DEGREE * max(p, q)
        j, n2 = np.arange(2 * self.n0 + 1), 2 * self.n0
        ap, aq = p * j % n2 * (TWO_PI / n2), q * j % n2 * (TWO_PI / n2)
        self.half_grid = np.cos(ap), np.sin(ap), np.cos(aq), np.sin(aq)

    def __call__(self, ts):
        """(L, L', error) at each t, as a (3, len(ts)) array."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((3, len(ts)))
        rows = max(1, _CHUNK // (2 * self.n0))  # n0 <= _CHUNK / 2 by MAX_ORDER
        for r0 in range(0, len(ts), rows):
            t = ts[r0 : r0 + rows]
            acc = np.zeros((4, len(t)))  # sums of +-H and +-E1, error bounds, crossings
            self._block(t, acc)
            # P(0) > 0: the orbit starts inside an arc where E1 > E2
            start = np.where(self._taylor(1.0, 0.0, np.cos(2.0 * t), 0.0, 0)[0] > 0.0, self.omega1, self.omega2)
            scale = 1.0 / (math.pi * self.q)
            floor = 8.0 * _EPS * (acc[3] * (abs(self.omega1 - self.omega2) + self.omega1 / self.q)
                                  + max(self.omega1, self.omega2))
            out[:, r0 : r0 + rows] = start + scale * acc[0], scale * acc[1], acc[2] + floor
        return out

    def _taylor(self, cp, sp, u, v, order):
        # P and its first `order` derivatives in sigma, from cp, sp = cos, sin
        # 2p sigma and u, v = cos, sin(2t + 2q sigma)
        out = [self.alpha + self.beta * cp - self.gamma * u]
        for k in range(1, order + 1):
            x, y = (cp, u) if k % 2 == 0 else (sp, v)
            sign = 1.0 if k % 4 in (0, 3) else -1.0
            out.append((sign * self.beta * (2 * self.p) ** k) * x - (sign * self.gamma * (2 * self.q) ** k) * y)
        return out

    def _sup(self, t2, k):
        # sup |P^(k)| per t; for p = q the two cosines are one sinusoid
        if self.p == self.q:
            return (2.0 * self.p) ** k * np.hypot(self.beta - self.gamma * np.cos(t2), self.gamma * np.sin(t2))
        return np.full(len(t2), (2.0 * self.p) ** k * self.beta + (2.0 * self.q) ** k * self.gamma)

    def _trig(self, t2, sigma):
        ap, aq = 2.0 * self.p * sigma, t2 + 2.0 * self.q * sigma
        return np.cos(ap), np.sin(ap), np.cos(aq), np.sin(aq)

    def _block(self, t, acc):
        # the n0 base cells of width pi/n0 for every t, from the half-grid
        # table.  A cell whose end values share a sign, and exceed the most P
        # can bend below its chord, has no root; the others go on to the
        # tests at their midpoints.
        n0, h = self.n0, math.pi / self.n0
        cp, sp, cq, sq = self.half_grid
        c, s = np.cos(2.0 * t), np.sin(2.0 * t)
        nodes = self._taylor(cp[::2], None, c[:, None] * cq[::2] - s[:, None] * sq[::2], None, 0)[0]
        pl, pr = nodes[:, :-1], nodes[:, 1:]
        bend = (self._sup(2.0 * t, 2) * (0.125 * h * h) + self.eps_p)[:, None]
        rows, k = np.divmod(np.flatnonzero((pl * pr <= 0.0) | (np.minimum(np.abs(pl), np.abs(pr)) <= bend)), n0)
        left = rows * (n0 + 1) + k
        m = 2 * k + 1
        cells = (
            rows,
            k * h,
            nodes.ravel()[left],
            nodes.ravel()[left + 1],
            cp[m],
            sp[m],
            c[rows] * cq[m] - s[rows] * sq[m],
            s[rows] * cq[m] + c[rows] * sq[m],
        )
        self._isolate(2.0 * t, cells, h, acc)

    def _isolate(self, t2, cells, h, acc):
        # A cell has no root if |P(mid)| exceeds the Taylor bound of
        # |P - P(mid)| on it, and at most one if |P'(mid)| exceeds that of
        # |P' - P'(mid)| (third order, plus the rounding bounds).  Other cells
        # split by _SPLIT, unless P is within rounding of 0 on them, or at the
        # depth or size limit: those become leaves whose share of L counts in
        # the error.  Every leaf whose end signs differ holds one crossing, so
        # crossings alternate in sign.
        m3, m4 = self._sup(t2, 3), self._sup(t2, 4)
        found = []
        for depth in range(_MAX_DEPTH + 1):
            rows, a, pl, pr = cells[:4]
            p0, p1, p2, p3 = self._taylor(*cells[4:], 3)
            h2, h3 = 0.125 * h * h, h**3 / 48.0
            slack = np.abs(p1) * (0.5 * h) + np.abs(p2) * h2 + m3[rows] * h3
            certified = (np.abs(p0) > slack + self.eps_p) | (
                np.abs(p1) > np.abs(p2) * (0.5 * h) + np.abs(p3) * h2 + m4[rows] * h3 + self.eps_dp
            )
            bound = np.abs(p0) + slack + self.eps_p  # sup |P| on the cell
            split = ~certified & (bound > 5.0 * self.eps_p)
            if depth == _MAX_DEPTH or np.count_nonzero(split) * _SPLIT > _CHUNK:
                split[:] = False
            unsure = ~certified & ~split
            acc[2] += np.bincount(rows[unsure], h * bound[unsure], len(t2)) * self.err_scale
            cross = ~split & ((pl > 0.0) != (pr > 0.0))
            found.append([x[cross] for x in cells] + [np.full(np.count_nonzero(cross), h)])
            if not split.any():
                break
            cells = self._split(t2, h, *(x[split] for x in cells[:4]))
            h /= _SPLIT
        self._cross(t2, *(np.concatenate(x) for x in zip(*found)), acc)

    def _split(self, t2, h, rows, a, pl, pr):
        # 2 _SPLIT - 1 new points at spacing h / (2 _SPLIT): the children's
        # inner nodes (even) and their midpoints (odd); the parent's end
        # nodes keep their values
        sigma = a[:, None] + np.arange(1, 2 * _SPLIT) * (h / (2 * _SPLIT))
        cp, sp, u, v = self._trig(t2[rows][:, None], sigma)
        inner = self._taylor(cp[:, 1::2], None, u[:, 1::2], None, 0)[0]
        nodes, m = np.concatenate([pl[:, None], inner, pr[:, None]], axis=1), slice(0, None, 2)
        return (
            np.repeat(rows, _SPLIT),
            (a[:, None] + np.arange(_SPLIT) * (h / _SPLIT)).ravel(),
            nodes[:, :-1].ravel(),
            nodes[:, 1:].ravel(),
            *(x[:, m].ravel() for x in (cp, sp, u, v)),
        )

    def _cross(self, t2, rows, a, pl, pr, cm, sm, um, vm, h, acc):
        # Halley's iteration on P from the root of its quadratic Taylor model
        # at the cell midpoint; a step that leaves the bracket (the cell,
        # narrowed by the signs met) bisects it.  A root is done when the
        # third-order remainder of the corrected H below is under rounding.
        if not len(rows):
            return
        down = pl > 0.0  # E1 > E2 ends here: +H; else an arc starts: -H
        p0, p1, p2 = self._taylor(cm, sm, um, vm, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (a + 0.5 * h) - p0 / (p1 - 0.5 * p2 * p0 / p1)
        lo, hi = a, a + h
        x = np.where((x >= lo) & (x <= hi), x, lo + h * (pl / (pl - pr)))
        m1, m2 = self._sup(t2, 1)[rows], self._sup(t2, 2)[rows]
        # |s|^3 times this bounds what the correction leaves, for a Newton step s
        c3 = (m2 + m1 * (self.q / self.rho1**2 + self.p / self.rho2**2)) * self.err_scale
        tol = _EPS * max(self.omega1, self.omega2)
        at = np.empty((7, len(rows)))  # x, its angles, Newton step and error
        act, tr = np.arange(len(rows)), t2[rows]
        for it in range(_MAX_POLISH):
            cp, sp, u, v = self._trig(tr, x)
            p0, p1, p2 = self._taylor(cp, sp, u, v, 2)
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.where(p0 == 0.0, 0.0, p0 / p1)
                err = np.abs(s) ** 3 * c3
            done = err <= tol
            if it == _MAX_POLISH - 1:
                # no correction; the root is somewhere in the bracket
                width = hi - lo
                bracket = width * (np.abs(p0) + m1 * width + self.eps_p) * self.err_scale
                s, err = np.where(done, s, 0.0), np.where(done, err, bracket)
                done = np.ones_like(done)
            if np.any(done):
                at[:, act[done]] = x[done], cp[done], sp[done], u[done], v[done], s[done], err[done]
                keep = ~done
                if not keep.any():
                    break
                act, tr, x, lo, hi, down, c3, m1 = (y[keep] for y in (act, tr, x, lo, hi, down, c3, m1))
                p0, p1, p2, s = p0[keep], p1[keep], p2[keep], s[keep]
            same = (p0 > 0.0) == down
            lo, hi = np.where(same, x, lo), np.where(same, hi, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                nx = x - p0 / (p1 - 0.5 * p2 * s)
            x = np.where((nx > lo) & (nx < hi), nx, 0.5 * (lo + hi))
        x, cp, sp, u, v, s, err = at
        p0 = self._taylor(cp, sp, u, v, 0)[0]
        r1, r2 = self.rho1, self.rho2
        d1 = 0.5 * (1.0 + r1 * r1) + 0.5 * (1.0 - r1 * r1) * u
        d2 = 0.5 * (1.0 + r2 * r2) + 0.5 * (1.0 - r2 * r2) * cp
        a1 = np.arctan2((r1 - 1.0) * v, (1.0 + r1) + (1.0 - r1) * u)
        a2 = np.arctan2((r2 - 1.0) * sp, (1.0 + r2) + (1.0 - r2) * cp)
        # H without omega1 t, which cancels between the alternating signs, and
        # corrected to second order in the distance s to the root:
        # H(root) = H(x) - q P s / (2 D1 D2); E1 to first order
        h_at = (self.omega1 - self.omega2) * self.q * x + self.omega1 * (a1 - a2) - self.q * p0 * s / (2.0 * d1 * d2)
        e1_at = r1 * self.omega1 / d1 * (1.0 - s * self.q * (1.0 - r1 * r1) * v / d1)
        sign = np.where(pl > 0.0, 1.0, -1.0)
        nt = acc.shape[1]
        acc[0] += np.bincount(rows, sign * h_at, nt)
        acc[1] += np.bincount(rows, sign * e1_at, nt)
        acc[2] += np.bincount(rows, err, nt)
        acc[3] += np.bincount(rows, None, nt)


def resonant_line(omega1, p, q, rho1, rho2, t):
    """The exact resonant line L at the times t (an array)."""
    return _ResonantLine(omega1, p, q, rho1, rho2)(np.atleast_1d(t))[0]


def _maximize(line, ts, ls, slopes, errs, k0):
    # safeguarded secant (Illinois) on L' in the grid cell on the side of the
    # coarse maximizer k0 toward which L rises, the domain's end cell if there
    # is none: (value, t, error) of the best point evaluated, k0 included
    best = (ls[k0], ts[k0], errs[k0])
    k = min(max(k0 - (slopes[k0] < 0.0), 0), len(ts) - 2)
    a, fa, b, fb = ts[k], slopes[k], ts[k + 1], slopes[k + 1]

    def small(f):
        # what is left to gain from a point of slope f, about f^2 / 2|L''|, is below rounding
        return f * f * (b - a) <= 8.0 * _EPS * best[0] * (fa - fb)

    if not fa > 0.0 > fb or small(min(fa, -fb)):
        return best
    side = 0
    for _ in range(_MAX_SECANT):
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        lx, fx, ex = line([x])[:, 0]
        if lx > best[0]:
            best = (lx, x, ex)
        if small(fx):
            break
        if fx > 0.0:
            a, fa = x, fx
            fb *= 0.5 if side > 0 else 1.0
            side = 1
        else:
            b, fb = x, fx
            fa *= 0.5 if side < 0 else 1.0
            side = -1
    return best


def angular_value_resonant_4d(omega1, p, q, rho1, rho2):
    """Angular value for two 2x2 blocks with frequency ratio kappa = p/q:
    sup over t in [0, 2pi] of the line L(t), the orbit mean of
    max(E1(t + tau), E2(kappa tau)).

    L is exact at every t (from the crossings of the two speeds).  L has
    period pi/p and is even, so it is sampled on the fundamental domain
    [0, pi/(2p)] only, at n + 1 equally spaced t with n = ceil(T_POINTS/(4p)),
    and the sup is located by a safeguarded secant on L' next to the first
    grid maximizer.  t_argmax lies in [0, pi/(2p)], and t_values, l_values
    are the domain samples.  `error` bounds the error of L at t_argmax.
    max(p, q) is at most MAX_ORDER.
    """
    line = _ResonantLine(omega1, p, q, rho1, rho2)
    n = -(-T_POINTS // (4 * line.p))
    ts = np.linspace(0.0, 0.5 * math.pi / line.p, n + 1)
    ls, slopes, errs = line(ts)
    value, t_star, error = _maximize(line, ts, ls, slopes, errs, int(np.argmax(ls)))
    return ResonantValue(
        value=float(value),
        t_argmax=float(t_star),
        error=float(error),
        t_values=ts,
        l_values=ls,
    )


def symmetry_check(s, spec):
    """Verify J(s) = J(d-s) and that the two torus values agree."""
    d = spec.dim
    if not 1 <= s <= d - 1:
        raise ValueError("need 1 <= s <= dim - 1")
    if admissible_sets(s, spec) != admissible_sets(d - s, spec):
        return False
    a = angular_value_irrational(s, spec, override_gate=True)
    b = angular_value_irrational(d - s, spec, override_gate=True)
    return abs(a.value - b.value) <= a.error + b.error + 1e-9
