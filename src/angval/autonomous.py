"""Closed-form angular values for block-diagonal constant-coefficient systems:
block column echelon structure, limiting subspaces, admissible index sets,
the torus mean of the max of ellipse speeds (Gauss-Legendre on the 1-D
integral of their closed-form distributions, for every index set), and the
resonant one-parameter family for two 2x2 blocks (exact, from the crossings
of the two speeds, for a batch of frequency ratios that share max(p, q) in
one pass)."""

from __future__ import annotations

import functools
import itertools
import math
import time
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
        return self._shared_real_part() is None

    def _shared_real_part(self):
        # the 1-based labels of the first complex block and another block at its real part
        for i, b in enumerate(self.blocks):
            if not isinstance(b, ComplexBlock):
                continue
            for j, other in enumerate(self.blocks):
                if j != i and other.beta == b.beta:
                    return i + 1, j + 1
        return None

    def require_isolated_real_parts(self):
        """Refuse a spec in which a complex block shares its real part, naming the blocks."""
        shared = self._shared_real_part()
        if shared is not None:
            raise InvalidBlock("complex block real parts must be isolated: blocks %d and %d share the real part %r"
                               % (*shared, self.blocks[shared[0] - 1].beta))


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
    spec.require_isolated_real_parts()
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
    max over maximal admissible index sets of the torus mean.

    Like w_infinity, it needs every complex block's real part isolated from
    those of all other blocks, and refuses other specs with InvalidBlock.
    """
    spec.require_isolated_real_parts()
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
# Rows of a line's parameter table, one column per cell.  Rows 0..8 are P's
# Taylor coefficients: alpha, then beta (+-)(2p)^k and gamma (+-)(2q)^k for
# k = 0..3; the rest are named below in the order _cell_params builds them,
# those a cell of sigma reads first and those only a row of t reads last
(_TP, _TQ, _EPS_P, _EPS_DP, _TOL, _ERR_SCALE, _C3, _DQ, _Q, _D2, _A2, _SUP, _OMEGA2, _SCALE, _FLOOR) = (
    9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 23, 31, 32, 33)


def _cell_params(omega1, rho1, p, q, rho2):
    # one column of the parameter table: validated p/q and rho2, and every
    # constant the line reads, each computed as for a line of one cell
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
    p, q = int(p), int(q)
    omega2 = omega1 * p / q
    _check_speeds(((omega1, rho1), (omega2, rho2)))
    a1, a2 = rho1 * omega1, rho2 * omega2
    alpha = 0.5 * (a1 * (1.0 + rho2 * rho2) - a2 * (1.0 + rho1 * rho1))
    beta = 0.5 * a1 * (1.0 - rho2 * rho2)
    gamma = 0.5 * a2 * (1.0 - rho1 * rho1)
    # P^(k) = (+-)(2p)^k beta x - (+-)(2q)^k gamma y, the sign + for k = 0, 3 mod 4
    taylor = [alpha, beta, gamma, -beta * (2 * p), -gamma * (2 * q), -beta * (2 * p) ** 2, -gamma * (2 * q) ** 2,
              beta * (2 * p) ** 3, gamma * (2 * q) ** 3]
    # rounding bounds of P and P' as evaluated here, argument rounding included
    eps_p = 16.0 * _EPS * (a1 + a2 + TWO_PI * ((p + 1) * beta + (q + 2) * gamma))
    # sup |P^(k)| for k = 1..4 when p != q, else 0 and the (2p)^k that _sups
    # scales by a sinusoid of t
    powers = [(2.0 * p) ** k for k in range(1, 5)]
    sups = ([0.0] * 4 + powers if p == q
            else [w * beta + (2.0 * q) ** k * gamma for k, w in enumerate(powers, 1)] + [0.0] * 4)
    top = max(omega1, omega2)
    return taylor + [
        2.0 * p, 2.0 * q, eps_p, 2.0 * max(p, q) * eps_p, _EPS * top,
        # h sup|P| times this bounds the share of L from a sigma cell of width h
        1.0 / (math.pi * (rho1 * rho2) ** 2),
        q / rho1**2 + p / rho2**2, (omega1 - omega2) * q, q, 0.5 * (1.0 + rho2 * rho2), 0.5 * (1.0 - rho2 * rho2),
        rho2 - 1.0, 1.0 + rho2, 1.0 - rho2, *sups, omega2, 1.0 / (math.pi * q),
        abs(omega1 - omega2) + omega1 / q, top,
    ]


class _ResonantLine:
    """The exact resonant lines L(t) of a batch of cells (p, q, rho2) that
    share omega1, rho1 and max(p, q), their slopes L'(t) and error bounds,
    from the crossings of the two speeds along one orbit period.

    L(t) = omega2 + (1/(pi q)) int_0^{pi q} (E1(t + tau) - E2(kappa tau))^+ dtau.
    With tau = q sigma, sigma in [0, pi), the sign of E1 - E2 is that of
    P(sigma) = alpha + beta cos 2p sigma - gamma cos(2t + 2q sigma), since
    E1 - E2 = P / (D1 D2) for the speed denominators D_j = cos^2 + rho_j^2 sin^2
    in [rho_j^2, 1].  Between crossings E1 - E2 has the antiderivative
    H(tau) = G1(t + tau) - G2(kappa tau)/kappa with G(theta) = omega (theta +
    atan2((rho - 1) sin cos, cos^2 + rho sin^2)), so the integral is a signed
    sum of H at the crossings, and L' the same sum of E1(t + tau).

    The cells share the crossing grid of n0 = 8 max(p, q) base cells, so one
    pass evaluates rows of t from several of them, each row reading its
    cell's column of the parameter table.  No row's values depend on the
    other rows of its pass (the cap on cells split at once is counted per
    row too), so each is what its cell gives alone.
    """

    def __init__(self, omega1, rho1, cells):
        self.table = np.array([_cell_params(omega1, rho1, *cell) for cell in cells]).T
        orders = {max(p, q) for p, q, _ in cells}
        if len(orders) != 1:
            raise ValueError("the cells of one line must share max(p, q), got %s" % sorted(orders))
        self.omega1, self.rho1 = omega1, rho1
        # cos, sin of 2j sigma on the half grid of the n0 base cells, one row
        # per order j among the cells' p and q, split into the cells' end
        # nodes and midpoints; the angles are reduced mod 2 pi in integers,
        # so the node at sigma = pi takes the values at 0
        self.n0 = _CELLS_PER_DEGREE * orders.pop()
        degrees = sorted({int(x) for p, q, _ in cells for x in (p, q)})
        index = {d: i for i, d in enumerate(degrees)}
        self.degree = np.array([[index[p] for p, _, _ in cells], [index[q] for _, q, _ in cells]])
        d, n2 = np.array(degrees)[:, None], 2 * self.n0
        nodes, mids = (d * np.arange(k, n2 + 1, 2) % n2 * (TWO_PI / n2) for k in (0, 1))
        self.nodes, self.mids = (np.cos(nodes), np.sin(nodes)), (np.cos(mids), np.sin(mids))
        # alpha + beta cos 2p sigma at each cell's nodes, the part of P that t does not move
        self.base = self.table[:1].T + self.table[1:2].T * self.nodes[0].take(self.degree[0], axis=0)

    def __call__(self, ts, which):
        """(L, L', error) at each t of the cells `which` (one index per t),
        as a (3, len(ts)) array."""
        ts, which = np.asarray(ts, dtype=float), np.asarray(which)
        out = np.empty((3, len(ts)))
        rows = max(1, _CHUNK // (2 * self.n0))  # n0 <= _CHUNK / 2 by MAX_ORDER
        for r0 in range(0, len(ts), rows):
            out[:, r0 : r0 + rows] = self._pass(ts[r0 : r0 + rows], which[r0 : r0 + rows], rows)
        return out

    def _pass(self, t, cell, rows):
        # (L, L', error) at the rows t of the cells `cell`, one pass of at most `rows` rows
        c = self.table.take(cell, axis=1)  # one column of parameters per row
        acc = np.zeros((4, len(t)))  # sums of +-H and +-E1, error bounds, crossings
        t2 = 2.0 * t
        c2, s2 = np.cos(t2), np.sin(t2)
        # one stage after another, so that each one's arrays are gone before the next
        sups = self._sups(c, c2, s2)
        cells = self._block(c2, s2, c, cell, sups)
        crossings = self._isolate(t2, c, sups, cells, math.pi / self.n0, acc, rows)
        if crossings:
            # the root steps divide by P', which may be 0, and by 0 at an exact root
            with np.errstate(divide="ignore", invalid="ignore"):
                self._cross(t2, c, sups, *crossings, acc)
        # P(0) > 0: the orbit starts inside an arc where E1 > E2
        start = np.where(self._taylor(c, 1.0, 0.0, c2, 0.0, 0)[0] > 0.0, self.omega1, c[_OMEGA2])
        floor = 8.0 * _EPS * (acc[3] * c[_FLOOR] + c[_FLOOR + 1])
        return start + c[_SCALE] * acc[0], c[_SCALE] * acc[1], acc[2] + floor

    @staticmethod
    def _taylor(c, cp, sp, u, v, order):
        # P and its first `order` derivatives in sigma, from the parameter
        # rows c, cp, sp = cos, sin 2p sigma and u, v = cos, sin(2t + 2q sigma)
        out = [c[0] + c[1] * cp - c[2] * u]
        for k in range(1, order + 1):
            x, y = (cp, u) if k % 2 == 0 else (sp, v)
            out.append(c[1 + 2 * k] * x - c[2 + 2 * k] * y)
        return out

    @staticmethod
    def _sups(c, c2, s2):
        # sup |P^(k)| per row for k = 1..4, from c2, s2 = cos, sin 2t; for p = q
        # the two cosines are one sinusoid
        powers = c[_SUP + 4 : _SUP + 8]
        return np.where(powers > 0.0, powers * np.hypot(c[1] - c[2] * c2, c[2] * s2), c[_SUP : _SUP + 4])

    @staticmethod
    def _trig(c, t2, sigma):
        ap, aq = c[_TP] * sigma, t2 + c[_TQ] * sigma
        return np.cos(ap), np.sin(ap), np.cos(aq), np.sin(aq)

    def _block(self, c2, s2, c, cell, sups):
        # the n0 base cells of width pi/n0 for every t, from the half-grid
        # table.  A cell whose end values share a sign, and exceed the most P
        # can bend below its chord, has no root; the others are returned for
        # the tests at their midpoints.
        n0, h = self.n0, math.pi / self.n0
        dp, dq = self.degree.take(cell, axis=1)
        # P = alpha + beta cos 2p sigma - gamma u at the nodes, in place
        u = c2[:, None] * self.nodes[0].take(dq, axis=0)
        u -= s2[:, None] * self.nodes[1].take(dq, axis=0)
        nodes = np.subtract(self.base.take(cell, axis=0), np.multiply(c[2][:, None], u, out=u), out=u)
        near = np.abs(nodes) <= (sups[1] * (0.125 * h * h) + c[_EPS_P])[:, None]
        pl, pr = nodes[:, :-1], nodes[:, 1:]
        rows, k = np.divmod(((pl * pr <= 0.0) | near[:, :-1] | near[:, 1:]).ravel().nonzero()[0], n0)
        left, mp, mq = rows * (n0 + 1) + k, dp.take(rows) * n0 + k, dq.take(rows) * n0 + k
        (mcos, msin), nodes = self.mids, nodes.ravel()
        cq, sq = mcos.take(mq), msin.take(mq)
        return (rows, k * h, nodes.take(left), nodes.take(left + 1), mcos.take(mp), msin.take(mp),
                c2[rows] * cq - s2[rows] * sq, s2[rows] * cq + c2[rows] * sq)

    def _isolate(self, t2, c, sups, cells, h, acc, per_pass):
        # A cell has no root if |P(mid)| exceeds the Taylor bound of
        # |P - P(mid)| on it, and at most one if |P'(mid)| exceeds that of
        # |P' - P'(mid)| (third order, plus the rounding bounds).  Other cells
        # split by _SPLIT, unless P is within rounding of 0 on them, or at the
        # depth or size limit: those become leaves whose share of L counts in
        # the error.  Every leaf whose end signs differ holds one crossing, so
        # crossings alternate in sign.  The size limit is per row of t: its
        # share of the cells that a pass of `per_pass` rows may split at once.
        m3, m4 = sups[2], sups[3]
        found = []
        for depth in range(_MAX_DEPTH + 1):
            rows, a, pl, pr = cells[:4]
            cr = c[:_TOL].take(rows, axis=1)
            p0, p1, p2, p3 = self._taylor(cr, *cells[4:], 3)
            h2, h3 = 0.125 * h * h, h**3 / 48.0
            slack = np.abs(p1) * (0.5 * h) + np.abs(p2) * h2 + m3[rows] * h3
            certified = (np.abs(p0) > slack + cr[_EPS_P]) | (
                np.abs(p1) > np.abs(p2) * (0.5 * h) + np.abs(p3) * h2 + m4[rows] * h3 + cr[_EPS_DP]
            )
            bound = np.abs(p0) + slack + cr[_EPS_P]  # sup |P| on the cell
            split = ~certified & (bound > 5.0 * cr[_EPS_P])
            if depth == _MAX_DEPTH:
                split[:] = False
            split &= np.bincount(rows[split], None, len(t2))[rows] * (_SPLIT * per_pass) <= _CHUNK
            unsure = ~certified & ~split
            if unsure.any():
                acc[2] += np.bincount(rows[unsure], h * bound[unsure], len(t2)) * c[_ERR_SCALE]
            cross = (~split & ((pl > 0.0) != (pr > 0.0))).nonzero()[0]
            if len(cross):
                found.append([x[cross] for x in cells] + [np.full(len(cross), h)])
            if not split.any():
                break
            split = split.nonzero()[0]
            cells = self._split(t2, cr.take(split, axis=1), h, *(x[split] for x in cells[:4]))
            h /= _SPLIT
        if found:  # the crossings, for _cross
            return found[0] if len(found) == 1 else list(map(np.concatenate, zip(*found)))
        return None

    def _split(self, t2, c, h, rows, a, pl, pr):
        # 2 _SPLIT - 1 new points at spacing h / (2 _SPLIT): the children's
        # inner nodes (even) and their midpoints (odd); the parent's end
        # nodes keep their values
        sigma = a[:, None] + np.arange(1, 2 * _SPLIT) * (h / (2 * _SPLIT))
        c = c[:, :, None]
        cp, sp, u, v = self._trig(c, t2[rows][:, None], sigma)
        inner = self._taylor(c, cp[:, 1::2], None, u[:, 1::2], None, 0)[0]
        nodes, m = np.concatenate([pl[:, None], inner, pr[:, None]], axis=1), slice(0, None, 2)
        return (
            np.repeat(rows, _SPLIT),
            (a[:, None] + np.arange(_SPLIT) * (h / _SPLIT)).ravel(),
            nodes[:, :-1].ravel(),
            nodes[:, 1:].ravel(),
            *(x[:, m].ravel() for x in (cp, sp, u, v)),
        )

    def _cross(self, t2, c, sups, rows, a, pl, pr, cm, sm, um, vm, h, acc):
        # Halley's iteration on P from the root of its quadratic Taylor model
        # at the cell midpoint; a step that leaves the bracket (the cell,
        # narrowed by the signs met) bisects it.  A root is done when the
        # third-order remainder of the corrected H below is under rounding.
        cr = c[:_SUP].take(rows, axis=1)
        down = pl > 0.0  # E1 > E2 ends here: +H; else an arc starts: -H
        sign = np.where(down, 1.0, -1.0)
        p0, p1, p2 = self._taylor(cr, cm, sm, um, vm, 2)
        x = (a + 0.5 * h) - p0 / (p1 - 0.5 * p2 * p0 / p1)
        lo, hi = a, a + h
        x = np.where((x >= lo) & (x <= hi), x, lo + h * (pl / (pl - pr)))
        m1, m2 = sups[0][rows], sups[1][rows]
        # |s|^3 times this bounds what the correction leaves, for a Newton step s
        c3 = (m2 + m1 * cr[_C3]) * cr[_ERR_SCALE]
        at = None  # x, its angles, Newton step, error and P per root, final once it is done
        act, tr, cl = np.arange(len(rows)), t2[rows], cr[: _ERR_SCALE + 1]
        for it in range(_MAX_POLISH):
            cp, sp, u, v = self._trig(cl, tr, x)
            p0, p1, p2 = self._taylor(cl, cp, sp, u, v, 2)
            s = np.where(p0 == 0.0, 0.0, p0 / p1)
            err = np.abs(s) ** 3 * c3
            done = err <= cl[_TOL]
            if it == _MAX_POLISH - 1:
                # no correction; the root is somewhere in the bracket
                width = hi - lo
                bracket = width * (np.abs(p0) + m1 * width + cl[_EPS_P]) * cl[_ERR_SCALE]
                s, err = np.where(done, s, 0.0), np.where(done, err, bracket)
                done = np.ones_like(done)
            # a root that is done keeps its x, and so its values, until at
            # least half of those left are done; then the rest go on alone
            if 2 * np.count_nonzero(done) >= len(done):
                if at is None:
                    at = np.array([x, cp, sp, u, v, s, err, p0])
                else:
                    at[:, act[done]] = x[done], cp[done], sp[done], u[done], v[done], s[done], err[done], p0[done]
                if done.all():
                    break
                keep = ~done
                act, tr, x, lo, hi, down, c3, m1 = (y[keep] for y in (act, tr, x, lo, hi, down, c3, m1))
                p0, p1, p2, s, done = p0[keep], p1[keep], p2[keep], s[keep], done[keep]
                cl = cl[:, keep]
            same = (p0 > 0.0) == down
            lo, hi = np.where(same, x, lo), np.where(same, hi, x)
            nx = x - p0 / (p1 - 0.5 * p2 * s)
            x = np.where(done, x, np.where((nx > lo) & (nx < hi), nx, 0.5 * (lo + hi)))
        x, cp, sp, u, v, s, err, p0 = at
        r1, q = self.rho1, cr[_Q]
        d1 = 0.5 * (1.0 + r1 * r1) + 0.5 * (1.0 - r1 * r1) * u
        d2 = cr[_D2] + cr[_D2 + 1] * cp
        a1 = np.arctan2((r1 - 1.0) * v, (1.0 + r1) + (1.0 - r1) * u)
        a2 = np.arctan2(cr[_A2] * sp, cr[_A2 + 1] + cr[_A2 + 2] * cp)
        # H without omega1 t, which cancels between the alternating signs, and
        # corrected to second order in the distance s to the root:
        # H(root) = H(x) - q P s / (2 D1 D2); E1 to first order
        h_at = cr[_DQ] * x + self.omega1 * (a1 - a2) - q * p0 * s / (2.0 * d1 * d2)
        e1_at = r1 * self.omega1 / d1 * (1.0 - s * q * (1.0 - r1 * r1) * v / d1)
        nt = acc.shape[1]
        acc[0] += np.bincount(rows, sign * h_at, nt)
        acc[1] += np.bincount(rows, sign * e1_at, nt)
        acc[2] += np.bincount(rows, err, nt)
        acc[3] += np.bincount(rows, None, nt)


def resonant_line(omega1, p, q, rho1, rho2, t):
    """The exact resonant line L at the times t (an array)."""
    t = np.atleast_1d(t)
    return _ResonantLine(omega1, rho1, [(p, q, rho2)])(t, np.zeros(len(t), int))[0]


def _maximize(line, which, ts, ls, slopes, errs, k0):
    # safeguarded secant (Illinois) on L' of the cell `which` in the grid cell
    # on the side of the coarse maximizer k0 toward which L rises, the
    # domain's end cell if there is none: (value, t, error) of the best point
    # evaluated, k0 included
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
        lx, fx, ex = line([x], [which])[:, 0]
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


def resonant_values(omega1, rho1, cells):
    """angular_value_resonant_4d of each cell (p, q, rho2) of a batch that
    shares max(p, q), with the seconds it took: [(ResonantValue, seconds)].

    The domain grids of all cells go through one call of the line, and each
    cell's sup is then found on its own.  A cell's seconds are its share of
    that call, in proportion to its rows of t, plus its own search for the sup.
    """
    t0 = time.perf_counter()
    line = _ResonantLine(omega1, rho1, cells)
    grids = [np.linspace(0.0, 0.5 * math.pi / p, -(-T_POINTS // (4 * p)) + 1) for p, _, _ in cells]
    values = line(np.concatenate(grids), np.repeat(np.arange(len(grids)), [len(ts) for ts in grids]))
    per_row = (time.perf_counter() - t0) / values.shape[1]
    out, r0 = [], 0
    for which, ts in enumerate(grids):
        t1 = time.perf_counter()
        ls, slopes, errs = values[:, r0 : r0 + len(ts)]
        r0 += len(ts)
        value, t_star, error = _maximize(line, which, ts, ls, slopes, errs, int(np.argmax(ls)))
        res = ResonantValue(value=float(value), t_argmax=float(t_star), error=float(error), t_values=ts, l_values=ls)
        out.append((res, per_row * len(ts) + time.perf_counter() - t1))
    return out


def angular_value_resonant_4d(omega1, p, q, rho1, rho2):
    """Angular value for two 2x2 blocks with frequency ratio kappa = p/q:
    sup over t in [0, 2pi] of the line L(t), the orbit mean of
    max(E1(t + tau), E2(kappa tau)).

    The blocks are taken at distinct real parts, the first above the second
    (the sweep places them at 0 and -1), as for the torus mean of
    angular_value_irrational; at equal real parts the limit of a 2-plane
    need not be one line per block, and neither formula applies.

    L is exact at every t (from the crossings of the two speeds).  L has
    period pi/p and is even, so it is sampled on the fundamental domain
    [0, pi/(2p)] only, at n + 1 equally spaced t with n = ceil(T_POINTS/(4p)),
    and the sup is located by a safeguarded secant on L' next to the first
    grid maximizer.  t_argmax lies in [0, pi/(2p)], and t_values, l_values
    are the domain samples.  `error` bounds the error of L at t_argmax.
    max(p, q) is at most MAX_ORDER.
    """
    return resonant_values(omega1, rho1, [(p, q, rho2)])[0][0]


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
