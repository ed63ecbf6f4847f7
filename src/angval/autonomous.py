"""Closed-form angular values for block-diagonal constant-coefficient systems:
block column echelon structure, limiting subspaces, admissible index sets,
the torus mean of the max of ellipse speeds (Gauss-Legendre on the 1-D
integral of their closed-form distributions, for every index set), and the
resonant one-parameter family for two 2x2 blocks."""

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
from .linalg import ComplexBlock, RealBlock, as_matrix, block_flow

TWO_PI = 2.0 * math.pi


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


def column_echelon(w, spec, tol=1e-10):
    """Reduce W to block column echelon form by column operations.

    Pivot positions and widths are unique; the span of the returned echelon
    matrix equals span(W) up to the rank tolerance.
    """
    work = as_matrix(w).copy()
    d, s = work.shape
    if d != spec.dim:
        raise ValueError("basis rows do not match the spec dimension")
    if not 1 <= s <= d:
        raise ValueError("need 1 <= columns <= dim")
    scale = max(float(np.linalg.norm(work)), 1.0)
    off = spec.offsets
    pivots, widths = [], []
    c0 = 0
    for bi, blk in enumerate(spec.blocks):
        if c0 == s:
            break
        rows = slice(off[bi], off[bi + 1])
        _, sigma, vt = np.linalg.svd(work[rows, c0:])
        rank = int(np.sum(sigma > tol * scale))
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


def w_infinity(w, spec, tol=1e-10):
    """Truncate W to the plateau rows of its echelon form.

    The flowed subspaces of W and of the result converge to each other in
    the projector norm; requires complex real parts isolated from all
    other block real parts.
    """
    if not spec.has_isolated_real_parts():
        raise InvalidBlock("complex block real parts must be isolated")
    return column_echelon(w, spec, tol).w_inf


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


def rational_approximation(x, qmax, tol=1e-12):
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


def rational_independence_gate(omegas, qmax=10**4, tol=1e-12):
    """Pairwise continued-fraction screen for rational frequency ratios.

    Each pair is screened in its larger-over-smaller orientation, so qmax
    bounds the denominator of the canonical ratio.  A witness (i, j, p, q)
    means omega[j]/omega[i] is within the gate tolerance of p/q.
    """
    om = [float(w) for w in omegas]
    if any(w <= 0.0 for w in om):
        raise ValueError("frequencies must be positive")
    witnesses = []
    for i in range(len(om)):
        for j in range(i + 1, len(om)):
            hi, lo = (i, j) if om[i] >= om[j] else (j, i)
            pq = rational_approximation(om[hi] / om[lo], qmax, tol)
            if pq is not None:
                witnesses.append((hi, lo, pq[1], pq[0]))
    return GateVerdict(independent=not witnesses, witnesses=tuple(witnesses))


# Upper limits on the resonant grid sizes, 90x to 500x the defaults: the
# inner integral, the outer grid, and the table of q rows by tau_panels
MAX_PANELS = 2**20
MAX_T_POINTS = 2**16
MAX_RESONANT_TABLE = 2**23


@dataclass(frozen=True)
class QuadConfig:
    tau_panels: int = 2880  # resonant inner integral
    t_points: int = 720  # resonant outer grid on [0, 2pi)

    def __post_init__(self):
        sizes = (self.tau_panels, self.t_points)
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in sizes):
            raise ValueError("quad sizes must be integers, got %r" % (sizes,))
        # the Richardson estimate halves tau_panels
        if not (2 <= self.tau_panels <= MAX_PANELS and 1 <= self.t_points <= MAX_T_POINTS):
            raise ValueError(
                "quad needs 2 <= tau_panels <= %d and 1 <= t_points <= %d" % (MAX_PANELS, MAX_T_POINTS)
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
    |J| = 1 are exact (0 and omega) with error 0.
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
    return SetValue(j, *_max_mean(params))


def angular_value_irrational(s, spec, override_gate=False):
    """Outer angular value of the flow for gated-independent frequencies:
    max over maximal admissible index sets of the torus mean."""
    sets = admissible_sets(s, spec, maximal_only=True)
    if not override_gate:
        witnesses = []
        for j in sets:
            if len(j) < 2:
                continue
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


def _resonant_l_values(omega1, p, q, rho1, rho2, ts, m):
    # L(t) = (1/(2 pi q)) \int_0^{2pi} sum_j max(E1(t+tau), E2(kappa(tau+2pi(j-1)))) dtau,
    # evaluated by the midpoint rule with m panels per 2 pi; the (2 pi q)^{-1}
    # folds into the mean.  The integrand has period pi q in the orbit time (E1
    # has period pi, E2(kappa .) period pi q/p), so for even m the m/2 midpoints
    # of [0, pi) in rows offset by pi j give the same mean at half the columns
    kappa = p / q
    omega2 = omega1 * kappa
    h = TWO_PI / m
    n = m // 2 if m % 2 == 0 else m
    tau = (np.arange(n) + 0.5) * h
    arg2 = kappa * (tau[None, :] + (n * h) * np.arange(q)[:, None])
    e2 = _espeed(arg2, omega2, rho2)
    c0, s0 = np.cos(tau), np.sin(tau)
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        # E1(t + tau) through the angle-addition formulas: no trig per t
        c = math.cos(t) * c0 - math.sin(t) * s0
        s = math.sin(t) * c0 + math.cos(t) * s0
        e1 = rho1 * omega1 / (c * c + rho1 * rho1 * s * s)
        out[i] = np.maximum(e1[None, :], e2).mean()
    return out


def angular_value_resonant_4d(omega1, p, q, rho1, rho2, quad=None):
    """Angular value for two 2x2 blocks with frequency ratio kappa = p/q:
    sup over t in [0, 2pi] of the q-term max-quadrature L(t).

    Returns the sup (after a x4 local refinement around the first coarse
    grid maximizer) together with the sampled line L on the coarse grid.
    """
    quad = quad or QuadConfig()
    if not (isinstance(p, (int, np.integer)) and isinstance(q, (int, np.integer))):
        raise ValueError("p and q must be integers")
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
    if math.gcd(int(p), int(q)) != 1:
        raise NotCoprime("p/q = %d/%d is not in lowest terms" % (p, q))
    if not (math.isfinite(omega1) and omega1 > 0.0):
        raise ValueError("omega1 must be positive and finite, got %r" % (omega1,))
    for r in (rho1, rho2):
        if not 0.0 < r <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
    p, q = int(p), int(q)
    if q * quad.tau_panels > MAX_RESONANT_TABLE:
        raise ValueError(
            "q * tau_panels = %d * %d exceeds %d" % (q, quad.tau_panels, MAX_RESONANT_TABLE)
        )
    nt = quad.t_points
    m = quad.tau_panels
    ts = np.arange(nt) * (TWO_PI / nt)
    # L(t + pi) = L(t) (for even nt) and L(2pi - t) = L(t): evaluate the first
    # point of each grid orbit of these maps and fill the line by indexing, so
    # argmax returns the first grid maximizer
    half = nt // 2 if nt % 2 == 0 else nt
    k = np.arange(nt)
    reps = _resonant_l_values(omega1, p, q, rho1, rho2, ts[: half // 2 + 1], m)
    ls = reps[np.minimum(k % half, -k % half)]
    k0 = int(np.argmax(ls))
    # x4 refinement around the coarse argmax
    fine = ts[k0] + (TWO_PI / nt) * (np.arange(-3, 4) / 4.0)
    fine = np.mod(fine, TWO_PI)
    fls = _resonant_l_values(omega1, p, q, rho1, rho2, fine, m)
    if fls.max() >= ls[k0]:
        t_star, v_star = float(fine[np.argmax(fls)]), float(fls.max())
    else:
        t_star, v_star = float(ts[k0]), float(ls[k0])
    v_half = _resonant_l_values(omega1, p, q, rho1, rho2, np.array([t_star]), m // 2)[0]
    return ResonantValue(
        value=v_star,
        t_argmax=t_star,
        error=abs(v_star - v_half) / 3.0,
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
