"""Seeded multistart search over the Grassmannian shared by the discrete
and continuous angular value estimators.

A candidate subspace is scored by the Cesaro averages of its angle sum,
sampled on one shared grid of times.  All four limsup/liminf variants are
read off the same candidate-by-time table, which makes the partial order
between them hold by construction.  The search itself is deterministic
given the seed: Haar-like candidates from QR'd Gaussian matrices, then
coordinate-wise perturbation with geometric backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded

VARIANTS = ("sup-limsup", "sup-liminf", "limsup-sup", "liminf-sup")
# Upper limits: the default sample grid holds sample_count floats, which
# check_budget does not count, and under this cost cap every step count that
# passes check_budget stays below 2^53, where its integer casts are exact
MAX_SAMPLE_COUNT = 10**5
MAX_COST_CAP = 1e15


@dataclass(frozen=True)
class SubspaceSearchConfig:
    """Knobs of the estimator search; `seed` has no default on purpose."""

    seed: int
    candidates: int = 24
    refine_rounds: int = 10
    refine_scale: float = 0.3
    tail_fraction: float = 0.5
    sample_count: int = 48
    sample_times: Optional[Sequence] = None
    cost_cap: float = 5e7

    def __post_init__(self):
        for name, low in (("candidates", 1), ("refine_rounds", 0), ("sample_count", 1)):
            if getattr(self, name) < low:
                raise ValueError("%s must be at least %d, got %r" % (name, low, getattr(self, name)))
        if self.sample_count > MAX_SAMPLE_COUNT:
            raise ValueError("sample_count must be at most %d, got %r" % (MAX_SAMPLE_COUNT, self.sample_count))
        if not self.cost_cap <= MAX_COST_CAP:
            raise ValueError("cost_cap must be at most %g, got %r" % (MAX_COST_CAP, self.cost_cap))
        # no entry of an orthonormal basis exceeds 1, so a larger step only swamps it
        if not 0.0 < self.refine_scale <= 1.0:
            raise ValueError("refine_scale must be positive and at most 1, got %r" % (self.refine_scale,))
        if self.sample_times is not None and len(self.sample_times) == 0:
            raise ValueError("sample_times must not be empty")
        if not 0.0 <= self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must lie in [0, 1], got %r" % (self.tail_fraction,))


@dataclass(frozen=True)
class AngularValueReport:
    """Result of one estimate: value, witnesses, and the grid that produced it.

    For every variant the subspace part is a maximization, so the reported
    value is a lower bound for the corresponding supremum over the full
    Grassmannian (search_is_lower_bound).  tail_* fields describe the
    winning candidate's Cesaro averages over the tail window.
    """

    variant: str
    value: float
    horizon: float
    subspace_dim: int
    best_basis: np.ndarray
    tail_sup: float
    tail_inf: float
    candidates: int
    evaluations: int
    sample_times: np.ndarray
    seed: int
    search_is_lower_bound: bool = True


def _orthonormal(m):
    # QR with the signs of R's diagonal moved into Q, so Q depends on m only
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def haar_basis(rng, d, s):
    """Orthonormal basis drawn from the rotation-invariant distribution."""
    return _orthonormal(rng.standard_normal((d, s)))


def check_budget(d, s, config, steps_per_eval):
    """Refuse a search whose worst case exceeds the cost cap, before any work."""
    evals = config.candidates + config.refine_rounds * 2 * d * s
    if evals * steps_per_eval > config.cost_cap:
        raise BudgetExceeded(
            "search needs up to %d evaluations x %g steps > cost cap %g" % (evals, steps_per_eval, config.cost_cap)
        )


def default_sample_times(horizon, count, discrete):
    """Logarithmic sample of [1, horizon], always containing the endpoint."""
    if discrete:
        pts = np.unique(np.round(np.geomspace(1, horizon, count)).astype(int))
        return pts[pts >= 1]
    pts = np.unique(np.geomspace(horizon * 1e-3, horizon, count))
    return pts


def _variant_stat(variant, tail_vals):
    if variant in ("sup-limsup", "limsup-sup"):
        return float(np.max(tail_vals))
    return float(np.min(tail_vals))


def run_search(evaluate, d, s, variant, horizon, times, config):
    """Drive the candidate search and fold the table into the variant value.

    evaluate(basis) must return the Cesaro averages at the shared sample
    times (resolved by the caller, after its `check_budget`).
    """
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r, expected one of %s" % (variant, (VARIANTS,)))
    if not 1 <= s <= d:
        raise ValueError("s must lie in 1..%d for a %d-dimensional system, got %r" % (d, d, s))
    times = np.asarray(times)
    tail_mask = times >= horizon * config.tail_fraction
    if not np.any(tail_mask):
        tail_mask = np.zeros(len(times), dtype=bool)
        tail_mask[-1] = True
    rng = np.random.default_rng(config.seed)
    pool_bases = []
    pool_vals = []
    for _ in range(config.candidates):
        b = haar_basis(rng, d, s)
        pool_bases.append(b)
        pool_vals.append(np.asarray(evaluate(b)))
    evaluations = len(pool_bases)

    def stat(vals):
        return _variant_stat(variant, vals[tail_mask])

    best = int(np.argmax([stat(v) for v in pool_vals]))
    best_basis = pool_bases[best]
    best_vals = pool_vals[best]
    best_stat = stat(best_vals)
    scale = config.refine_scale
    for _ in range(config.refine_rounds):
        improved = False
        for i in range(d):
            for j in range(s):
                for sign in (1.0, -1.0):
                    trial = best_basis.copy()
                    trial[i, j] += sign * scale
                    q = _orthonormal(trial)
                    vals = np.asarray(evaluate(q))
                    evaluations += 1
                    st = stat(vals)
                    if st > best_stat:
                        best_basis, best_vals, best_stat = q, vals, st
                        improved = True
        if not improved:
            scale *= 0.5
            if scale < 1e-10:
                break
    pool_bases.append(best_basis)
    pool_vals.append(best_vals)
    table = np.vstack(pool_vals)  # (candidates, times)
    tail_table = table[:, tail_mask]
    if variant == "sup-limsup":
        value = float(tail_table.max())
    elif variant == "sup-liminf":
        value = float(tail_table.min(axis=1).max())
    elif variant == "limsup-sup":
        value = float(tail_table.max(axis=0).max())
    else:  # liminf-sup
        value = float(tail_table.max(axis=0).min())
    return AngularValueReport(
        variant=variant,
        value=value,
        horizon=float(horizon),
        subspace_dim=s,
        best_basis=best_basis,
        tail_sup=float(best_vals[tail_mask].max()),
        tail_inf=float(best_vals[tail_mask].min()),
        candidates=len(pool_bases),
        evaluations=evaluations,
        sample_times=times,
        seed=config.seed,
    )
