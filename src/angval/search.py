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
from .linalg import qr

VARIANTS = ("sup-limsup", "sup-liminf", "limsup-sup", "liminf-sup")
# The fixed schedule: the first refinement step (no entry of an orthonormal basis
# exceeds 1), the share of the horizon before the tail window, the default grid size
REFINE_SCALE = 0.3
TAIL_FRACTION = 0.5
SAMPLE_COUNT = 48
# under this cap every step count that passes check_budget is below 2^53, where casts are exact
MAX_COST_CAP = 1e15


@dataclass(frozen=True)
class SubspaceSearchConfig:
    """Knobs of the estimator search; `seed` has no default on purpose."""

    seed: int
    candidates: int = 24
    refine_rounds: int = 10
    sample_times: Optional[Sequence] = None
    cost_cap: float = 5e7

    def __post_init__(self):
        for name, low in (("candidates", 1), ("refine_rounds", 0)):
            if getattr(self, name) < low:
                raise ValueError("%s must be at least %d, got %r" % (name, low, getattr(self, name)))
        if not self.cost_cap <= MAX_COST_CAP:
            raise ValueError("cost_cap must be at most %g, got %r" % (MAX_COST_CAP, self.cost_cap))
        if self.sample_times is not None and len(self.sample_times) == 0:
            raise ValueError("sample_times must not be empty")


@dataclass(frozen=True)
class AngularValueReport:
    """Result of one estimate: value, witnesses, and the grid that produced it.

    For every variant the subspace part is a maximization, so the reported
    value is a lower bound for the corresponding supremum over the full
    Grassmannian (search_is_lower_bound).  tail_* fields describe the
    winning candidate's Cesaro averages over the tail window, the samples
    from horizon * TAIL_FRACTION on.
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


def haar_basis(rng, d, s):
    """Orthonormal basis drawn from the rotation-invariant distribution."""
    return qr(rng.standard_normal((d, s)))[0]


def check_budget(d, s, config, steps_per_eval):
    """Refuse a search whose worst case exceeds the cost cap, before any work."""
    # in floats, which %g prints at any size; every evaluation takes at least
    # one step, and refusing a count above the cap first keeps the product finite
    evals = float(config.candidates) + float(config.refine_rounds) * 2 * d * s
    if evals > config.cost_cap or evals * steps_per_eval > config.cost_cap:
        raise BudgetExceeded(
            "search needs up to %g evaluations x %g steps > cost cap %g" % (evals, steps_per_eval, config.cost_cap)
        )


def default_sample_times(horizon, discrete):
    """Logarithmic sample of [1, horizon], always containing the endpoint."""
    if discrete:
        pts = np.unique(np.round(np.geomspace(1, horizon, SAMPLE_COUNT)).astype(int))
        return pts[pts >= 1]
    return np.unique(np.geomspace(horizon * 1e-3, horizon, SAMPLE_COUNT))


def _fold(variant, tail_table):
    # the variant value of a (candidates, times) table of tail averages
    if variant == "sup-limsup":
        return float(tail_table.max())
    if variant == "sup-liminf":
        return float(tail_table.min(axis=1).max())
    if variant == "limsup-sup":
        return float(tail_table.max(axis=0).max())
    return float(tail_table.max(axis=0).min())  # liminf-sup


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
    tail_mask = times >= horizon * TAIL_FRACTION
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
        return _fold(variant, vals[None, tail_mask])

    best = int(np.argmax([stat(v) for v in pool_vals]))
    best_basis = pool_bases[best]
    best_vals = pool_vals[best]
    best_stat = stat(best_vals)
    scale = REFINE_SCALE
    for _ in range(config.refine_rounds):
        improved = False
        for i in range(d):
            for j in range(s):
                for sign in (1.0, -1.0):
                    trial = best_basis.copy()
                    trial[i, j] += sign * scale
                    q = qr(trial)[0]
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
    return AngularValueReport(
        variant=variant,
        value=_fold(variant, table[:, tail_mask]),
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
