"""Seeded multistart search over the Grassmannian shared by the discrete
and continuous angular value estimators.

A candidate subspace is scored by the Cesaro averages of its angle sum,
sampled on one shared grid of times.  All four limsup/liminf variants are
read off the same candidate-by-time table, which makes the partial order
between them hold by construction.  The search itself is deterministic
given the seed: Haar-like candidates from QR'd Gaussian matrices, then
coordinate-wise perturbation with geometric backoff, evaluated in batches
of one propagation pass each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AngvalError, BudgetExceeded
from .linalg import qr

VARIANTS = ("sup-limsup", "sup-liminf", "limsup-sup", "liminf-sup")
# The fixed schedule: the first refinement step (no entry of an orthonormal basis
# exceeds 1), the share of the horizon before the tail window, the default grid size
REFINE_SCALE = 0.3
TAIL_FRACTION = 0.5
SAMPLE_COUNT = 48
# under this cap every step count that passes check_budget is below 2^53, where casts are exact
MAX_COST_CAP = 1e15
_MAX_PASS = 32  # bases per propagation pass


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

    evaluate(stack) returns the (C, T) Cesaro averages at the shared sample
    times (resolved by the caller, after its `check_budget`) of each basis
    of a (C, d, s) stack, from one propagation pass.

    The report is the one-at-a-time loop's, bit for bit.  The pool is drawn
    in that loop's rng order and evaluated _MAX_PASS bases at a time.  The
    refine trials of a round are evaluated speculatively in (i, j, sign)
    order: the first improvement is accepted and the trials after it are
    perturbed again from the new best.  A batch holds 2 trials at the start
    of a round and after an accept and doubles after a batch without one,
    so the discarded trials never outnumber those before them: the work is
    at most twice the `evaluations` counted, one per trial of the loop,
    which `check_budget` charges.  A failing batch is re-run one at a time.
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

    def stat(vals):
        return _fold(variant, vals[None, tail_mask])

    def first_accept(stack, best_stat):
        # the values and stats of the bases of stack, up to the first whose
        # stat beats best_stat
        try:
            table = np.asarray(evaluate(stack))
        except AngvalError:  # a numerical failure of some basis of the stack
            if len(stack) == 1:
                raise
            table = None
        rows, stats = [], []
        for k, b in enumerate(stack):
            rows.append(np.asarray(evaluate(b[None]))[0] if table is None else table[k])
            stats.append(stat(rows[-1]))
            if stats[-1] > best_stat:
                break
        return rows, stats

    rng = np.random.default_rng(config.seed)
    pool_bases, pool_vals, pool_stats = [], [], []
    for k in range(0, config.candidates, _MAX_PASS):
        # Haar-distributed bases, drawn in the order of one at a time
        pool_bases.append(qr(rng.standard_normal((min(_MAX_PASS, config.candidates - k), d, s)))[0])
        rows, stats = first_accept(pool_bases[-1], np.inf)
        pool_vals.append(np.array(rows))
        pool_stats.extend(stats)
    pool_bases, pool_vals = np.concatenate(pool_bases), np.concatenate(pool_vals)
    evaluations = len(pool_bases)

    best = int(np.argmax(pool_stats))
    best_basis, best_vals, best_stat = pool_bases[best], pool_vals[best], pool_stats[best]
    scale = REFINE_SCALE
    for _ in range(config.refine_rounds):
        improved = False
        k, size = 0, 2
        while k < 2 * d * s:
            # trial t adds +-scale to entry (i, j) of the best basis, in
            # (i, j, sign) order with + first
            t = np.arange(k, min(k + size, 2 * d * s))
            trials = np.repeat(best_basis[None], len(t), axis=0)
            trials[np.arange(len(t)), t // (2 * s), t // 2 % s] += np.where(t % 2, -scale, scale)
            stack = qr(trials)[0]
            rows, stats = first_accept(stack, best_stat)
            evaluations += len(rows)
            k += len(rows)
            if stats[-1] > best_stat:
                best_basis, best_vals, best_stat = stack[len(rows) - 1], rows[-1], stats[-1]
                improved, size = True, 2
            else:
                size = min(2 * size, _MAX_PASS)
        if not improved:
            scale *= 0.5
            if scale < 1e-10:
                break
    table = np.vstack([pool_vals, best_vals])  # (candidates, times)
    return AngularValueReport(
        variant=variant,
        value=_fold(variant, table[:, tail_mask]),
        horizon=float(horizon),
        subspace_dim=s,
        best_basis=best_basis,
        tail_sup=float(best_vals[tail_mask].max()),
        tail_inf=float(best_vals[tail_mask].min()),
        candidates=len(table),
        evaluations=evaluations,
        sample_times=times,
        seed=config.seed,
    )
