"""The batched search is the one-at-a-time search it replaced, bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_orthogonal

from angval import continuous, discrete, search
from angval.continuous import ContinuousSystem
from angval.discrete import DiscreteSystem
from angval.errors import StepUnstable
from angval.linalg import qr, rotation
from angval.search import REFINE_SCALE, TAIL_FRACTION, VARIANTS, SubspaceSearchConfig, _fold


def _sequential_search(evaluate, d, s, variant, horizon, times, config):
    """The loop that run_search batches: one basis per evaluation, every
    improvement accepted at once.  Returns the report's fields."""
    times = np.asarray(times)
    tail_mask = times >= horizon * TAIL_FRACTION
    if not np.any(tail_mask):
        tail_mask = np.zeros(len(times), dtype=bool)
        tail_mask[-1] = True
    rng = np.random.default_rng(config.seed)
    pool_bases, pool_vals = [], []
    for _ in range(config.candidates):
        b = qr(rng.standard_normal((d, s)))[0]
        pool_bases.append(b)
        pool_vals.append(evaluate(b))
    evaluations = len(pool_bases)

    def stat(vals):
        return _fold(variant, vals[None, tail_mask])

    best = int(np.argmax([stat(v) for v in pool_vals]))
    best_basis, best_vals = pool_bases[best], pool_vals[best]
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
                    vals = evaluate(q)
                    evaluations += 1
                    st = stat(vals)
                    if st > best_stat:
                        best_basis, best_vals, best_stat = q, vals, st
                        improved = True
        if not improved:
            scale *= 0.5
            if scale < 1e-10:
                break
    table = np.vstack(pool_vals + [best_vals])
    return {
        "value": _fold(variant, table[:, tail_mask]),
        "best_basis": best_basis,
        "tail_sup": float(best_vals[tail_mask].max()),
        "tail_inf": float(best_vals[tail_mask].min()),
        "candidates": len(table),
        "evaluations": evaluations,
    }


def _orth4():
    # a rotation by 0.9 and 0.4 in a seeded frame, as in the benchmark
    rng = np.random.default_rng(7)
    frame = random_orthogonal(rng, 4)
    blocks = np.zeros((4, 4))
    blocks[:2, :2], blocks[2:, 2:] = rotation(0.9), rotation(0.4)
    return DiscreteSystem.constant(frame @ blocks @ frame.T)


def _varying_2d(t):
    return np.array([[0.1 * math.sin(t), -1.0], [1.3, -0.2]])


# (module, estimator arguments after the config): the benchmark's three
# estimates, orth4 and model2d accepting often, a cycle of planes and a
# time-varying generator
_CASES = {
    "planar": (discrete, (DiscreteSystem.planar_rotation(0.6, 0.7), 1), (1000,), (6, 2)),
    "orth4": (discrete, (_orth4(), 2), (100,), (4, 1)),
    "cycle": (discrete, (DiscreteSystem.from_sequence(
        [np.eye(3) + 0.4 * m for m in np.random.default_rng(8).standard_normal((5, 3, 3))], cycle=True), 2),
        (64,), (3, 2)),
    "model2d": (continuous, (ContinuousSystem.model2d(1.0 / 3.0, 1.3), 1), (200.0, 0.1), (4, 1)),
    "varying": (continuous, (ContinuousSystem.time_varying(_varying_2d, 2), 1), (10.0, 0.05), (3, 2)),
}


def _estimate(name, variant, config):
    module, (sys, s), rest, _ = _CASES[name]
    if module is discrete:
        return discrete.estimate_angular_value(sys, s, variant, *rest, config)
    return continuous.estimate_angular_value_ct(sys, s, variant, *rest, config)


def _capture(monkeypatch, name):
    # the estimator's evaluate and search arguments, and the bases the
    # search evaluates
    module = _CASES[name][0]
    seen = {}

    def run_search(evaluate, **kwargs):
        seen.update(evaluate=evaluate, kwargs=kwargs, members=0)

        def counted(stack):
            seen["members"] += len(stack)
            return evaluate(stack)

        return search.run_search(counted, **kwargs)

    monkeypatch.setattr(module, "run_search", run_search)
    return seen


@pytest.mark.parametrize("name", sorted(_CASES))
def test_batched_search_is_the_sequential_search(monkeypatch, name):
    # value, witness, tail and counts bit for bit, over all four variants
    # and three seeds; the bases evaluated (the discarded speculative ones
    # too) are at most twice the sequential count
    seen = _capture(monkeypatch, name)
    candidates, rounds = _CASES[name][3]
    for variant in VARIANTS:
        for seed in (0, 1, 2):
            config = SubspaceSearchConfig(seed=seed, candidates=candidates, refine_rounds=rounds)
            rep = _estimate(name, variant, config)
            evaluate, kwargs = seen["evaluate"], seen["kwargs"]
            want = _sequential_search(lambda b: evaluate(b[None])[0], **kwargs)
            for field, value in want.items():
                assert np.array_equal(getattr(rep, field), value), (variant, seed, field)
            assert rep.evaluations <= seen["members"] <= 2 * rep.evaluations


def test_a_discarded_speculative_basis_that_raises_ends_nothing(monkeypatch):
    # orth4 accepts often, so batches hold bases that the sequential loop
    # never evaluates; each of them raises, and every batch holding one is
    # evaluated again one basis at a time, to the sequential report
    seen = _capture(monkeypatch, "orth4")
    _estimate("orth4", "sup-limsup", SubspaceSearchConfig(seed=1, candidates=4, refine_rounds=1))
    evaluate, kwargs = seen["evaluate"], seen["kwargs"]
    evaluated = set()
    want = _sequential_search(lambda b: evaluated.add(b.tobytes()) or evaluate(b[None])[0], **kwargs)
    poisoned = []

    def strict(stack):
        if any(b.tobytes() not in evaluated for b in stack):
            poisoned.append(len(stack))
            raise StepUnstable("a basis the sequential loop never evaluates")
        return evaluate(stack)

    rep = search.run_search(strict, **kwargs)
    assert poisoned, "no speculative basis was discarded"
    for field, value in want.items():
        assert np.array_equal(getattr(rep, field), value), field


def test_a_basis_the_sequential_loop_evaluates_raises_the_same(monkeypatch):
    # the fifth basis of the loop (the first refine trial) raises: the
    # batched search raises the same error, from that basis alone
    seen = _capture(monkeypatch, "orth4")
    _estimate("orth4", "sup-limsup", SubspaceSearchConfig(seed=1, candidates=4, refine_rounds=1))
    evaluate, kwargs = seen["evaluate"], seen["kwargs"]
    order = []
    _sequential_search(lambda b: order.append(b.tobytes()) or evaluate(b[None])[0], **kwargs)
    alone = []

    def failing(stack):
        if any(b.tobytes() == order[4] for b in stack):
            alone.append(len(stack))
            raise StepUnstable("basis 5")
        return evaluate(stack)

    with pytest.raises(StepUnstable, match="basis 5"):
        _sequential_search(lambda b: failing(b[None])[0], **kwargs)
    alone.clear()
    with pytest.raises(StepUnstable, match="basis 5"):
        search.run_search(failing, **kwargs)
    assert alone[-1] == 1


def test_a_large_pool_is_held_in_bounded_passes():
    # 5000 candidates at 100 steps: each pass carries at most _MAX_PASS
    # bases, so the peak holds the pool's bases and table (5000 x 3 floats
    # here) and one pass, not 5000 propagations
    sys = ContinuousSystem.model2d(0.5, 1.0)
    config = SubspaceSearchConfig(seed=0, candidates=5000, refine_rounds=0, sample_times=[0.5, 1.0])
    continuous.estimate_angular_value_ct(sys, 1, "sup-limsup", 1.0, 0.01, config)  # warm up
    tracemalloc.start()
    try:
        rep = continuous.estimate_angular_value_ct(sys, 1, "sup-limsup", 1.0, 0.01, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.evaluations == 5000 and rep.candidates == 5001
    assert peak < 10**6, "peak %d bytes" % peak
