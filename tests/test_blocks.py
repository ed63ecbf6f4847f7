"""One propagation pass over a stack of bases is each basis's own pass."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import haar_subspace, random_orthogonal

from angval import blocks, continuous, discrete
from angval.blocks import _BLOCK_COND, _conditioned, _running_sums
from angval.continuous import ContinuousSystem
from angval.discrete import DiscreteSystem, angle_sum, kinematic_transform
from angval.errors import SingularMatrix, StepUnstable
from angval.linalg import qr, singular_values


@st.composite
def _passes(draw):
    """(kind, system, horizon, step) and a (C, d, s) stack of bases with
    d <= 6, 1 <= s <= d and 1 <= C <= 5: a constant map, a cycle, a
    kinematic transform of a cycle, a cycle of maps whose singular values
    span 1..1e-4 (its segments fail the condition test and are halved), a
    constant generator or a time-varying one."""
    d = draw(st.integers(1, 6))
    s = draw(st.integers(1, d))
    c = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["constant", "cycle", "kinematic", "ill", "ct_constant", "ct_varying"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = np.eye(d) + 0.5 * rng.standard_normal((draw(st.integers(1, 8)), d, d))
    step = None
    if kind == "constant":
        sys = DiscreteSystem.constant(mats[0])
    elif kind == "ill":
        grades = np.diag(np.geomspace(1.0, 1e-4, d))
        ill = [random_orthogonal(rng, d) @ grades @ random_orthogonal(rng, d) for _ in mats]
        sys = DiscreteSystem.from_sequence(ill, cycle=True)
    elif kind in ("cycle", "kinematic"):
        sys = DiscreteSystem.from_sequence(list(mats), cycle=True)
        if kind == "kinematic":
            qs = np.eye(d) + 0.3 * rng.standard_normal((5, d, d))
            sys = kinematic_transform(sys, lambda n: qs[n % 5])
    else:
        step = draw(st.floats(0.02, 0.1))
        a = rng.standard_normal((d, d))
        if kind == "ct_constant":
            sys = ContinuousSystem.from_constant(a)
        else:
            sys = ContinuousSystem.time_varying(lambda t: a + math.sin(t) * mats[0], d)
    stack = qr(rng.standard_normal((c, d, s)))[0]
    return kind, sys, draw(st.integers(1, 600)), step, stack


def _sums(kind, sys, n, step, stack):
    # the sums (and, in continuous time, the increments) at every node
    if step is None:
        return (discrete._propagator(sys, n)(stack, np.arange(1, n + 1)),)
    return _running_sums(continuous._propagator(sys, step, n)(stack), np.arange(n + 1))


@settings(max_examples=80)
@given(_passes())
# the second line lies in the kernel of the map, the first does not
@example(("constant", DiscreteSystem.constant(np.diag([1.0, 0.0])), 5, None, np.eye(2)[:, :, None]))
def test_batched_pass_is_each_member_alone(case):
    # bit for bit: the members share the products and the stacked kernels,
    # and each member's rows get the bits of its own pass; a member whose
    # basis collapses fails the whole pass
    kind, sys, n, step, stack = case
    try:
        alone = [_sums(kind, sys, n, step, stack[k : k + 1]) for k in range(len(stack))]
    except (SingularMatrix, StepUnstable) as exc:
        with pytest.raises(type(exc)):
            _sums(kind, sys, n, step, stack)
        return
    together = _sums(kind, sys, n, step, stack)
    for k, rows in enumerate(alone):
        for got, want in zip(together, rows):
            assert np.array_equal(got[k : k + 1], want)


@pytest.mark.parametrize("d", range(1, 9))
def test_power_product_is_the_stacked_product(d):
    # _carry multiplies each member by the (B d, d) stack of a constant
    # system's powers in one matmul call; its rows are the B stacked (d, d)
    # products bit for bit, for every s and any member count.  One
    # (B d, d) x (d, C s) product is not at s = 1: there BLAS multiplies a
    # lone member by its matrix-vector kernel, which rounds differently
    rng = np.random.default_rng(d)
    for s in range(1, d + 1):
        for b in (1, 3, 16, 255):
            powers = rng.standard_normal((b, d, d))
            for c in (1, 2, 5):
                q = rng.standard_normal((c, d, s))
                got = (powers.reshape(-1, d) @ q).reshape(c, b, d, s)
                assert np.array_equal(got, np.stack([powers @ member for member in q]))


def _svd_mask(prods):
    # the condition test as an SVD of every finite member
    finite = np.all(np.isfinite(prods), axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    sigma = singular_values(prods[finite])
    with np.errstate(divide="ignore", invalid="ignore"):
        cond[finite] = sigma[:, 0] / sigma[:, -1]
    return cond <= _BLOCK_COND  # 0/0 is nan: a zero member fails too


def _member(rng, d, kind):
    """One (d, d) member: graded singular values from 1 down to 1/kappa with
    kappa log-uniform in [1, 1e8] or within 1e-12 relative of a band edge
    (1e4, and the bounds' margins 5e3 and 2e4), scaled to unit norm or by
    up to 1e+-200; or exactly singular (a zero row, or rank one), zero, or
    with a non-finite entry."""
    if kind in ("graded", "edge"):
        if kind == "graded":
            kappa = 10 ** rng.uniform(0, 8)
        else:
            kappa = rng.choice([_BLOCK_COND, _BLOCK_COND / 2, 2 * _BLOCK_COND]) * (1 + rng.uniform(-1e-12, 1e-12))
        sigma = np.concatenate([[1.0, 1.0 / kappa], 10 ** rng.uniform(-np.log10(kappa), 0, max(d - 2, 0))])[:d]
        m = random_orthogonal(rng, d) @ np.diag(sigma) @ random_orthogonal(rng, d)
        return m * (10 ** rng.uniform(-200, 200) if rng.random() < 0.5 else 1 / np.linalg.norm(m))
    m = rng.standard_normal((d, d))
    if kind == "zero row":
        m[rng.integers(d)] = 0.0
    elif kind == "rank one":
        m = np.outer(m[:, 0], m[0])
    elif kind == "zero":
        m[:] = 0.0
    elif kind == "non-finite":
        m[rng.integers(d), rng.integers(d)] = rng.choice([np.inf, -np.inf, np.nan])
    return m


@st.composite
def _stacks(draw):
    """A stack of members, shaped (n, d, d) or (K, size, d, d), d <= 8."""
    d, k, size = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    # graded members are listed twice: most products of a run are regular
    kinds = st.sampled_from(["graded", "graded", "edge", "zero row", "rank one", "zero", "non-finite"])
    kinds = draw(st.lists(kinds, min_size=k * size, max_size=k * size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.array([_member(rng, d, kind) for kind in kinds])
    return stack.reshape(k, size, d, d) if draw(st.booleans()) else stack


@settings(max_examples=300)
@given(_stacks())
def test_condition_mask_is_the_svds(prods):
    # the determinant bounds decide only members an SVD would decide the
    # same way, with no numpy warning (the suite raises them)
    assert np.array_equal(_conditioned(prods), _svd_mask(prods))


def test_well_conditioned_products_take_no_svd(monkeypatch):
    # the benchmark's constant orthogonal 6x6 map at s = 3 and its period-8
    # cycle of 3x3 maps with singular values in [0.5, 2] at s = 2: the upper
    # bound passes every power and product, and no member reaches the SVD
    members = []
    monkeypatch.setattr(blocks, "singular_values", lambda p: members.append(len(p)) or singular_values(p))
    rng = np.random.default_rng(5)
    angle_sum(DiscreteSystem.constant(random_orthogonal(rng, 6)), haar_subspace(rng, 6, 3), 1, 200)
    mats = [random_orthogonal(rng, 3) @ np.diag(rng.uniform(0.5, 2.0, 3)) @ random_orthogonal(rng, 3).T for _ in range(8)]
    angle_sum(DiscreteSystem.from_sequence(mats, cycle=True), haar_subspace(rng, 3, 2), 1, 500)
    assert sum(members) == 0
