"""One propagation pass over a stack of bases is each basis's own pass."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal

from angval import continuous, discrete
from angval.blocks import _running_sums
from angval.continuous import ContinuousSystem
from angval.discrete import DiscreteSystem, kinematic_transform
from angval.errors import SingularMatrix, StepUnstable
from angval.linalg import qr


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
