"""The one system interface of both time classes: `matrices`, the stack of a
system's matrices at an array of times (floats) or steps (ints), and the
inputs every system constructor and propagation entry refuses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angval.continuous import (
    ContinuousSystem,
    angular_integral,
    kinematic_transform_ct,
    propagate_subspace,
    trace_normalize,
)
from angval.discrete import DiscreteSystem, _propagator, angle_sum, kinematic_transform, solution_operator
from angval.errors import DimensionMismatch, SingularMatrix, StepUnstable
from angval.grassmann import Subspace
from angval.linalg import rotation, square_matrix
from angval.oracles import birkhoff_average

from conftest import haar_subspace

_CONTINUOUS = ["from_constant", "time_varying", "model2d", "kinematic_transform_ct", "trace_normalize"]
_DISCRETE = ["constant", "planar_rotation", "from_sequence", "cycle", "kinematic_transform"]


@st.composite
def _systems(draw):
    """(system, times): a system of each constructor with d in 2..4, and 1..300
    times in any order, repeats allowed: floats in [-5, 50] for a continuous
    system, steps for a discrete one (in 0..len-1 for a sequence, any in
    -600..600 otherwise)."""
    kind = draw(st.sampled_from(_CONTINUOUS + _DISCRETE))
    d = 2 if kind in ("model2d", "planar_rotation") else draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.standard_normal((2, d, d))
    n = draw(st.integers(1, 300))
    varying = ContinuousSystem.time_varying(lambda t: a + math.sin(1.3 * t) * b, d)
    if kind in _CONTINUOUS:
        base = ContinuousSystem.from_constant(a) if draw(st.booleans()) else varying
        c = rng.uniform(0.5, 2.0, d)
        kinematic = kinematic_transform_ct(
            base, lambda t: np.diag(c + 0.25 * c * math.sin(t)), lambda t: np.diag(0.25 * c * math.cos(t))
        )
        sys = {
            "from_constant": ContinuousSystem.from_constant(a),
            "time_varying": varying,
            "model2d": ContinuousSystem.model2d(rng.uniform(0.1, 1.0), rng.uniform(0.1, 3.0)),
            "kinematic_transform_ct": kinematic,
            "trace_normalize": trace_normalize(kinematic if draw(st.booleans()) else base),
        }[kind]
        return sys, rng.uniform(-5.0, 50.0, n)
    mats = list(np.eye(d) + 0.4 * rng.standard_normal((draw(st.integers(1, 8)), d, d)))
    qs = np.eye(d) + 0.3 * rng.standard_normal((5, d, d))
    cycle = DiscreteSystem.from_sequence(mats, cycle=True)
    sys = {
        "constant": DiscreteSystem.constant(a),
        "planar_rotation": DiscreteSystem.planar_rotation(rng.uniform(0.1, 1.0), rng.uniform(0.0, 3.0)),
        "from_sequence": DiscreteSystem.from_sequence(mats),
        "cycle": cycle,
        "kinematic_transform": kinematic_transform(
            cycle if draw(st.booleans()) else DiscreteSystem.constant(a), lambda k: qs[k % 5]
        ),
    }[kind]
    top = len(mats) - 1 if kind == "from_sequence" else 600
    return sys, rng.integers(0 if kind == "from_sequence" else -top, top + 1, n)


@settings(max_examples=200)
@given(_systems())
def test_matrices_is_the_stack_of_matrix(case):
    # every constructor's stack at an array of times has the bits of the
    # matrices at those times one at a time
    sys, times = case
    got = sys.matrices(times)
    assert got.shape == (len(times), sys.dim, sys.dim)
    assert np.array_equal(got, np.array([sys.matrix(t) for t in times]))


def _per_map_kinematic(sys, q_seq):
    """The discrete kinematic transform one map at a time: one solve per step."""

    def gen(n):
        qn1, qn = np.asarray(q_seq(n + 1), dtype=float), np.asarray(q_seq(n), dtype=float)
        return np.linalg.solve(qn.T, (qn1 @ sys.matrix(n)).T).T

    return DiscreteSystem(lambda ns: np.array([gen(n) for n in ns.tolist()]), sys.dim)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("constant", [True, False])
def test_stacked_kinematic_transform_matches_per_map_solves(constant, s):
    # the stacked product and solve of a chunk give the bits of one solve per
    # map, so every angle sum over 700 steps (three chunks) is the same
    rng = np.random.default_rng(29)
    if constant:
        sys = DiscreteSystem.constant(np.eye(3) + 0.4 * rng.standard_normal((3, 3)))
    else:
        sys = DiscreteSystem.from_sequence(list(np.eye(3) + 0.4 * rng.standard_normal((8, 3, 3))), cycle=True)
    qs = np.eye(3) + 0.3 * rng.standard_normal((5, 3, 3))

    def q_seq(n):
        return (1.0 + 0.5 * math.sin(n)) * qs[n % 5]

    stacked, per_map = kinematic_transform(sys, q_seq), _per_map_kinematic(sys, q_seq)
    assert np.array_equal(stacked.matrices(np.arange(700)), per_map.matrices(np.arange(700)))
    b0, times = haar_subspace(rng, 3, s).basis, np.arange(1, 701)
    assert np.array_equal(_propagator(stacked, 700)(b0[None], times), _propagator(per_map, 700)(b0[None], times))


def test_singular_discrete_gauge_names_its_steps():
    # Q_5 = diag(1, 0) is singular; the chunk of steps 0..9 is one solve
    sys = kinematic_transform(DiscreteSystem.planar_rotation(0.5, 0.3), lambda n: np.diag([1.0, n - 5.0]))
    with pytest.raises(SingularMatrix, match="steps 0 to 9"):
        angle_sum(sys, Subspace(np.eye(2)[:, :1]), 1, 10)


def test_sequence_refuses_steps_outside_it():
    i = np.eye(2)
    seq = DiscreteSystem.from_sequence([i, 2.0 * i])
    with pytest.raises(ValueError, match="a sequence of 2 matrices has no step 2"):
        angle_sum(seq, Subspace(i[:, :1]), 1, 5)
    with pytest.raises(ValueError, match="no step 2"):
        solution_operator(seq, 3, 0)
    # -1 no longer wraps to the last matrix, which returned its inverse
    with pytest.raises(ValueError, match="no step -1"):
        solution_operator(DiscreteSystem.from_sequence([rotation(0.3), 2.0 * i]), -1, 0)
    assert np.array_equal(solution_operator(seq, 2, 0), 2.0 * i)
    # a cycle has every step
    assert np.array_equal(DiscreteSystem.from_sequence([i, 2.0 * i], cycle=True).matrix(-1), 2.0 * i)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        square_matrix,
        ContinuousSystem.from_constant,
        DiscreteSystem.constant,
        lambda a: DiscreteSystem.from_sequence([np.eye(2), a], cycle=True),
        lambda a: ContinuousSystem.model2d(0.5, a[0][0]),
    ],
)
def test_system_matrices_must_be_finite(build, bad):
    # bad input (ValueError, exit 2), not a numerical failure downstream
    with pytest.raises(ValueError, match="finite"):
        build([[bad, 0.0], [0.0, 1.0]])


def test_overflowing_parameters_fail_in_propagation():
    # finite parameters whose matrix overflows are a numerical failure
    # (exit 3), as before matrices were checked, not bad input
    line = Subspace(np.eye(2)[:, :1])
    with pytest.raises(SingularMatrix):
        angle_sum(DiscreteSystem.planar_rotation(1e-320, 0.7), line, 1, 10)
    with pytest.raises(StepUnstable):
        angular_integral(ContinuousSystem.model2d(0.5, 1e308), line, 0.0, 1.0, 0.5)


_PLANE, _CUBE = np.eye(2)[:, :1], np.eye(3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: angle_sum(DiscreteSystem.constant(_CUBE), Subspace(_PLANE), 1, 5),
        lambda: propagate_subspace(ContinuousSystem.from_constant(_CUBE), Subspace(_PLANE), 1.0, 0.1),
        lambda: angular_integral(ContinuousSystem.from_constant(_CUBE), Subspace(_PLANE), 0.0, 1.0, 0.1),
        lambda: birkhoff_average(DiscreteSystem.constant(_CUBE), Subspace(_PLANE), 5),
        lambda: birkhoff_average(ContinuousSystem.from_constant(_CUBE), _PLANE, 1.0, step=0.1),
    ],
)
def test_basis_and_system_dimensions_must_match(call):
    with pytest.raises(DimensionMismatch, match=r"R\^2 but the system acts on R\^3"):
        call()
