import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from angval.blocks import _MAX_BLOCK, _SEGMENT
from angval.continuous import (
    ContinuousSystem,
    _speeds,
    _step_powers,
    _varying_blocks,
    angular_integral,
    estimate_angular_value_ct,
    integral_from_trajectory,
    kinematic_transform_ct,
    propagate_subspace,
    trace_normalize,
)
from angval.errors import SingularMatrix, StepUnstable
from angval.grassmann import Subspace, max_angle, subspace_from_spanning
from angval.linalg import ComplexBlock, qr
from angval.search import SubspaceSearchConfig
from angval.smoothness import angle_derivative_flow

from conftest import haar_subspace, random_orthogonal


def _expm_subspace(a, t, v0):
    return subspace_from_spanning(expm(t * a) @ v0.basis)


def test_constant_propagation_matches_expm():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    v0 = haar_subspace(rng, 4, 2)
    traj = propagate_subspace(ContinuousSystem.from_constant(a), v0, 2.0, 1e-3)
    got = Subspace(traj.bases[-1])
    want = _expm_subspace(a, 2.0, v0)
    assert max_angle(got, want) < 1e-10


def test_propagation_is_fourth_order():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    v0 = haar_subspace(rng, 3, 1)
    sys = ContinuousSystem.from_constant(a)
    want = _expm_subspace(a, 1.0, v0)
    errs = []
    for h in (0.05, 0.025):
        traj = propagate_subspace(sys, v0, 1.0, h)
        errs.append(max_angle(Subspace(traj.bases[-1]), want))
    # halving h should shrink the error by about 2^4
    assert errs[1] < errs[0] / 10.0


def test_time_varying_propagation_matches_frozen_products():
    # reference: product of midpoint-frozen exponentials on a fine grid
    def gen(t):
        return np.array([[0.0, -1.0 - 0.5 * math.sin(t)], [1.0, 0.0]])

    sys = ContinuousSystem.time_varying(gen, 2)
    rng = np.random.default_rng(5)
    v0 = haar_subspace(rng, 2, 1)
    traj = propagate_subspace(sys, v0, 3.0, 1e-3)

    m = np.eye(2)
    n = 3000
    h = 3.0 / n
    for k in range(n):
        m = expm(h * gen((k + 0.5) * h)) @ m
    want = subspace_from_spanning(m @ v0.basis)
    assert max_angle(Subspace(traj.bases[-1]), want) < 1e-6


def test_integrand_matches_flow_derivative():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5))
    v0 = haar_subspace(rng, 5, 2)
    traj = propagate_subspace(ContinuousSystem.from_constant(a), v0, 1.0, 0.01)
    for k in (0, 17, 50, 100):
        direct = angle_derivative_flow(a, Subspace(traj.bases[k]))
        assert abs(traj.integrand[k] - direct) < 1e-12


def test_model2d_integral_over_line_period_is_pi():
    # direction field of the elliptic flow sweeps a half turn per line period
    omega = 0.7
    sys = ContinuousSystem.model2d(rho=0.4, omega=omega)
    v0 = Subspace(np.array([[1.0], [0.0]]))
    period = math.pi / omega
    val = angular_integral(sys, v0, 0.0, period, period / 4000)
    assert abs(val - math.pi) < 1e-8


def test_model2d_long_time_average_is_omega():
    omega = 1.3
    sys = ContinuousSystem.model2d(rho=0.25, omega=omega)
    v0 = Subspace(np.array([[0.0], [1.0]]))
    t_end = 40 * math.pi
    val = angular_integral(sys, v0, 0.0, t_end, 0.01) / t_end
    assert abs(val - omega) < 1e-2


def test_integral_window_additivity():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    sys = ContinuousSystem.from_constant(a)
    v0 = haar_subspace(rng, 3, 1)
    traj = propagate_subspace(sys, v0, 2.0, 1e-3)
    whole = integral_from_trajectory(traj, 0.0)
    first = whole - integral_from_trajectory(traj, 1.0)
    assert abs(first - angular_integral(sys, v0, 0.0, 1.0, 1e-3)) < 1e-12


def test_estimator_recovers_model2d_omega():
    omega = 0.9
    sys = ContinuousSystem.model2d(rho=1 / 3, omega=omega)
    cfg = SubspaceSearchConfig(seed=11, candidates=4, refine_rounds=2)
    rep = estimate_angular_value_ct(
        sys, s=1, variant="sup-limsup", horizon=50 * math.pi, step=0.01, config=cfg
    )
    assert abs(rep.value - omega) < 1e-2


def test_trace_normalize_keeps_integrand():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    sys = ContinuousSystem.from_constant(a)
    tn = trace_normalize(sys)
    assert abs(np.trace(tn.constant)) < 1e-12
    v0 = haar_subspace(rng, 4, 2)
    t1 = propagate_subspace(sys, v0, 1.0, 1e-3)
    t2 = propagate_subspace(tn, v0, 1.0, 1e-3)
    # same trajectory of subspaces, same angular speeds
    assert np.max(np.abs(t1.integrand - t2.integrand)) < 1e-9
    assert max_angle(Subspace(t1.bases[-1]), Subspace(t2.bases[-1])) < 1e-9


def test_kinematic_transform_relation():
    # constant A with Q(t) = exp(tG): transformed flow is exp(tG) exp(tA)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3))
    g = rng.standard_normal((3, 3))
    g = 0.5 * (g - g.T)
    sys = ContinuousSystem.from_constant(a)
    tsys = kinematic_transform_ct(sys, lambda t: expm(t * g), lambda t: g @ expm(t * g))
    v0 = haar_subspace(rng, 3, 1)
    traj = propagate_subspace(tsys, v0, 1.5, 1e-3)
    want = subspace_from_spanning(expm(1.5 * g) @ expm(1.5 * a) @ v0.basis)
    assert max_angle(Subspace(traj.bases[-1]), want) < 1e-7


def test_scalar_gauge_leaves_lines_in_place():
    # Q(t) = q(t) I only rescales solutions, so propagated subspaces and
    # angular speeds agree with the untransformed system
    a = np.array([[0.0, -2.0], [0.5, 0.0]])
    sys = ContinuousSystem.from_constant(a)
    tsys = kinematic_transform_ct(
        sys,
        lambda t: math.exp(0.3 * math.sin(t)) * np.eye(2),
        lambda t: 0.3 * math.cos(t) * math.exp(0.3 * math.sin(t)) * np.eye(2),
    )
    v0 = Subspace(np.array([[1.0], [0.0]]))
    t1 = propagate_subspace(sys, v0, 2.0, 1e-3)
    t2 = propagate_subspace(tsys, v0, 2.0, 1e-3)
    assert np.max(np.abs(t1.integrand - t2.integrand)) < 1e-6
    assert max_angle(Subspace(t1.bases[-1]), Subspace(t2.bases[-1])) < 1e-6


def test_step_instability_raises():
    def gen(t):
        return 1e120 * np.eye(2)

    sys = ContinuousSystem.time_varying(gen, 2)
    v0 = Subspace(np.array([[1.0], [0.0]]))
    with pytest.raises(StepUnstable):
        propagate_subspace(sys, v0, 10.0, 1.0)


@st.composite
def _generators(draw):
    """d in 2..6, a dense Gaussian generator or a block-diagonal one with
    real parts down to -50 in a random frame, and a starting subspace."""
    d = draw(st.integers(2, 6))
    s = draw(st.integers(1, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = draw(st.floats(0.1, 3.0)) * rng.standard_normal((d, d))
    else:
        blocks = [
            ComplexBlock(rng.uniform(-50.0, 1.0), rng.uniform(0.1, 5.0), rng.uniform(0.2, 1.0)).matrix()
            for _ in range(d // 2)
        ]
        blocks += [[[rng.uniform(-50.0, 1.0)]]] * (d % 2)
        frame = random_orthogonal(rng, d)
        a = frame @ block_diag(*blocks) @ frame.T
    return a, haar_subspace(rng, d, s)


def _stepwise(gen, h, b0, nsteps):
    """One-step RK4 with re-orthonormalization at every node: the reference
    the block path is pinned to.  Returns (bases, integrand)."""
    d, s = b0.shape
    integrand = np.empty(nsteps + 1)
    bases = np.empty((nsteps + 1, d, s))
    b = b0
    a = gen(0.0)
    for k in range(nsteps + 1):
        k1 = a @ b
        integrand[k] = _speeds(b, k1)
        bases[k] = b
        if k == nsteps:
            break
        t = k * h
        amid = gen(t + 0.5 * h)
        k2 = amid @ (b + (0.5 * h) * k1)
        k3 = amid @ (b + (0.5 * h) * k2)
        a = gen(t + h)
        k4 = a @ (b + h * k3)
        b = qr(b + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))[0]
    return bases, integrand


def _assert_matches_stepwise(sys, v0, h, nsteps):
    block = propagate_subspace(sys, v0, nsteps * h, h)
    with np.errstate(over="ignore", invalid="ignore"):
        bases, integrand = _stepwise(sys.matrix, block.times[1], v0.basis, nsteps)
    assert np.max(np.abs(block.integrand - integrand)) <= 1e-10
    assert max_angle(Subspace(block.bases[-1]), Subspace(bases[-1])) <= 1e-10


# a growth factor of 16 per step overflows 256 unscaled step powers
_GROWING = (150.0 * np.eye(2) + ComplexBlock(0.0, 1.0, 0.5).matrix(), Subspace(np.eye(2)[:, :1]))


@settings(max_examples=60)
@given(
    _generators(),
    st.floats(1e-3, 0.1),
    st.integers(1, 700),
    st.floats(0.0, 5.0),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)
@example(_GROWING, 0.02, 600, 1.0, 1.0, 0)
def test_block_path_matches_stepwise(gen, h, nsteps, omega, amplitude, seed):
    # the constant generator A, and A(t) = A + sin(omega t) B with a Gaussian
    # B scaled to the amplitude; with real parts down to -50 and h up to 0.1
    # both include stiff generators whose blocks are cut short
    a, v0 = gen
    d = a.shape[0]
    b = amplitude * np.random.default_rng(seed).standard_normal((d, d))
    _assert_matches_stepwise(ContinuousSystem.from_constant(a), v0, h, nsteps)
    _assert_matches_stepwise(ContinuousSystem.time_varying(lambda t: a + math.sin(omega * t) * b, d), v0, h, nsteps)


@pytest.mark.parametrize("t_end, h", [(7.3, 0.0123), (0.05, 0.02), (3.0, 1.0)])
def test_generator_call_times_match_stepwise(t_end, h):
    # one call at 0 and two per step, at the float times of one-step RK4, in
    # its order and never past t_end, also when stiff blocks are cut short
    a = block_diag(ComplexBlock(0.0, 1.0, 0.5).matrix(), ComplexBlock(-50.0, 1.0, 1.0).matrix())
    calls = []

    def gen(t):
        calls.append(t)
        return a

    sys = ContinuousSystem.time_varying(gen, 4)
    propagate_subspace(sys, Subspace(np.eye(4)[:, :2]), t_end, h)
    got, calls[:] = list(calls), []
    nsteps = max(int(round(t_end / h)), 1)
    _stepwise(gen, t_end / nsteps, np.eye(4)[:, :2], nsteps)
    assert got == calls
    assert len(got) == 2 * nsteps + 1


@pytest.mark.parametrize("s", [1, 2])
def test_kinematic_transform_matches_stepwise(s):
    # the benchmark's time-varying case: a two-block 4x4 flow with decay -1 on
    # the second block, seen through Q(t) = (1 + sin(t)/2) I, over 2500 steps
    a = block_diag(ComplexBlock(0.0, 1.1, 0.4).matrix(), ComplexBlock(-1.0, 0.7, 0.8).matrix())
    sys = kinematic_transform_ct(
        ContinuousSystem.from_constant(a),
        lambda t: (1.0 + 0.5 * math.sin(t)) * np.eye(4),
        lambda t: 0.5 * math.cos(t) * np.eye(4),
    )
    v0 = Subspace(np.eye(4)[:, [0, 2]][:, :s])
    block = propagate_subspace(sys, v0, 50.0, 0.02)
    bases, integrand = _stepwise(sys.matrix, 0.02, v0.basis, 2500)
    assert np.max(np.abs(block.integrand - integrand) / np.maximum(1.0, np.abs(integrand))) <= 1e-13
    assert np.max(np.abs(block.bases - bases)) <= 1e-12


@pytest.mark.parametrize("t_end, h", [(7.3, 0.0123), (0.05, 0.02), (3.0, 1.0)])
def test_batch_call_times_match_stepwise(t_end, h):
    # one `matrices` call at t = 0, a stack of one, then one per chunk of 256
    # steps; the times they are given, in order, are those of the scalar
    # path's calls
    a = block_diag(ComplexBlock(0.0, 1.0, 0.5).matrix(), ComplexBlock(-50.0, 1.0, 1.0).matrix())
    calls, batches = [], []

    def gen(t):
        calls.append(t)
        return a

    def matrices(times):
        batches.append(times.tolist())
        return np.broadcast_to(a, (len(times), 4, 4))

    sys = ContinuousSystem.time_varying(gen, 4)
    v0 = Subspace(np.eye(4)[:, :2])
    want = propagate_subspace(sys, v0, t_end, h)
    scalar_calls, calls[:] = list(calls), []
    got = propagate_subspace(dataclasses.replace(sys, matrices=matrices), v0, t_end, h)
    nsteps = max(int(round(t_end / h)), 1)
    assert len(batches) == 1 + -(-nsteps // _MAX_BLOCK)
    assert [t for times in batches[1:] for t in times] == scalar_calls[1:]
    assert batches[0] == [0.0] and calls == []
    assert np.array_equal(got.integrand, want.integrand) and np.array_equal(got.bases, want.bases)


@st.composite
def _gauges(draw):
    """A constant or time-varying A (d <= 5), a smooth Q(t) and its Qdot:
    q(t) I, or a diagonal, with every entry bounded away from 0; and a
    starting subspace of dimension 1 or 2."""
    d = draw(st.integers(2, 5))
    s = draw(st.integers(1, min(2, d - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.standard_normal((2, d, d))
    omega = rng.uniform(0.1, 3.0)
    if draw(st.booleans()):
        sys = ContinuousSystem.from_constant(a)
    else:
        sys = ContinuousSystem.time_varying(lambda t: a + math.sin(omega * t) * b, d)
    # entries c0 + c1 sin(w t + p) with |c1| <= |c0| / 2
    n = 1 if draw(st.booleans()) else d
    c0 = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    c1, w, p = 0.5 * np.abs(c0) * rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 3.0, n), rng.uniform(0.0, 6.0, n)

    def q_fn(t):
        return np.diag(np.broadcast_to(c0 + c1 * np.sin(w * t + p), d))

    def qdot_fn(t):
        return np.diag(np.broadcast_to(c1 * w * np.cos(w * t + p), d))

    return sys, q_fn, qdot_fn, haar_subspace(rng, d, s)


@settings(max_examples=40)
@given(_gauges(), st.floats(0.01, 0.1), st.integers(1, 600))
def test_batched_transforms_match_scalar_path(gauge, h, nsteps):
    # the stacked transform of a chunk of times gives the same bits as the
    # transform of each time on its own, through the scalar path
    sys, q_fn, qdot_fn, v0 = gauge
    kinematic = kinematic_transform_ct(sys, q_fn, qdot_fn)
    for tsys in (kinematic, trace_normalize(kinematic)):
        batched = propagate_subspace(tsys, v0, nsteps * h, h)
        scalar = propagate_subspace(ContinuousSystem.time_varying(tsys.matrix, tsys.dim), v0, nsteps * h, h)
        assert np.array_equal(batched.integrand, scalar.integrand)
        assert np.array_equal(batched.bases, scalar.bases)


def test_singular_gauge_raises():
    # Q(t) = diag(1, t - 1) is singular at the node t = 1
    sys = kinematic_transform_ct(
        ContinuousSystem.model2d(0.5, 1.0),
        lambda t: np.diag([1.0, t - 1.0]),
        lambda t: np.diag([0.0, 1.0]),
    )
    with pytest.raises(SingularMatrix, match="singular"):
        angular_integral(sys, Subspace(np.array([[1.0], [0.0]])), 0.0, 2.0, 0.5)


def test_block_length_shrinks_with_spectral_gap():
    rot = ComplexBlock(0.0, 1.0, 0.5).matrix()
    assert len(_step_powers(rot, 0.02, 10**6)) == 256
    assert len(_step_powers(rot, 0.02, 100)) == 100
    fast = ComplexBlock(-50.0, 1.0, 1.0).matrix()
    assert 1 < len(_step_powers(block_diag(rot, fast), 0.02, 10**6)) < 20


def test_varying_segments_halve_within_chunks():
    # each chunk of _MAX_BLOCK step maps is cut into segments of _SEGMENT,
    # identity-padded at the horizon; a stiff generator's segments fail the
    # condition test and each run of them is halved, never across chunks
    assert (_MAX_BLOCK, _SEGMENT) == (256, 16)
    rot = ComplexBlock(0.0, 1.0, 0.5).matrix()

    def layout(a):
        sys = ContinuousSystem.time_varying(lambda t: a + 0.3 * math.sin(t) * np.eye(4), 4)
        blocks = _varying_blocks(sys, 0.02, 600, a)
        return [(*prods.shape[:2], len(ends)) for prods, ends in blocks]

    assert layout(block_diag(rot, rot)) == [(16, 16, 256), (16, 16, 256), (6, 16, 88)]
    # the frozen twin's blocks are 9 steps long; the last 8 maps pass padded
    stiff = block_diag(rot, ComplexBlock(-50.0, 1.0, 1.0).matrix())
    assert layout(stiff) == [(32, 8, 256), (32, 8, 256), (10, 8, 80), (1, 16, 8)]


@pytest.mark.parametrize("s", [1, 2])
def test_constant_overflow_raises(s):
    sys = ContinuousSystem.from_constant(1e120 * np.eye(3))
    with pytest.raises(StepUnstable):
        propagate_subspace(sys, Subspace(np.eye(3)[:, :s]), 10.0, 1.0)


@pytest.mark.parametrize("constant", [True, False])
def test_annihilated_direction_raises(constant):
    # h * (eigenvalue pair of the leading block) is a complex root of the RK4
    # stability polynomial, so one RK4 step maps that block to zero and the
    # plane spanned by e1 and e3 collapses onto the line e3
    h = 0.1
    z = np.roots([1 / 24, 1 / 6, 1 / 2, 1.0, 1.0])[0] / h
    a = block_diag([[z.real, -z.imag], [z.imag, z.real]], [[0.0]])
    sys = ContinuousSystem.from_constant(a) if constant else ContinuousSystem.time_varying(lambda t: a, 3)
    with pytest.raises(StepUnstable):
        propagate_subspace(sys, Subspace(np.eye(3)[:, [0, 2]]), 1.0, h)


def test_bad_window_raises():
    sys = ContinuousSystem.model2d(0.5, 1.0)
    v0 = Subspace(np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        angular_integral(sys, v0, 2.0, 1.0, 0.1)


def test_estimator_is_deterministic():
    sys = ContinuousSystem.model2d(0.5, 1.0)
    cfg = SubspaceSearchConfig(seed=2, candidates=3, refine_rounds=1)
    r1 = estimate_angular_value_ct(sys, 1, "sup-limsup", 30.0, 0.01, cfg)
    r2 = estimate_angular_value_ct(sys, 1, "sup-limsup", 30.0, 0.01, cfg)
    assert r1.value == r2.value
    assert np.array_equal(r1.best_basis, r2.best_basis)
