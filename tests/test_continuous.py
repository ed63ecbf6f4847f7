import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from angval.continuous import (
    ContinuousSystem,
    _step_powers,
    angular_integral,
    estimate_angular_value_ct,
    integral_from_trajectory,
    kinematic_transform_ct,
    propagate_subspace,
    trace_normalize,
)
from angval.errors import StepUnstable
from angval.grassmann import Subspace, max_angle, subspace_from_spanning
from angval.linalg import ComplexBlock
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


# a growth factor of 16 per step overflows 256 unscaled step powers
_GROWING = (150.0 * np.eye(2) + ComplexBlock(0.0, 1.0, 0.5).matrix(), Subspace(np.eye(2)[:, :1]))


@settings(max_examples=60)
@given(_generators(), st.floats(1e-3, 0.1), st.integers(1, 700))
@example(_GROWING, 0.02, 600)
def test_block_path_matches_stepwise(gen, h, nsteps):
    a, v0 = gen
    block = propagate_subspace(ContinuousSystem.from_constant(a), v0, nsteps * h, h)
    steps = propagate_subspace(ContinuousSystem.time_varying(lambda t: a, a.shape[0]), v0, nsteps * h, h)
    assert np.max(np.abs(block.integrand - steps.integrand)) <= 1e-10
    assert max_angle(Subspace(block.bases[-1]), Subspace(steps.bases[-1])) <= 1e-10


def test_block_length_shrinks_with_spectral_gap():
    rot = ComplexBlock(0.0, 1.0, 0.5).matrix()
    assert len(_step_powers(rot, 0.02, 10**6)) == 256
    assert len(_step_powers(rot, 0.02, 100)) == 100
    fast = ComplexBlock(-50.0, 1.0, 1.0).matrix()
    assert 1 < len(_step_powers(block_diag(rot, fast), 0.02, 10**6)) < 20


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
