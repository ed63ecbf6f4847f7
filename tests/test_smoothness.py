import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import haar_subspace, random_orthogonal

from angval.errors import RankDeficient, SingularMatrix
from angval.grassmann import Subspace, coordinate_subspace
from angval.linalg import rotation
from angval.oracles import fd_angle_derivative
from angval.smoothness import (
    LIPSCHITZ_CONSTANT,
    BoundReport,
    CurvePoint,
    angle_derivative_flow,
    angle_derivative_right,
    check_angle_bound,
    check_lipschitz,
    check_near_identity,
    model2d_alpha,
    planar_angular_speed,
    tan_angle_bound_vectors,
)


def model2d_generator(rho, omega):
    return np.array([[0.0, -omega / rho], [rho * omega, 0.0]])


def random_curve(rng, d, s):
    w0 = haar_subspace(rng, d, s).basis
    wdot = rng.standard_normal((d, s))
    wdot /= np.linalg.norm(wdot, 2)
    return CurvePoint(w=w0, wdot=wdot)


def test_flow_derivative_elliptic_model():
    a = model2d_generator(rho=1.0 / 3.0, omega=1.0)
    v = coordinate_subspace(2, [0])
    assert angle_derivative_flow(a, v) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_flow_matches_curve_form_on_orthonormal_bases():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        s = int(rng.integers(1, d))
        v = haar_subspace(rng, d, s)
        a = rng.standard_normal((d, d))
        lhs = angle_derivative_flow(a, v)
        rhs = angle_derivative_right(CurvePoint(w=v.basis, wdot=a @ v.basis))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_finite_difference_consistency():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        s = int(rng.integers(1, d))
        p = random_curve(rng, d, s)
        formula = angle_derivative_right(p)
        for h in (1e-3, 1e-4, 1e-5):
            fd = fd_angle_derivative(p.w, p.wdot, h)
            assert abs(fd - formula) <= 10.0 * h


def test_basis_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d, s = 6, 3
        p = random_curve(rng, d, s)
        base = angle_derivative_right(p)
        g = rng.standard_normal((s, s)) + 3.0 * np.eye(s)
        # constant reparametrization W -> W G
        p_const = CurvePoint(w=p.w @ g, wdot=p.wdot @ g)
        assert angle_derivative_right(p_const) == pytest.approx(base, abs=1e-10)
        # time-dependent G(t) adds a tangential term W Gdot at t=0
        gdot = rng.standard_normal((s, s))
        p_var = CurvePoint(w=p.w @ g, wdot=p.wdot @ g + p.w @ gdot)
        assert angle_derivative_right(p_var) == pytest.approx(base, abs=1e-10)


def test_rank_deficient_curve_raises():
    w = np.zeros((4, 2))
    w[0, 0] = 1.0
    w[0, 1] = 1.0  # parallel columns
    with pytest.raises(RankDeficient):
        angle_derivative_right(CurvePoint(w=w, wdot=np.ones((4, 2))))


def test_trace_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = 5
        v = haar_subspace(rng, d, 2)
        a = rng.standard_normal((d, d))
        lam = float(rng.standard_normal())
        base = angle_derivative_flow(a, v)
        shifted = angle_derivative_flow(a + lam * np.eye(d), v)
        assert abs(base - shifted) <= 1e-12


def test_planar_speed_matches_flow_form():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        vec = rng.standard_normal(2)
        v = Subspace((vec / np.linalg.norm(vec)).reshape(2, 1))
        assert planar_angular_speed(a, vec) == pytest.approx(
            angle_derivative_flow(a, v), abs=1e-12
        )


def test_model2d_alpha_closed_form():
    rho, omega = 1.0 / 3.0, 1.0
    a = model2d_generator(rho, omega)
    v0 = np.array([1.0, 0.0])
    # alpha at tau equals the planar angular speed of the flowed direction
    for tau in np.linspace(0.0, 3.0, 13):
        flow = np.diag([1.0, rho]) @ rotation(omega * tau) @ np.diag([1.0, 1.0 / rho])
        vt = flow @ v0
        assert model2d_alpha(tau, v0, rho, omega) == pytest.approx(
            planar_angular_speed(a, vt), abs=1e-12
        )
    assert model2d_alpha(0.0, v0, rho, omega) == pytest.approx(rho * omega)


def test_model2d_alpha_period_average_is_omega():
    rng = np.random.default_rng(17)
    for rho, omega in [(1.0 / 3.0, 1.0), (0.7, 2.5), (0.05, 0.4)]:
        v0 = rng.standard_normal(2)
        period = math.pi / omega
        n = 4096
        taus = (np.arange(n) + 0.5) * period / n
        vals = np.array([model2d_alpha(t, v0, rho, omega) for t in taus])
        assert vals.mean() * period == pytest.approx(omega * period, rel=1e-10)


def test_angle_bound_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        s = int(rng.integers(1, d))
        v = haar_subspace(rng, d, s)
        w = haar_subspace(rng, d, s)
        s_mat = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        rep = check_angle_bound(s_mat, v, w)
        assert isinstance(rep, BoundReport)
        assert rep.satisfied
        assert rep.constants["kappa"] >= 1.0


def test_angle_bound_identity_map_is_tight_factor():
    rng = np.random.default_rng(23)
    v = haar_subspace(rng, 4, 2)
    w = haar_subspace(rng, 4, 2)
    rep = check_angle_bound(np.eye(4), v, w)
    assert rep.constants["kappa"] == pytest.approx(1.0)
    assert rep.lhs == pytest.approx(rep.bound / (2.0 * math.pi), abs=1e-10)


def test_angle_bound_singular_raises():
    v = coordinate_subspace(3, [0])
    w = coordinate_subspace(3, [1])
    s_mat = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularMatrix):
        check_angle_bound(s_mat, v, w)


def test_tan_bound_vectors():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        w = rng.standard_normal(d)
        v = rng.standard_normal(d)
        v *= 0.9 * np.linalg.norm(w) / np.linalg.norm(v) * rng.uniform(0.1, 1.0)
        rep = tan_angle_bound_vectors(v, w)
        assert rep.satisfied
    with pytest.raises(ValueError):
        tan_angle_bound_vectors(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_near_identity_bound():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        s = int(rng.integers(1, d))
        v = haar_subspace(rng, d, s)
        s_mat = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        rep = check_near_identity(s_mat, v)
        assert rep.satisfied
        if rep.constants["q"] < 1.0:
            assert math.isfinite(rep.bound)


def test_near_identity_exact_identity():
    rng = np.random.default_rng(37)
    v = haar_subspace(rng, 5, 2)
    rep = check_near_identity(np.eye(5), v)
    assert rep.constants["q"] == pytest.approx(0.0, abs=1e-14)
    assert rep.lhs <= 1e-12


def test_lipschitz_bound():
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        s = int(rng.integers(1, d))
        v = haar_subspace(rng, d, s)
        w = haar_subspace(rng, d, s)
        s_mat = np.eye(d) + rng.uniform(0.0, 0.5) * rng.standard_normal((d, d))
        try:
            rep = check_lipschitz(s_mat, v, w)
        except SingularMatrix:
            continue
        assert rep.satisfied
    assert LIPSCHITZ_CONSTANT == pytest.approx(math.pi / 2.0 + math.sqrt(math.pi**2 / 4.0 + 1.0))


def test_lipschitz_orthogonal_perturbation():
    # rotating V by a small orthogonal map moves the angle by at most C ||S - I||
    rng = np.random.default_rng(43)
    v = haar_subspace(rng, 4, 2)
    w = haar_subspace(rng, 4, 2)
    q = random_orthogonal(rng, 4)
    rep = check_lipschitz(q, v, w)
    assert rep.satisfied


def test_near_identity_reads_a_tiny_s_at_its_own_scale():
    # the rank rule is relative to sigma_max(SV), so S = 1e-20 I keeps V; the
    # test against max(sigma_max, 1) once refused it as a collapse
    v = haar_subspace(np.random.default_rng(47), 4, 2)
    rep = check_near_identity(1e-20 * np.eye(4), v)
    assert rep.constants["q"] == pytest.approx(1e20, rel=1e-12)
    assert rep.bound == math.inf and rep.satisfied
    assert rep.lhs <= 1e-15


def test_both_s_checks_refuse_by_the_rank_rule():
    # cond(S) = 1e12 lies beyond 1 / RANK_TOL: refused by both checks, which
    # once accepted it up to 1e14
    s_mat = np.diag([1.0, 1e-12, 1.0])
    v, w = coordinate_subspace(3, [0, 1]), coordinate_subspace(3, [1, 2])
    with pytest.raises(SingularMatrix, match="S is singular at working precision"):
        check_angle_bound(s_mat, v, w)
    with pytest.raises(SingularMatrix, match="S collapses V"):
        check_near_identity(s_mat, v)
    check_angle_bound(np.diag([1.0, 1e-9, 1.0]), v, w)
    check_near_identity(np.diag([1.0, 1e-9, 1.0]), v)


def test_three_s_checks_take_span_sv_by_one_rule():
    # sigma_min(S) = 1.2e-10 passes the rank rule: all three checks read S,
    # where the QR test against ||SV||_F once refused it in two of them with
    # RankDeficient; check_lipschitz refuses a collapsed SV as
    # check_near_identity does
    v = Subspace(np.eye(3))
    s_mat = np.diag([1.0, 1.2e-10, 1.0])
    for rep in (check_angle_bound(s_mat, v, v), check_near_identity(s_mat, v), check_lipschitz(s_mat, v, v)):
        assert rep.satisfied and rep.lhs <= 1e-15
    plane = coordinate_subspace(3, [0, 1])
    with pytest.raises(SingularMatrix, match="S collapses V"):
        check_lipschitz(np.diag([1.0, 1e-12, 1.0]), plane, plane)


def _refuses(check, *args):
    try:
        check(*args)
    except SingularMatrix:
        return True
    return False


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(-200, 200), st.sampled_from([0, 4, 8, 12, 16, 400]))
def test_near_identity_refusal_is_scale_invariant(seed, k, e):
    # S maps V onto SV with singular values from 1 down to 10^-e (0 at e = 400),
    # so SV is refused exactly when s >= 2 and e > 10, for S and 2^k S alike
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    s = int(rng.integers(1, d + 1))
    q2 = random_orthogonal(rng, d)
    v = Subspace(q2[:, :s])
    sigma = np.ones(d)
    sigma[:s] = np.logspace(0.0, -e, s)
    s_mat = (random_orthogonal(rng, d) * sigma) @ q2.T
    refused = _refuses(check_near_identity, s_mat, v)
    assert refused == (s >= 2 and e > 10)
    assert _refuses(check_near_identity, 2.0**k * s_mat, v) == refused


def _curve_point(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    s = int(rng.integers(1, d))
    return CurvePoint(w=rng.standard_normal((d, s)), wdot=rng.standard_normal((d, s)))


@settings(max_examples=100)
@given(st.builds(_curve_point, st.integers(0, 2**32 - 1)), st.integers(-200, 200))
# the part of Wdot inside span W overflowed when Wdot was whitened before
# the projection, so this pair was refused at 2^0 and read at 2^-1
@example(CurvePoint(w=np.array([[0.5], [0.0]]), wdot=np.array([[1e308], [1e-3]])), -1)
def test_derivative_is_scale_invariant(point, k):
    c = 2.0**k
    value = angle_derivative_right(point)
    scaled = angle_derivative_right(CurvePoint(w=c * point.w, wdot=c * point.wdot))
    assert scaled == pytest.approx(value, rel=1e-15, abs=0.0)
