import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from angval import autonomous, oracles
from angval.autonomous import (
    MAX_ORDER,
    MAX_SPEED,
    MIN_RHO,
    T_POINTS,
    SchurSpec,
    admissible_sets,
    angular_value_irrational,
    angular_value_resonant_4d,
    column_echelon,
    ellipse_speed,
    integral_for_set,
    rational_approximation,
    rational_independence_gate,
    resonant_line,
    symmetry_check,
    w_infinity,
)
from angval.cli import main
from angval.continuous import angular_integral
from angval.errors import (
    InvalidBlock,
    NotCoprime,
    RankDeficient,
    RationalityDetected,
)
from angval.grassmann import Subspace, metric_d2, subspace_from_spanning
from angval.linalg import ComplexBlock, RealBlock

SQRT2 = math.sqrt(2.0)


def a4_spec(omega2=1 / SQRT2, rho1=1 / 3, rho2=1 / 4):
    # two spiral blocks; real parts chosen decreasing so the ordering
    # invariant holds and the plateaus are trivial
    return SchurSpec(
        (
            ComplexBlock(beta=0.0, omega=1.0, rho=rho1),
            ComplexBlock(beta=-1.0, omega=omega2, rho=rho2),
        )
    )


def e(i, d=4):
    v = np.zeros((d, 1))
    v[i, 0] = 1.0
    return v


# ---------------------------------------------------------------- SchurSpec


def test_spec_assembly_and_flow():
    spec = SchurSpec((ComplexBlock(0.5, 2.0, 0.3), RealBlock(-1.0)))
    assert spec.dim == 3
    assert spec.complex_labels == (1,)
    a = spec.matrix()
    assert np.allclose(a[:2, :2], [[0.5, -2.0 / 0.3], [0.6, 0.5]])
    assert a[2, 2] == -1.0
    for t in (0.0, 0.37, 2.0):
        assert np.max(np.abs(spec.flow(t) - expm(t * a))) < 1e-10


def test_spec_rejects_increasing_real_parts():
    with pytest.raises(InvalidBlock):
        SchurSpec((RealBlock(0.0), ComplexBlock(1.0, 1.0, 0.5)))


def test_isolated_real_parts_flag():
    assert a4_spec().has_isolated_real_parts()
    shared = SchurSpec((RealBlock(0.0), ComplexBlock(0.0, 1.0, 0.5)))
    assert not shared.has_isolated_real_parts()


# ----------------------------------------------------------- echelon / Winf


def test_echelon_pivot_widths_on_coordinate_planes():
    spec = a4_spec()
    ech = column_echelon(e(0), spec)
    assert ech.pivots == (0,) and ech.widths == (1,)

    ech = column_echelon(np.hstack([e(0), e(1)]), spec)
    assert ech.pivots == (0,) and ech.widths == (2,)

    ech = column_echelon(np.hstack([e(0), e(2)]), spec)
    assert ech.pivots == (0, 1) and ech.widths == (1, 1)


def test_echelon_invariant_under_column_mixing():
    rng = np.random.default_rng(0)
    spec = a4_spec()
    w = rng.standard_normal((4, 2))
    ref = column_echelon(w, spec)
    for _ in range(5):
        g = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        ech = column_echelon(w @ g, spec)
        assert ech.pivots == ref.pivots and ech.widths == ref.widths


def test_echelon_preserves_span():
    rng = np.random.default_rng(1)
    spec = SchurSpec(
        (ComplexBlock(1.0, 1.0, 0.5), RealBlock(0.0), ComplexBlock(-1.0, 2.0, 0.9))
    )
    w = rng.standard_normal((5, 3))
    ech = column_echelon(w, spec)
    v = subspace_from_spanning(w)
    u = subspace_from_spanning(ech.echelon)
    assert metric_d2(v, u) < 1e-9


@pytest.mark.parametrize("exp", [-600, 600])
def test_echelon_is_invariant_under_scaling(exp):
    # the rank test is relative to ||W||_F: a tiny basis is not rank
    # deficient, and a huge one does not overflow the norm
    rng = np.random.default_rng(2)
    spec = a4_spec()
    for w in (e(0), np.hstack([e(0), e(1)]), np.hstack([e(0), e(2)]), np.hstack([e(2), e(3)]),
              rng.standard_normal((4, 2)), np.hstack([e(0) + 1e-12 * e(2), e(2)])):
        ref = column_echelon(w, spec)
        ech = column_echelon(np.ldexp(w, exp), spec)
        assert ech.pivots == ref.pivots and ech.widths == ref.widths
        assert metric_d2(subspace_from_spanning(ref.echelon), subspace_from_spanning(ech.echelon)) < 1e-12


def test_echelon_rank_deficient():
    spec = a4_spec()
    w = np.hstack([e(0), e(0)])
    with pytest.raises(RankDeficient):
        column_echelon(w, spec)


def test_w_infinity_keeps_plateau_supported_basis():
    spec = a4_spec()
    w = np.hstack([e(0), e(2)])
    assert np.allclose(w_infinity(w, spec), w)


def test_w_infinity_real_plateau_kept_in_full():
    spec = SchurSpec((RealBlock(1.0), RealBlock(1.0), ComplexBlock(0.0, 1.0, 0.5)))
    w = np.array([[1.0], [1.0], [0.0], [0.0]])
    assert np.allclose(w_infinity(w, spec), w)


def test_w_infinity_requires_isolated_real_parts():
    spec = SchurSpec((RealBlock(0.0), ComplexBlock(0.0, 1.0, 0.5)))
    with pytest.raises(InvalidBlock):
        w_infinity(np.eye(3)[:, :1], spec)


def test_w_infinity_decay_of_projector_distance():
    # d2(e^{tA}V, e^{tA}Vinf) should decay like e^{-t} for the gap-1 spec
    rng = np.random.default_rng(2)
    spec = a4_spec()
    w = rng.standard_normal((4, 2))
    winf = w_infinity(w, spec)
    ts = np.linspace(0.0, 20.0, 41)
    dists = []
    for t in ts:
        f = spec.flow(t)
        dists.append(
            metric_d2(subspace_from_spanning(f @ w), subspace_from_spanning(f @ winf))
        )
    dists = np.array(dists)
    assert dists[-1] < 1e-6
    mask = dists > 1e-10
    slope = np.polyfit(ts[mask], np.log(dists[mask]), 1)[0]
    assert slope < -0.8


# ------------------------------------------------------------- admissibles


def test_admissible_sets_match_known_4d_listing():
    spec = a4_spec()
    assert admissible_sets(1, spec) == [(1,), (2,)]
    assert admissible_sets(2, spec, maximal_only=True) == [(1, 2)]
    assert admissible_sets(3, spec) == [(1,), (2,)]
    # the unfiltered s=2 family also contains the trivial set
    assert admissible_sets(2, spec) == [(), (1, 2)]


def _all_specs_up_to(dmax):
    # every real/complex block pattern with total dimension <= dmax
    for k in range(1, dmax + 1):
        for kinds in itertools.product((1, 2), repeat=k):
            if sum(kinds) > dmax:
                continue
            blocks = []
            for i, dim in enumerate(kinds):
                beta = float(-i)
                if dim == 1:
                    blocks.append(RealBlock(beta))
                else:
                    blocks.append(ComplexBlock(beta, 1.0 + i, 0.5))
            yield SchurSpec(tuple(blocks))


def test_admissible_sets_complement_symmetry_exhaustive():
    for spec in _all_specs_up_to(8):
        d = spec.dim
        for s in range(1, d):
            assert admissible_sets(s, spec) == admissible_sets(d - s, spec)


# ------------------------------------------------------------ ellipse speed


def test_ellipse_speed_values():
    blk = ComplexBlock(0.0, 0.8, 0.25)
    assert abs(ellipse_speed(0.0, blk) - 0.25 * 0.8) < 1e-15
    assert abs(ellipse_speed(math.pi / 2, blk) - 0.8 / 0.25) < 1e-12
    tau = np.linspace(0, 3, 17)
    assert np.max(np.abs(ellipse_speed(tau, blk) - ellipse_speed(tau + math.pi, blk))) < 1e-12
    flat = ComplexBlock(0.0, 0.8, 1.0)
    assert np.max(np.abs(ellipse_speed(tau, flat) - 0.8)) < 1e-15


def test_ellipse_speed_mean_is_omega():
    mid = (np.arange(2048) + 0.5) * (math.pi / 2048)
    for rho in (1.0, 0.5, 0.1):
        blk = ComplexBlock(0.0, 1.3, rho)
        assert abs(float(ellipse_speed(mid, blk).mean()) - 1.3) < 1e-8


def test_ellipse_speed_rejects_real_block():
    with pytest.raises(InvalidBlock):
        ellipse_speed(0.0, RealBlock(1.0))


# -------------------------------------------------------------------- gate


def test_gate_detects_simple_ratio():
    verdict = rational_independence_gate([1.0, 0.5])
    assert not verdict.independent
    assert verdict.witnesses == ((0, 1, 1, 2),)


def test_gate_passes_sqrt2_ratio():
    assert rational_independence_gate([1.0, 1 / SQRT2]).independent
    assert rational_independence_gate([1.0, 1 / SQRT2], qmax=10**6).independent


def test_gate_single_frequency_independent():
    assert rational_independence_gate([0.7]).independent


def test_rational_approximation_recovers_fractions():
    assert rational_approximation(float(3) / 7, qmax=20, tol=1e-9) == (3, 7)
    assert rational_approximation(1 / SQRT2, qmax=20, tol=1e-9) is None


def test_rationality_error_carries_witnesses():
    spec = a4_spec(omega2=0.5)
    with pytest.raises(RationalityDetected) as exc:
        angular_value_irrational(2, spec)
    assert exc.value.witnesses == [(1, 2, 1, 2)]


# --------------------------------------------------------- irrational value


def test_headline_two_frequency_value():
    res = angular_value_irrational(2, a4_spec())
    assert abs(res.value - 1.2693394) < 1e-5
    assert res.argmax_set == (1, 2)
    assert res.error < 1e-6


def test_single_width_sets_give_max_omega_exactly():
    spec = a4_spec()
    for s in (1, 3):
        res = angular_value_irrational(s, spec)
        assert res.value == 1.0
        assert res.error == 0.0


def test_all_real_spec_gives_zero():
    spec = SchurSpec((RealBlock(1.0), RealBlock(0.0), RealBlock(-2.0)))
    res = angular_value_irrational(1, spec)
    assert res.value == 0.0


def test_lower_bound_on_random_specs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        omegas = rng.uniform(0.2, 3.0, size=2)
        rhos = rng.uniform(0.05, 1.0, size=2)
        spec = SchurSpec(
            (
                ComplexBlock(0.0, omegas[0], rhos[0]),
                ComplexBlock(-1.0, omegas[1], rhos[1]),
            )
        )
        res = angular_value_irrational(2, spec, override_gate=True)
        assert res.value >= max(omegas) - 1e-8


def test_set_inclusion_monotonicity():
    rng = np.random.default_rng(6)
    spec = SchurSpec(
        (
            ComplexBlock(0.0, 1.0, 0.4),
            ComplexBlock(-1.0, rng.uniform(0.3, 2.0), 0.7),
            ComplexBlock(-2.0, rng.uniform(0.3, 2.0), 0.2),
        )
    )
    singles = [integral_for_set(spec, (j,)).value for j in (1, 2, 3)]
    pair = integral_for_set(spec, (1, 2)).value
    triple = integral_for_set(spec, (1, 2, 3)).value
    assert pair >= max(singles[0], singles[1]) - 1e-9
    assert triple >= pair - 1e-12  # both exact up to rounding


_block_params = st.tuples(st.floats(0.1, 3.0), st.one_of(st.just(1.0), st.floats(0.05, 1.0)))


@st.composite
def _torus_axes(draw):
    """2 to 5 (omega, rho) pairs, each fresh or a copy of the one before."""
    params = [draw(_block_params)]
    for _ in range(draw(st.integers(1, 4))):
        params.append(params[-1] if draw(st.booleans()) else draw(_block_params))
    return params


def _torus_spec(params):
    return SchurSpec(tuple(ComplexBlock(-float(i), w, r) for i, (w, r) in enumerate(params)))


def _speed_cdf(x, omega, rho):
    # theta uniform on [0, pi]: E(theta) <= x iff sin^2 theta <= u below,
    # and |sin theta| has the arcsine law P(|sin theta| <= y) = (2/pi) asin y;
    # at rho = 1 the speed is omega for every theta
    if rho == 1.0:
        return float(x >= omega)
    u = (1.0 - rho * omega / x) / (1.0 - rho * rho)
    return 2.0 / math.pi * math.asin(math.sqrt(min(max(u, 0.0), 1.0)))


def _torus_reference(params):
    # E[max_j E_j] = lo + integral_lo^hi (1 - prod_j F_j(x)) dx, since every
    # F_j vanishes below lo = max_j rho_j omega_j and is 1 above hi
    lo = max(r * w for w, r in params)
    hi = max(w / r for w, r in params)
    breaks = sorted({x for w, r in params for x in (r * w, w / r) if lo < x < hi})

    def tail(x):
        return 1.0 - math.prod(_speed_cdf(x, w, r) for w, r in params)

    return lo + quad(tail, lo, hi, points=breaks, limit=200, epsabs=1e-13, epsrel=1e-13)[0]


@settings(max_examples=150)
@given(_torus_axes())
@example([(1.0, 0.5), (1.0, 0.5), (1.0, 0.5)])
@example([(1.0, 1.0), (2.0, 0.3)])
@example([(1.0, 1.0), (1.0, 1.0)])
@example([(0.7, 1.0), (1.3, 1.0), (1.1, 0.2), (1.1, 0.2), (3.0, 0.05)])
def test_torus_rule_and_error_match_1d_reference(params):
    # the value to 1e-10, and its error bounds the true error
    sv = integral_for_set(_torus_spec(params), tuple(range(1, len(params) + 1)))
    err = abs(sv.value - _torus_reference(params))
    assert err <= 1e-10
    assert err <= sv.error + 1e-12


@pytest.mark.parametrize("size", [3, 4, 5])
def test_torus_rule_matches_1d_reference(size):
    rng = np.random.default_rng(40 + size)
    for _ in range(4):
        params = list(zip(rng.uniform(0.2, 3.0, size), rng.uniform(0.05, 0.95, size)))
        got = integral_for_set(_torus_spec(params), tuple(range(1, size + 1))).value
        assert abs(got - _torus_reference(params)) <= 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_points": 0},
        {"t_points": -4},
        {"t_points": 720.5},
        {"t_points": "720"},
        {"t_points": None},
        {"t_points": 10**9},
        {"t_points": 2**16 + 1},
        {"t_points": 2.0},
        {"t_points": True},
    ],
)
def test_quad_config_rejects_degenerate_grids(tmp_path, capsys, kwargs):
    # the resonant grid is fixed at T_POINTS: a quad config that sets it,
    # to any value, is bad input
    path = tmp_path / "r.json"
    resonant = {"omega1": 1.0, "p": 1, "q": 2, "rho1": 0.5, "rho2": 0.25}
    path.write_text(json.dumps({"resonant": resonant, "quad": kwargs}))
    assert main(["autonomous", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "unknown quad settings: t_points" in captured.err and captured.out == ""


def block_lines(a, b):
    # one line in each 2x2 block: the stratum whose echelon form has two
    # width-1 pivots, which is where the angular value is attained
    w = np.zeros((4, 2))
    w[0, 0], w[1, 0] = math.cos(a), math.sin(a)
    w[2, 1], w[3, 1] = math.cos(b), math.sin(b)
    return Subspace(w)


def test_time_average_matches_quadrature():
    # short-horizon version of the ergodic consistency check
    spec = a4_spec()
    want = angular_value_irrational(2, spec).value
    got = angular_integral(spec.system(), block_lines(0.3, 1.1), 0.0, 2000.0, 0.01)
    assert abs(got / 2000.0 - want) < 5e-2


def test_generic_plane_average_decays():
    # a fully generic plane has a width-2 pivot in the leading block, falls
    # into the invariant block plane, and averages to zero
    spec = a4_spec()
    rng = np.random.default_rng(7)
    v0 = subspace_from_spanning(rng.standard_normal((4, 2)))
    got = angular_integral(spec.system(), v0, 0.0, 2000.0, 0.01) / 2000.0
    assert got < 1e-2


# ----------------------------------------------------------- resonant value


def test_resonant_constant_speeds():
    res = angular_value_resonant_4d(1.0, 1, 2, rho1=1.0, rho2=1.0)
    assert abs(res.value - 1.0) < 1e-12
    assert np.max(np.abs(res.l_values - 1.0)) < 1e-12


def test_resonant_lower_bound():
    for (p, q) in ((1, 1), (1, 2), (2, 3), (7, 10)):
        res = angular_value_resonant_4d(1.0, p, q, rho1=1 / 3, rho2=1 / 4)
        omega2 = p / q
        assert res.value >= max(1.0, omega2) - 1e-8
        assert res.value >= res.l_values.max() - 1e-12


def test_resonant_dominates_irrational_formula():
    res = angular_value_resonant_4d(1.0, 1, 2, rho1=1 / 3, rho2=1 / 4)
    irr = angular_value_irrational(2, a4_spec(omega2=0.5), override_gate=True)
    assert res.value >= irr.value - 1e-3


def test_resonant_rejects_bad_orders():
    with pytest.raises(NotCoprime):
        angular_value_resonant_4d(1.0, 2, 4, 0.5, 0.5)
    with pytest.raises(ValueError):
        angular_value_resonant_4d(1.0, 0, 3, 0.5, 0.5)
    with pytest.raises(ValueError):
        angular_value_resonant_4d(0.0, 1, 2, 0.5, 0.5)


@pytest.mark.parametrize("omega1", [math.nan, math.inf, -math.inf])
def test_resonant_rejects_non_finite_omega1(omega1):
    with pytest.raises(ValueError, match="omega1"):
        angular_value_resonant_4d(omega1, 1, 2, 0.5, 0.5)


def test_resonant_rejects_oversized_table():
    # max(p, q) * T_POINTS is at most 2**20 for max(p, q) <= 1456: refused before any work
    assert MAX_ORDER == 1456
    with pytest.raises(ValueError, match="exceeds"):
        angular_value_resonant_4d(1.0, 1, MAX_ORDER + 1, 0.5, 0.5)
    with pytest.raises(ValueError, match="exceeds"):
        resonant_line(1.0, MAX_ORDER + 1, 1, 0.5, 0.5, [0.0])


def test_resonant_grid_shape_and_argmax_location():
    res = angular_value_resonant_4d(1.0, 1, 3, 0.5, 0.9)
    assert len(res.t_values) == T_POINTS and len(res.l_values) == T_POINTS
    assert 0.0 <= res.t_argmax < 2 * math.pi
    assert res.value >= res.l_values.max()


_rho = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@settings(max_examples=200)
@given(st.integers(1, 40), st.integers(1, 20), _rho, _rho)
@example(7, 20, 0.05, 0.05)
@example(3, 7, 1 / 3, 1.0)
@example(1, 1, 0.5, 0.5)
@example(1, 1, 1.0, 1.0)
@example(2, 3, 0.2, 0.7)
def test_resonant_line_matches_full_grid(p, q, rho1, rho2):
    # the symmetry fill (one grid point per orbit of t -> t + pi, t -> 2 pi - t)
    # against the exact line evaluated at every grid t
    g = math.gcd(p, q)
    p, q = p // g, q // g
    res = angular_value_resonant_4d(1.0, p, q, rho1, rho2)
    line = resonant_line(1.0, p, q, rho1, rho2, res.t_values)
    # relative: L grows with omega2 = p/q
    assert np.max(np.abs(res.l_values - line)) <= 1e-13 * line.max()
    assert res.value >= res.l_values.max()


def test_resonant_line_is_the_same_in_small_chunks(monkeypatch):
    # one t at a time instead of 102, and at most 32 cells split at once
    ts = np.linspace(0.0, 2 * math.pi, 7)
    want = resonant_line(1.0, 13, 20, 1 / 3, 0.25, ts)
    monkeypatch.setattr(autonomous, "_CHUNK", 256)
    assert np.max(np.abs(resonant_line(1.0, 13, 20, 1 / 3, 0.25, ts) - want)) <= 1e-14


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), _rho, _rho, st.floats(0.0, 2 * math.pi, exclude_max=True))
@example(1, 3, 1 / 3, 1.0, 0.0)  # P = gamma (1 - cos): double zeros at every t
@example(3, 7, 1 / 3, 1.0, 7 * math.pi / 6)  # crossings on grid nodes
@example(1, 1, 1.0, 1.0, 0.5)  # P = 0 everywhere: E1 = E2
@example(5, 6, 1 / 3, 0.1, 1.0)  # the largest move from the midpoint table
def test_resonant_line_matches_the_oracle(p, q, rho1, rho2, t):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    assert abs(resonant_line(1.0, p, q, rho1, rho2, [t])[0] - oracles.resonant_line(t, 1.0, p, q, rho1, rho2)) <= 1e-12
    res = angular_value_resonant_4d(1.0, p, q, rho1, rho2)
    assert res.error >= abs(res.value - oracles.resonant_line(res.t_argmax, 1.0, p, q, rho1, rho2))


@settings(max_examples=60)
@given(st.integers(1, 20), st.integers(1, 20), _rho, _rho, st.floats(-2 * math.pi, 2 * math.pi))
@example(1, 2, 0.5, 0.25, 0.0)
@example(13, 20, 1 / 3, 0.25, 1.0)
@example(1, 1, 1.0, 0.05, 2.5)
def test_resonant_line_has_period_pi_over_p_and_is_even(p, q, rho1, rho2, t):
    # shifting t by pi/p is a shift of the orbit by pi q m/p with q m = 1
    # mod p, which maps both speeds onto themselves; t -> -t reflects the orbit
    g = math.gcd(p, q)
    p, q = p // g, q // g
    lt, shifted, reflected = resonant_line(1.0, p, q, rho1, rho2, [t, t + math.pi / p, -t])
    assert abs(shifted - lt) <= 1e-13 * lt
    assert abs(reflected - lt) <= 1e-13 * lt


@pytest.mark.parametrize("p,q", [(1, 2), (1, 1), (2, 3), (13, 20)])
@pytest.mark.parametrize("rho1,rho2", [(MIN_RHO, 0.25), (0.25, MIN_RHO), (MIN_RHO, MIN_RHO), (MIN_RHO, 1.0)])
def test_resonant_value_at_the_rho_floor_is_above_the_faster_speed(p, q, rho1, rho2):
    # L is an orbit mean of max(E1, E2), and each speed has its frequency as
    # orbit mean, so the value is at least max(omega1, omega2)
    res = angular_value_resonant_4d(1.0, p, q, rho1, rho2)
    assert res.value >= max(1.0, p / q) - res.error
    assert math.isfinite(res.error) and res.error < 1e-12


@pytest.mark.parametrize("omegas", [(1.0, 1 / SQRT2), (0.3, 3.0), (1.0, 1.3, 0.8)])
@pytest.mark.parametrize("rho", [MIN_RHO, 0.25, 1.0])
def test_torus_value_at_the_rho_floor_is_above_the_faster_speed(omegas, rho):
    params = [(omegas[0], MIN_RHO)] + [(w, rho) for w in omegas[1:]]
    sv = integral_for_set(_torus_spec(params), tuple(range(1, len(params) + 1)))
    assert sv.value >= max(omegas) - sv.error
    assert abs(sv.value - _torus_reference(params)) <= sv.error


@pytest.mark.parametrize(
    "omega,rho,message",
    [
        (1.0, 1e-300, "below the floor"),  # (rho1 rho2)^2 underflowed to a division by zero
        (1.0, 1e-12, "below the floor"),  # the torus value fell below max omega_j
        (1.0, 0.999 * MIN_RHO, "below the floor"),
        (1e308, 0.5, "exceeds the bound"),  # the values were nan
        (1.0001 * MAX_SPEED * 0.5, 0.5, "exceeds the bound"),
    ],
)
def test_rules_refuse_speeds_they_cannot_carry(omega, rho, message):
    with pytest.raises(InvalidBlock, match=message):
        integral_for_set(_torus_spec([(omega, rho), (1 / SQRT2, 0.25)]), (1, 2))
    with pytest.raises(InvalidBlock, match=message):
        angular_value_resonant_4d(omega, 1, 2, rho, 0.25)
    with pytest.raises(InvalidBlock, match=message):
        resonant_line(omega, 1, 2, 0.25, rho, [0.0])


def test_rules_carry_the_floor_and_the_bound():
    # one block alone is its frequency, exactly, whatever its rho
    assert integral_for_set(_torus_spec([(1.0, 1e-12)]), (1,)).value == 1.0
    sv = integral_for_set(_torus_spec([(MAX_SPEED * MIN_RHO, MIN_RHO), (1.0, 0.5)]), (1, 2))
    res = angular_value_resonant_4d(MAX_SPEED * MIN_RHO, 1, 1, MIN_RHO, 1.0)
    for value, error in ((sv.value, sv.error), (res.value, res.error)):
        assert math.isfinite(value) and math.isfinite(error)
        assert value >= MAX_SPEED * MIN_RHO - error


# ---------------------------------------------------------------- symmetry


def test_symmetry_check_on_4d_spec():
    spec = a4_spec()
    assert symmetry_check(1, spec)
    assert symmetry_check(2, spec)


def test_symmetry_check_all_real():
    spec = SchurSpec((RealBlock(1.0), RealBlock(0.0)))
    assert symmetry_check(1, spec)
