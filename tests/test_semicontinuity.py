import dataclasses
import math
import time

import numpy as np
import pytest

from angval.autonomous import SchurSpec, angular_value_irrational, angular_value_resonant_4d, resonant_line
from angval.discrete import DiscreteSystem, estimate_angular_value
from angval.linalg import ComplexBlock, rotation
from angval.search import SubspaceSearchConfig
from angval.semicontinuity import (
    RationalTag,
    SweepCell,
    build_kappa_grid,
    build_rho2_grid,
    classify_ratio,
    discrete2d_theta1,
    f_infinity,
    hairy_sweep,
    tag_angle,
    theta_infinity,
)

TWO_PI = 2.0 * math.pi


def smooth_f(x, phi, lam):
    return np.exp(x[0]) * (1.0 + 0.3 * x[1]) + 0.1 * lam


def test_tag_angle_endpoints_and_quarter_turn():
    assert tag_angle(0.0) == RationalTag("rational", 0.0, 0, 1)
    assert tag_angle(TWO_PI) == RationalTag("rational", 1.0, 1, 1)
    t = tag_angle(math.pi / 2)
    assert (t.p, t.q) == (1, 4)
    assert not tag_angle(TWO_PI / math.sqrt(5.0)).rational


def test_tag_validation():
    with pytest.raises(ValueError):
        RationalTag("rational", 0.5, 2, 4)
    with pytest.raises(ValueError):
        RationalTag("irrational", 0.5, 1, 2)
    with pytest.raises(ValueError):
        RationalTag("sometimes", 0.5)


def test_classify_ratio_grid_points():
    assert classify_ratio(0.25).rational
    assert classify_ratio(0.45, qmax=20).rational  # 9/20
    assert not classify_ratio(0.455, qmax=20).rational  # 91/200 is out of reach
    assert not classify_ratio(1.0 / math.sqrt(2.0), qmax=20).rational


def test_f_infinity_constant_both_branches():
    const = lambda x, phi, lam: np.full(x.shape[1], 2.5)
    x = np.array([1.0, 0.0])
    rat = f_infinity(const, x, math.pi / 2, 0.0, tag_angle(math.pi / 2))
    irr = f_infinity(const, x, 2.0, 0.0, RationalTag("irrational", 2.0 / TWO_PI))
    assert rat == 2.5 and irr == 2.5


def test_f_infinity_q1_is_pointwise():
    x = np.array([0.6, -0.8])
    assert f_infinity(smooth_f, x, 0.0, 1.0, tag_angle(0.0)) == smooth_f(x, 0.0, 1.0)


def test_f_infinity_four_term_hand_assembly():
    phi = math.pi / 2
    t = rotation(phi)
    x = np.array([math.cos(0.4), math.sin(0.4)])
    x1 = t @ x
    x2 = t @ x1
    x3 = t @ x2
    want = (
        smooth_f(x, phi, 0.0)
        + smooth_f(x1, phi, 0.0)
        + smooth_f(x2, phi, 0.0)
        + smooth_f(x3, phi, 0.0)
    ) / 4.0
    got = f_infinity(smooth_f, x, phi, 0.0, tag_angle(phi))
    assert abs(got - want) < 1e-14


def test_f_infinity_rational_orbit_invariance():
    phi = TWO_PI * 3.0 / 7.0
    tag = tag_angle(phi)
    assert (tag.p, tag.q) == (3, 7)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.uniform(0.0, TWO_PI)
        x = np.array([math.cos(a), math.sin(a)])
        v0 = f_infinity(smooth_f, x, phi, 0.7, tag)
        v1 = f_infinity(smooth_f, rotation(phi) @ x, phi, 0.7, tag)
        assert abs(v0 - v1) < 1e-12


def test_f_infinity_irrational_matches_birkhoff_sum():
    phi = TWO_PI / math.sqrt(5.0)
    tag = tag_angle(phi)
    assert not tag.rational
    x = np.array([1.0, 0.0])
    want = f_infinity(smooth_f, x, phi, 0.0, tag)
    n = 10**5
    theta = np.arange(n) * phi
    vals = np.exp(np.cos(theta)) * (1.0 + 0.3 * np.sin(theta))
    assert abs(vals.mean() - want) < 1e-3


def test_theta_infinity_constant():
    const = lambda x, phi, lam: np.full(x.shape[1], -0.75)
    assert theta_infinity(const, math.pi, 0.0, tag_angle(math.pi)) == -0.75
    assert theta_infinity(const, 2.0, 0.0, RationalTag("irrational", 2.0 / TWO_PI)) == -0.75


def test_theta_infinity_rational_vs_brute_force():
    # phi = pi: two-term averages; brute force the sup at 10x resolution
    phi = math.pi
    tag = tag_angle(phi)
    assert (tag.p, tag.q) == (1, 2)

    def f(x, _phi, _lam):
        return 0.7 * x[0] - 0.4 * x[1] + 0.25 * (x[0] ** 2 - x[1] ** 2) + 0.31 * x[0] * x[1]

    got = theta_infinity(f, phi, 0.0, tag)
    theta = np.arange(40960) * (TWO_PI / 40960)
    c, s = np.cos(theta), np.sin(theta)
    fvals = 0.7 * c - 0.4 * s + 0.25 * (c * c - s * s) + 0.31 * c * s
    fshift = -0.7 * c + 0.4 * s + 0.25 * (c * c - s * s) + 0.31 * c * s
    want = float(((fvals + fshift) / 2.0).max())
    assert abs(got - want) < 1e-6


def test_theta1_reduces_to_line_angle_at_rho_one():
    for phi in (0.0, 0.3, math.pi / 2, 2.0, math.pi):
        want = min(phi, math.pi - phi) if phi <= math.pi else min(phi - math.pi, TWO_PI - phi)
        assert abs(discrete2d_theta1(phi, 1.0) - want) < 1e-9


def test_theta1_range_and_validation():
    assert discrete2d_theta1(0.0, 0.3) == 0.0
    val = discrete2d_theta1(2.6, 0.45)
    assert 0.0 <= val <= math.pi / 2
    with pytest.raises(ValueError):
        discrete2d_theta1(7.0, 0.5)
    with pytest.raises(ValueError):
        discrete2d_theta1(1.0, 0.0)


def test_theta1_matches_estimator_at_quarter_turn():
    # q = 4 orbit: sampling at multiples of 4 makes the Cesaro averages exact
    want = discrete2d_theta1(math.pi / 2, 1.0 / 3.0)
    sys = DiscreteSystem.planar_rotation(1.0 / 3.0, math.pi / 2)
    cfg = SubspaceSearchConfig(
        seed=5, candidates=12, refine_rounds=60, sample_times=[1000, 2000]
    )
    rep = estimate_angular_value(sys, 1, "sup-limsup", 2000, cfg)
    assert abs(rep.value - want) < 1e-6
    rep2 = estimate_angular_value(sys, 1, "liminf-sup", 2000, cfg)
    assert abs(rep2.value - rep.value) < 1e-9


def test_theta1_matches_estimator_on_grid():
    # all four variants coincide for this family; horizon 840 is divisible
    # by every q in the phi grid, so orbit averages are sampled exactly
    fractions = [(1, 3), (1, 4), (2, 5), (1, 6), (3, 7), (3, 8), (1, 10), (5, 12), (3, 14), (1, 2)]
    rhos = [1.0, 0.75, 0.5, 1.0 / 3.0, 0.2]
    worst = 0.0
    for p, q in fractions:
        phi = TWO_PI * p / q
        for rho in rhos:
            want = discrete2d_theta1(phi, rho)
            sys = DiscreteSystem.planar_rotation(rho, phi)
            cfg = SubspaceSearchConfig(
                seed=17, candidates=16, refine_rounds=20, sample_times=[840]
            )
            rep = estimate_angular_value(sys, 1, "sup-limsup", 840, cfg)
            worst = max(worst, abs(rep.value - want))
    assert worst < 2e-3, "worst deviation %.3e" % worst


def circle_average_theta1(phi, rho):
    # the value irrational neighbours of phi converge to: theta1's per-step
    # angle averaged over the circle, whatever the arithmetic type of phi
    d = np.diag([1.0, rho])
    t = rotation(phi)

    def f(x, _phi, _rho):
        u, v = d @ x, d @ (t @ x)
        return np.arctan2(np.abs(u[0] * v[1] - u[1] * v[0]), np.abs(u[0] * v[0] + u[1] * v[1]))

    val = theta_infinity(f, phi, rho, RationalTag("irrational", phi / TWO_PI))
    return min(max(val, 0.0), math.pi / 2.0)


def test_theta1_is_upper_semicontinuous_at_rationals():
    # the rational orbit sup at phi = 2 pi p/q is at least the circle
    # average that irrational neighbours converge to, at every p/q in [0, 1]
    # with q <= 20 and every rho below
    cells, worst = 0, math.inf
    for q in range(1, 21):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            for rho in (0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0):
                phi = TWO_PI * p / q
                tag = tag_angle(phi)
                assert (tag.kind, tag.p, tag.q) == ("rational", p, q)
                rational = discrete2d_theta1(phi, rho)
                irrational = circle_average_theta1(phi, rho)
                worst = min(worst, rational - irrational)
                cells += 1
    assert cells == 774
    assert worst >= -1e-12, "worst margin %.3e" % worst


def test_build_kappa_grid_contents():
    grid = build_kappa_grid()
    assert grid == sorted(grid)
    assert len(grid) == len(set(grid))
    for q in range(1, 21):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1 and 0.05 <= p / q <= 1.0:
                assert any(abs(x - p / q) < 1e-12 for x in grid)
    assert any(abs(x - 1.0 / math.sqrt(2.0)) < 1e-12 for x in grid)
    assert any(abs(x - 0.455) < 1e-9 for x in grid)
    assert min(grid) >= 0.05 - 1e-12 and max(grid) <= 1.0 + 1e-12


def test_build_rho2_grid_contents():
    grid = build_rho2_grid()
    assert 0.25 in grid and 0.1 in grid and 1.0 in grid
    assert grid == sorted(grid) and len(grid) == 11


def test_sweep_constant_speed_cells():
    # rho = 1 makes both ellipse speeds constant, so every cell is exactly
    # the larger frequency
    cells = hairy_sweep(
        1.0, 1.0, kappa_grid=[0.5, 1.0 / math.sqrt(2.0)], rho2_grid=[1.0]
    )
    assert len(cells) == 2
    assert cells[0].tag.rational and (cells[0].tag.p, cells[0].tag.q) == (1, 2)
    assert not cells[1].tag.rational
    for cell in cells:
        assert abs(cell.value - 1.0) < 1e-9


def test_sweep_headline_cell():
    cells = hairy_sweep(
        1.0, 1.0 / 3.0, kappa_grid=[1.0 / math.sqrt(2.0)], rho2_grid=[0.25]
    )
    assert len(cells) == 1
    assert abs(cells[0].value - 1.2693394) < 1e-5
    assert cells[0].t_argmax is None


def test_round_second_block_row_is_the_torus_mean():
    # rho2 = 1 makes E2 the constant omega2, so L(t) is flat and every
    # rational cell is the torus mean of max(E1, omega2)
    cells = hairy_sweep(1.0, 1.0 / 3.0, rho2_grid=[1.0])
    rational = [c for c in cells if c.tag.rational]
    assert len(rational) == 128
    for c in rational:
        spec = SchurSpec((ComplexBlock(0.0, 1.0, 1.0 / 3.0), ComplexBlock(-1.0, c.kappa, 1.0)))
        torus = angular_value_irrational(2, spec, override_gate=True)
        assert abs(c.value - torus.value) <= c.err_estimate + torus.error


@pytest.mark.parametrize("rho2", [0.1, 0.25, 0.5])
def test_rational_cells_reach_the_top_of_their_full_line(rho2):
    # the maximizer lies in the basin of the global maximum: no cell ends
    # below the exact line at any of the 720 grid points
    ts = np.arange(720) * (TWO_PI / 720)
    for c in hairy_sweep(1.0, 1.0 / 3.0, rho2_grid=[rho2]):
        if c.tag.rational:
            assert c.value >= resonant_line(1.0, c.tag.p, c.tag.q, 1.0 / 3.0, rho2, ts).max() - 1e-12


def test_sweep_usc_spot_check():
    grid = [0.49, 0.495, 0.5, 0.505, 0.51]
    cells = hairy_sweep(1.0, 1.0 / 3.0, kappa_grid=grid, rho2_grid=[0.25])
    assert [c.kappa for c in cells] == grid
    rational = cells[2]
    assert (rational.tag.p, rational.tag.q) == (1, 2)
    assert rational.value >= 1.0 - 1e-8  # max(omega1, omega2) lower bound
    assert rational.t_argmax is not None
    neighbors = [c for c in cells if not c.tag.rational]
    assert len(neighbors) == 4
    assert rational.value >= max(c.value for c in neighbors) - 5e-3


def test_sweep_threads_deterministic():
    # threads is a retired setting: the sweep runs one worker, and 1 is
    # the same run as the default
    grid = [0.3, 0.31]
    a = hairy_sweep(1.0, 0.5, kappa_grid=grid, rho2_grid=[0.4, 0.8], threads=1)
    b = hairy_sweep(1.0, 0.5, kappa_grid=grid, rho2_grid=[0.4, 0.8])
    assert [(c.kappa, c.rho2, c.value) for c in a] == [
        (c.kappa, c.rho2, c.value) for c in b
    ]
    for threads in (0, -5, 2, 4, 64):
        with pytest.raises(ValueError, match="threads must be 1"):
            hairy_sweep(1.0, 0.5, kappa_grid=grid, rho2_grid=[0.4], threads=threads)


def test_sweep_env_thread_fallback(monkeypatch):
    # ANGVAL_THREADS is no longer read, at any value
    for env in ("3", "lots"):
        monkeypatch.setenv("ANGVAL_THREADS", env)
        cells = hairy_sweep(1.0, 0.5, kappa_grid=[0.7], rho2_grid=[0.5])
        assert len(cells) == 1 and cells[0].value > 0


def test_sweep_validation():
    with pytest.raises(ValueError):
        hairy_sweep(0.0, 0.5, kappa_grid=[0.5], rho2_grid=[0.5])
    with pytest.raises(ValueError):
        hairy_sweep(1.0, 1.5, kappa_grid=[0.5], rho2_grid=[0.5])


@pytest.mark.parametrize("omega1", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_non_finite_omega1(omega1):
    with pytest.raises(ValueError, match="omega1"):
        hairy_sweep(omega1, 0.5, kappa_grid=[0.7071], rho2_grid=[0.5])


@pytest.mark.parametrize("kappa", [math.nan, -0.5, 0.0, math.inf])
def test_sweep_rejects_bad_kappa_entries(kappa):
    with pytest.raises(ValueError, match="kappa_grid entries"):
        hairy_sweep(1.0, 0.5, kappa_grid=[0.5, kappa], rho2_grid=[0.5])


@pytest.mark.parametrize("qmax", [0, 101])
def test_sweep_rejects_qmax_out_of_range(qmax):
    # checked before the kappa grid of about 0.3 qmax^2 ratios is built
    with pytest.raises(ValueError, match="qmax"):
        hairy_sweep(1.0, 0.5, qmax=qmax)


def test_sweep_cells_record_their_time():
    # rational cells of one max(p, q) share a pass, and each takes its share
    # of it plus its own search, so the cells' seconds add up to at most the
    # sweep's wall time
    t0 = time.perf_counter()
    cells = hairy_sweep(1.0, 0.5, kappa_grid=[1 / 7, 2 / 7, 3 / 7, 0.5, 0.505], rho2_grid=[0.4, 0.8])
    wall = time.perf_counter() - t0
    assert all(c.seconds > 0.0 for c in cells)
    assert sum(c.seconds for c in cells) <= wall
    # timing is not part of a cell's value
    assert cells[0] == dataclasses.replace(cells[0], seconds=0.0)


def test_sweep_rational_cells_are_the_single_cell_values():
    # several ratios of one q share a pass with each other and across rows
    grid = [1 / 7, 2 / 7, 3 / 7, 5 / 7, 1 / 3, 0.5, 0.31]
    cells = hairy_sweep(1.0, 1.0 / 3.0, kappa_grid=grid, rho2_grid=[0.1, 0.25, 1.0])
    assert [(c.kappa, c.rho2) for c in cells] == [(k, r) for k in sorted(grid) for r in (0.1, 0.25, 1.0)]
    rational = [c for c in cells if c.tag.rational]
    assert len(rational) == 18
    for c in rational:
        res = angular_value_resonant_4d(1.0, c.tag.p, c.tag.q, 1.0 / 3.0, c.rho2)
        assert (c.value, c.err_estimate, c.t_argmax) == (res.value, res.error, res.t_argmax)

