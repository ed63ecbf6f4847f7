"""Closed-form checks of the benchmark's reference module.

    python3 -m pytest perfbench/test_reference.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


@pytest.mark.parametrize("omega,rho", [(1.0, 0.3), (0.7, 0.9), (1.3, 1.0)])
def test_one_axis_mean_is_omega(omega, rho):
    assert ref.torus_max_mean([(omega, rho)]) == pytest.approx(omega, abs=1e-12)


def test_round_axes_give_the_largest_omega():
    assert ref.torus_max_mean([(1.3, 1.0), (0.7, 1.0), (1.1, 1.0)]) == pytest.approx(1.3, abs=1e-12)


def test_headline_value():
    spec = [(1.0, 1.0 / 3.0), (1.0 / math.sqrt(2.0), 0.25)]
    assert ref.torus_max_mean(spec) == pytest.approx(1.2693394, abs=1e-6)


def test_torus_mean_matches_a_fine_tensor_grid():
    params = [(1.0, 0.4), (0.8, 0.6), (1.2, 0.5)]
    n = 400
    th = (np.arange(n) + 0.5) * (math.pi / n)
    e = [r * w / (np.cos(th) ** 2 + r * r * np.sin(th) ** 2) for w, r in params]
    grid = np.maximum(np.maximum.outer(e[0], e[1])[:, :, None], e[2][None, None, :])
    assert ref.torus_max_mean(params) == pytest.approx(float(grid.mean()), abs=1e-5)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (5, 7)])
def test_resonant_line_with_a_round_second_block_is_flat(p, q):
    # rho2 = 1 makes E2 constant, so every t and orbit term sees the same integral
    want = ref.torus_max_mean([(1.0, 1.0 / 3.0), (p / q, 1.0)])
    for t in (0.0, 0.4, 2.0):
        assert ref.resonant_line(t, 1.0, p, q, 1.0 / 3.0, 1.0) == pytest.approx(want, abs=1e-9)


def test_resonant_line_averages_to_the_torus_mean():
    ts = np.arange(64) * (2.0 * math.pi / 64)
    line = [ref.resonant_line(t, 1.0, 1, 2, 1.0 / 3.0, 0.25) for t in ts]
    want = ref.torus_max_mean([(1.0, 1.0 / 3.0), (0.5, 0.25)])
    assert float(np.mean(line)) == pytest.approx(want, abs=1e-4)


@pytest.mark.parametrize("phi", [0.3, 0.7, 2.0])
def test_planar_rotation_at_rho_one(phi):
    assert ref.planar_circle_average(1.0, phi) == pytest.approx(min(phi, math.pi - phi), abs=1e-12)


@pytest.mark.parametrize("a,b", [(0.9, 0.4), (0.2, 1.1)])
def test_orthogonal_map_angle_is_the_largest_block_angle(a, b):
    rng = np.random.default_rng(0)
    frame, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    m = frame @ ref.block_rotation_np((a, b)) @ frame.T
    best = frame[:, [0, 2]]  # one direction in each rotation plane
    assert ref.angle_sum_np([m], best, 50) / 50 == pytest.approx(max(a, b), abs=1e-12)
    for _ in range(20):
        v = ref.orthonormal_np(rng.standard_normal((4, 2)))
        assert ref.max_angle_np(v, m @ v) <= max(a, b) + 1e-12


def test_principal_angles_recover_prescribed_small_angles():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    theta = np.array([1e-7, 3e-5, 2e-3])
    w = q[:, :3] * np.cos(theta) + q[:, 3:6] * np.sin(theta)
    got = ref.principal_angles_np(q[:, :3], w)
    assert np.max(np.abs(got - theta)) < 1e-14
