import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_subspace, random_orthogonal

from angval.errors import DimensionMismatch, RankDeficient
from angval.grassmann import (
    PrincipalAngleResult,
    Subspace,
    coordinate_subspace,
    max_angle,
    max_angle_between_bases,
    max_angles,
    metric_d1,
    metric_d2,
    metric_dF,
    metric_dsigma,
    principal_angles,
    procrustes_min,
    projection_matrix,
    subspace_from_spanning,
    subspaces_equal,
)
from angval.oracles import _angle_between_orthonormal, maxmin_angle, procrustes_bruteforce


def planar_pair(d, t, i=0, j=1):
    """A line pair in the (e_i, e_j) plane with angle exactly t."""
    v = coordinate_subspace(d, [i])
    w = np.zeros((d, 1))
    w[i, 0] = math.cos(t)
    w[j, 0] = math.sin(t)
    return v, Subspace(w)


def test_coordinate_planes_angles():
    v = coordinate_subspace(3, [0, 1])
    w = coordinate_subspace(3, [0, 2])
    res = principal_angles(v, w)
    assert np.allclose(res.angles, [0.0, math.pi / 2.0], atol=1e-12)
    assert max_angle(v, w) == pytest.approx(math.pi / 2.0)


def test_planar_angle_across_scales():
    for t in [1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, math.pi / 2 - 1e-3, math.pi / 2]:
        v, w = planar_pair(4, t)
        assert max_angle(v, w) == pytest.approx(t, rel=1e-3, abs=1e-15)


def test_small_angle_relative_accuracy():
    t = 1e-8
    v, w = planar_pair(2, t)
    got = max_angle(v, w)
    assert abs(got - t) <= 1e-3 * t


def test_principal_vectors_pair_with_cosines():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = rng.integers(3, 8)
        s = rng.integers(1, min(d, 4))
        v = haar_subspace(rng, d, s)
        w = haar_subspace(rng, d, s)
        res = principal_angles(v, w)
        assert res.angles.shape == (s,)
        assert np.all(np.diff(res.angles) >= -1e-12)
        assert np.all(res.angles >= -1e-15) and np.all(res.angles <= math.pi / 2 + 1e-12)
        for j in range(s):
            c = res.vectors_v[:, j] @ res.vectors_w[:, j]
            assert abs(math.cos(res.angles[j]) - c) <= 1e-8
        # principal vectors are orthonormal within each subspace
        assert np.linalg.norm(res.vectors_v.T @ res.vectors_v - np.eye(s)) <= 1e-9
        assert np.linalg.norm(res.vectors_w.T @ res.vectors_w - np.eye(s)) <= 1e-9


def test_orthogonal_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        d, s = 6, 3
        v = haar_subspace(rng, d, s)
        w = haar_subspace(rng, d, s)
        q = random_orthogonal(rng, d)
        a0 = principal_angles(v, w).angles
        a1 = principal_angles(Subspace(q @ v.basis), Subspace(q @ w.basis)).angles
        assert np.allclose(a0, a1, atol=1e-9)


def test_scaling_invariance_of_spanning_sets():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((5, 2))
    v1 = subspace_from_spanning(m)
    v2 = subspace_from_spanning(3.7 * m)
    assert subspaces_equal(v1, v2)


def test_metric_identities():
    rng = np.random.default_rng(37)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        s = int(rng.integers(1, d))
        v = haar_subspace(rng, d, s)
        w = haar_subspace(rng, d, s)
        d1 = metric_d1(v, w)
        d2 = metric_d2(v, w)
        ds = metric_dsigma(v, w)
        assert abs(d2 - math.sin(d1)) <= 1e-10
        assert abs(ds - 2.0 * math.sin(d1 / 2.0)) <= 1e-10
        sigma_s = math.cos(d1)
        assert abs(ds - math.sqrt(2.0 * (1.0 - sigma_s))) <= 1e-10
        # equivalence band between the gap and geodesic metrics
        assert (2.0 / math.pi) * d1 <= d2 + 1e-12
        assert d2 <= d1 + 1e-12


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(41)
    metrics = [metric_d1, metric_d2, metric_dF, metric_dsigma]
    for _ in range(60):
        d = int(rng.integers(2, 7))
        s = int(rng.integers(1, d))
        u = haar_subspace(rng, d, s)
        v = haar_subspace(rng, d, s)
        w = haar_subspace(rng, d, s)
        for dist in metrics:
            duv, dvw, duw = dist(u, v), dist(v, w), dist(u, w)
            assert duv >= 0.0
            assert abs(duv - dist(v, u)) <= 1e-9
            assert duw <= duv + dvw + 1e-9
            assert dist(u, u) <= 1e-9


def test_metric_definiteness():
    rng = np.random.default_rng(43)
    v = haar_subspace(rng, 5, 2)
    g = random_orthogonal(rng, 2)
    same = Subspace(v.basis @ g)
    other = haar_subspace(rng, 5, 2)
    for dist in [metric_d1, metric_d2, metric_dF, metric_dsigma]:
        assert dist(v, same) <= 1e-9
        assert dist(v, other) > 1e-6


def test_dF_equals_procrustes_minimum():
    rng = np.random.default_rng(47)
    for _ in range(20):
        d, s = 6, 2
        v = haar_subspace(rng, d, s)
        w = haar_subspace(rng, d, s)
        assert metric_dF(v, w) == pytest.approx(procrustes_min(v.basis, w.basis).value, abs=1e-9)


def test_dF_right_angles_value():
    v = coordinate_subspace(4, [0, 1])
    w = coordinate_subspace(4, [2, 3])
    # both angles are pi/2: dF = 2 sqrt(2 sin^2(pi/4)) = 2
    assert metric_dF(v, w) == pytest.approx(2.0, abs=1e-12)


def test_procrustes_aligned_frames():
    rng = np.random.default_rng(53)
    p1 = haar_subspace(rng, 5, 2).basis
    r = random_orthogonal(rng, 2)
    res = procrustes_min(p1, p1 @ r)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.q, r.T, atol=1e-10)
    assert res.unique


def test_procrustes_against_bruteforce():
    rng = np.random.default_rng(59)
    for _ in range(10):
        p1 = haar_subspace(rng, 4, 2).basis
        p2 = haar_subspace(rng, 4, 2).basis
        res = procrustes_min(p1, p2)
        val_bf, _ = procrustes_bruteforce(p1, p2, angle_steps=200000)
        assert res.value == pytest.approx(val_bf, abs=1e-7)
        assert np.linalg.norm(res.q.T @ res.q - np.eye(2)) <= 1e-12


def test_procrustes_1d_pair():
    for t in [0.2, 1.0, 2.5]:
        p1 = np.array([[1.0], [0.0]])
        p2 = np.array([[math.cos(t)], [math.sin(t)]])
        res = procrustes_min(p1, p2)
        val_bf, _ = procrustes_bruteforce(p1, p2)
        expected = 2.0 * abs(math.sin(min(t, math.pi - t) / 2.0))
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert val_bf == pytest.approx(expected, abs=1e-12)


def test_procrustes_nonunique_flag():
    p1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    p2 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    res = procrustes_min(p1, p2)
    assert not res.unique


def test_max_angle_against_maxmin_oracle():
    rng = np.random.default_rng(61)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        s = int(rng.integers(1, min(d, 3)))
        v = haar_subspace(rng, d, s)
        w = haar_subspace(rng, d, s)
        fast = max_angle(v, w)
        slow = maxmin_angle(v, w, samples=10**6, seed=int(rng.integers(10**6)))
        assert abs(fast - slow) <= 2e-3


@st.composite
def _prescribed_angles(draw):
    """Bases with known principal angles theta, built without an SVD.

    With Q a Haar frame of R^d, V is Q[:, :s] and column j of W is
    V[:, j] cos(theta_j) + Q[:, s + j] sin(theta_j).  Only the first
    min(s, d - s) angles can be nonzero, so s = d - 1 repeats the angle 0
    s - 1 times.  Each basis is then mixed by its own random rotation.
    """
    d = draw(st.integers(2, 8))
    s = draw(st.integers(1, d - 1))
    k = min(s, d - s)
    angle = st.one_of(st.just(0.0), st.floats(1e-9, math.pi / 2))
    theta = np.array(draw(st.lists(angle, min_size=k, max_size=k)) + [0.0] * (s - k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_orthogonal(rng, d)
    partner = np.zeros((d, s))
    partner[:, :k] = q[:, s : s + k]
    w = q[:, :s] * np.cos(theta) + partner * np.sin(theta)
    return q[:, :s] @ random_orthogonal(rng, s), w @ random_orthogonal(rng, s), theta


@settings(max_examples=300)
@given(_prescribed_angles())
def test_angles_match_prescribed(pair):
    v, w, theta = pair
    res = principal_angles(Subspace(v), Subspace(w))
    assert np.max(np.abs(res.angles - np.sort(theta))) <= 1e-12
    assert abs(max_angle_between_bases(v, w) - theta.max()) <= 1e-12


@st.composite
def _hard_angle_pairs(draw):
    """Orthonormal bases of s-dimensional subspaces, s = 1..4, built as in
    _prescribed_angles, whose angles mix generic values with nearly parallel
    ones (down to 1e-9) and ones within 1e-9 of pi/2, where the cross-Gram
    matrix is nearly rank-deficient."""
    s = draw(st.integers(1, 4))
    d = draw(st.integers(2 * s, 2 * s + 2))
    tiny = st.floats(0.0, 9.0).map(lambda u: 10.0**-u)
    angle = st.one_of(tiny, tiny.map(lambda x: math.pi / 2 - x), st.floats(0.0, math.pi / 2))
    theta = np.array(draw(st.lists(angle, min_size=s, max_size=s)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_orthogonal(rng, d)
    w = q[:, :s] * np.cos(theta) + q[:, s : 2 * s] * np.sin(theta)
    return q[:, :s] @ random_orthogonal(rng, s), w @ random_orthogonal(rng, s)


@settings(max_examples=300)
@given(_hard_angle_pairs())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_max_angle_kernel_matches_oracle(pair):
    # the scalar kernel on the pair, and the stacked one on the pair among a
    # sine-path member, an arccos member, and one whose cross-Gram matrix is
    # exactly 0 (sigma_max = 0 must read pi/2 without a warning)
    v, w = pair
    d, s = v.shape
    rng = np.random.default_rng(10 * d + s)
    e, rot = np.eye(d), random_orthogonal(rng, d)
    near, generic = ((e[:, :s] * math.cos(t) + e[:, s : 2 * s] * math.sin(t)) for t in (1e-6, 0.7))
    b1 = np.stack([v, rot[:, :s], rot[:, :s], e[:, :s]])
    b2 = np.stack([w, rot @ near @ random_orthogonal(rng, s), rot @ generic, e[:, s : 2 * s]])
    stacked = max_angles(b1, b2)
    for u, x, angle in zip(b1, b2, stacked):
        want = _angle_between_orthonormal(u, x)
        assert abs(max_angle_between_bases(u, x) - want) <= 1e-12
        assert abs(angle - want) <= 1e-12


def test_maxmin_oracle_coordinate_planes():
    v = coordinate_subspace(3, [0, 1])
    w = coordinate_subspace(3, [0, 2])
    assert maxmin_angle(v, w, samples=10**6, seed=5) == pytest.approx(math.pi / 2.0, abs=2e-3)


def test_projection_matrix_properties():
    rng = np.random.default_rng(67)
    v = haar_subspace(rng, 6, 3)
    p = projection_matrix(v)
    assert np.linalg.norm(p @ p - p) <= 1e-10
    assert np.linalg.norm(p - p.T) <= 1e-12
    assert np.trace(p) == pytest.approx(3.0, abs=1e-10)


def test_from_spanning_residual_and_rank():
    rng = np.random.default_rng(71)
    m = rng.standard_normal((7, 3))
    v = subspace_from_spanning(m)
    p = projection_matrix(v)
    assert np.linalg.norm(m - p @ m) <= 1e-9 * np.linalg.norm(m)
    bad = np.ones((5, 2))
    with pytest.raises(RankDeficient):
        subspace_from_spanning(bad)


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1e-3]]))
    with pytest.raises(ValueError):
        Subspace(np.ones((2, 3)))


def test_dimension_mismatch_errors():
    v2 = coordinate_subspace(2, [0])
    v3 = coordinate_subspace(3, [0])
    with pytest.raises(DimensionMismatch):
        principal_angles(v2, v3)
    a = coordinate_subspace(4, [0])
    b = coordinate_subspace(4, [0, 1])
    with pytest.raises(DimensionMismatch):
        max_angle(a, b)


def test_result_type_shape():
    v = coordinate_subspace(3, [0])
    w = coordinate_subspace(3, [1])
    res = principal_angles(v, w)
    assert isinstance(res, PrincipalAngleResult)
    assert res.vectors_v.shape == (3, 1)
    assert res.vectors_w.shape == (3, 1)
