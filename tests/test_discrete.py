import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import haar_subspace, random_orthogonal

from angval import blocks, grassmann
from angval.blocks import _MAX_BLOCK, _segment_blocks
from angval.continuous import ContinuousSystem, angular_integral, estimate_angular_value_ct
from angval.discrete import (
    DiscreteSystem,
    _propagator,
    angle_sum,
    estimate_angular_value,
    kinematic_transform,
    solution_operator,
)
from angval.errors import BudgetExceeded, RankDeficient, SingularMatrix
from angval.grassmann import (
    coordinate_subspace,
    max_angle_between_bases,
    principal_angles,
    subspace_from_spanning,
)
from angval.linalg import qr_thin, rotation
from angval.oracles import birkhoff_average
from angval.search import VARIANTS, SubspaceSearchConfig


def random_invertible_system(seed, d, spread=0.4):
    rng = np.random.default_rng(seed)
    mats = [np.eye(d) + spread * rng.standard_normal((d, d)) for _ in range(64)]
    return DiscreteSystem.from_sequence(mats, cycle=True)


def test_solution_operator_identity_and_single_step():
    sys = random_invertible_system(0, 3)
    assert np.allclose(solution_operator(sys, 2, 2), np.eye(3))
    assert np.allclose(solution_operator(sys, 3, 2), sys.matrix(2))


def test_solution_operator_cocycle():
    sys = random_invertible_system(1, 3)
    for (n, k, m) in [(5, 2, 0), (7, 3, 1), (4, 4, 2), (2, 5, 8)]:
        lhs = solution_operator(sys, n, k) @ solution_operator(sys, k, m)
        rhs = solution_operator(sys, n, m)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


def test_solution_operator_inverse_branch():
    sys = random_invertible_system(2, 4)
    fwd = solution_operator(sys, 6, 1)
    bwd = solution_operator(sys, 1, 6)
    assert np.linalg.norm(fwd @ bwd - np.eye(4)) <= 1e-9


def test_solution_operator_singular_raises():
    mats = [np.eye(2), np.zeros((2, 2)), np.eye(2)]
    sys = DiscreteSystem.from_sequence(mats)
    with pytest.raises(SingularMatrix):
        solution_operator(sys, 1, 3)


def test_angle_sum_pure_rotation():
    sys = DiscreteSystem.planar_rotation(rho=1.0, phi=0.3)
    v = coordinate_subspace(2, [0])
    for n in [1, 5, 40]:
        assert angle_sum(sys, v, 1, n) == pytest.approx(0.3 * n, abs=1e-12 * n)


def test_angle_sum_window_additivity():
    sys = random_invertible_system(3, 3)
    v = haar_subspace(np.random.default_rng(4), 3, 1)
    total = angle_sum(sys, v, 1, 20)
    assert angle_sum(sys, v, 1, 7) + angle_sum(sys, v, 8, 20) == pytest.approx(total, abs=1e-10)


def test_angle_sum_matches_direct_propagation():
    sys = random_invertible_system(5, 3)
    v = haar_subspace(np.random.default_rng(6), 3, 2)
    expected = 0.0
    for j in range(1, 9):
        a = subspace_from_spanning(solution_operator(sys, j - 1, 0) @ v.basis)
        b = subspace_from_spanning(solution_operator(sys, j, 0) @ v.basis)
        expected += principal_angles(a, b).angles[-1]
    assert angle_sum(sys, v, 1, 8) == pytest.approx(expected, abs=1e-9)


def test_angle_sum_collapsing_step_raises():
    mats = [np.diag([1.0, 0.0])]
    sys = DiscreteSystem.from_sequence(mats, cycle=True)
    v = coordinate_subspace(2, [1])
    with pytest.raises(SingularMatrix):
        angle_sum(sys, v, 1, 2)


def test_estimator_constant_rotation_all_variants():
    sys = DiscreteSystem.planar_rotation(rho=1.0, phi=0.3)
    cfg = SubspaceSearchConfig(seed=0, candidates=4, refine_rounds=2)
    for variant in VARIANTS:
        rep = estimate_angular_value(sys, 1, variant, 400, cfg)
        assert rep.value == pytest.approx(0.3, abs=1e-9)
        assert rep.search_is_lower_bound


def test_estimator_partial_order():
    for seed in range(3):
        sys = random_invertible_system(seed + 10, 3)
        cfg = SubspaceSearchConfig(seed=seed, candidates=6, refine_rounds=2)
        vals = {
            v: estimate_angular_value(sys, 1, v, 300, cfg).value for v in VARIANTS
        }
        assert vals["sup-liminf"] <= vals["sup-limsup"] + 1e-9
        assert vals["liminf-sup"] <= vals["limsup-sup"] + 1e-9
        assert vals["sup-liminf"] <= vals["liminf-sup"] + 1e-9
        assert vals["sup-limsup"] <= vals["limsup-sup"] + 1e-9


def test_estimator_deterministic_given_seed():
    sys = random_invertible_system(20, 2)
    cfg = SubspaceSearchConfig(seed=7, candidates=5, refine_rounds=2)
    r1 = estimate_angular_value(sys, 1, "sup-limsup", 200, cfg)
    r2 = estimate_angular_value(sys, 1, "sup-limsup", 200, cfg)
    assert r1.value == r2.value
    assert np.array_equal(r1.best_basis, r2.best_basis)


def test_estimator_matches_birkhoff_oracle_on_ergodic_line():
    # irrational rotation ratio: the Cesaro limit is direction-free
    sys = DiscreteSystem.planar_rotation(rho=0.5, phi=1.0)
    v = coordinate_subspace(2, [0])
    oracle = birkhoff_average(sys, v, horizon=4000)
    cfg = SubspaceSearchConfig(seed=3, candidates=3, refine_rounds=0)
    rep = estimate_angular_value(sys, 1, "sup-limsup", 4000, cfg)
    assert rep.value == pytest.approx(oracle, abs=5e-3)


def test_estimator_budget_cap():
    sys = random_invertible_system(30, 2)
    cfg = SubspaceSearchConfig(seed=0, candidates=50, cost_cap=100.0)
    with pytest.raises(BudgetExceeded):
        estimate_angular_value(sys, 1, "sup-limsup", 1000, cfg)


def test_kinematic_transform_relation():
    sys = random_invertible_system(40, 3)
    rng = np.random.default_rng(41)
    qs = [np.eye(3) + 0.3 * rng.standard_normal((3, 3)) for _ in range(20)]

    def q_seq(n):
        return qs[n]

    tsys = kinematic_transform(sys, q_seq)
    for (n, m) in [(5, 0), (7, 2), (3, 3)]:
        lhs = solution_operator(tsys, n, m) @ q_seq(m)
        rhs = q_seq(n) @ solution_operator(sys, n, m)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_scalar_kinematic_invariance():
    sys = random_invertible_system(50, 3)
    scers = np.random.default_rng(51).uniform(0.5, 2.0, size=40)

    def q_seq(n):
        return scers[n] * np.eye(3)

    tsys = kinematic_transform(sys, q_seq)
    v = haar_subspace(np.random.default_rng(52), 3, 2)
    a0 = angle_sum(sys, v, 1, 30)
    a1 = angle_sum(tsys, v, 1, 30)
    assert abs(a0 - a1) <= 1e-12 * max(1.0, a0)


def test_asymptotically_orthogonal_transform_estimate_stability():
    # Q_n -> I: angular value estimates agree within the stated band.
    sys = DiscreteSystem.planar_rotation(rho=1.0 / 3.0, phi=0.7)
    rng = np.random.default_rng(60)
    g = rng.standard_normal((2, 2))

    def q_seq(n):
        return np.eye(2) + g / (1.0 + n)

    tsys = kinematic_transform(sys, q_seq)
    cfg = SubspaceSearchConfig(seed=1, candidates=6, refine_rounds=4)
    a = estimate_angular_value(sys, 1, "sup-limsup", 2000, cfg).value
    b = estimate_angular_value(tsys, 1, "sup-limsup", 2000, cfg).value
    assert abs(a - b) <= 0.02


def test_planar_rotation_matrix_shape():
    sys = DiscreteSystem.planar_rotation(rho=0.5, phi=0.4)
    expected = np.diag([1.0, 0.5]) @ rotation(0.4) @ np.diag([1.0, 2.0])
    assert np.allclose(sys.matrix(0), expected)
    assert np.allclose(sys.matrix(9), expected)


def _stepwise_sums(sys, b0, n):
    """The per-step loop the block path replaced: push the basis through one
    step matrix, re-orthonormalize, add the angle.  Returns a_{1,j} for
    j = 1..n."""
    b, total, out = b0, 0.0, np.empty(n)
    for j in range(1, n + 1):
        try:
            nxt, _ = qr_thin(sys.matrix(j - 1) @ b)
        except RankDeficient as exc:
            raise SingularMatrix("step matrix collapses the propagated subspace") from exc
        total += max_angle_between_bases(b, nxt)
        out[j - 1] = total
        b = nxt
    return out


@st.composite
def _discrete_orbits(draw):
    """(system, starting basis, horizon) with d in 2..6 and 1 <= s < d: a
    constant map (sheared rotations with moduli in [0.5, 2] in a non-normal
    frame, scaled by 10^-2..10^2, so growing, decaying and non-normal), a
    cycle of perturbed identities, or a kinematic transform of such a cycle."""
    d = draw(st.integers(2, 6))
    s = draw(st.integers(1, d - 1))
    kind = draw(st.sampled_from(["constant", "cycle", "kinematic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        blocks = np.zeros((d, d))
        for k in range(0, d - 1, 2):
            shear = rng.uniform(0.2, 1.0)
            blocks[k : k + 2, k : k + 2] = rng.uniform(0.5, 2.0) * (
                np.diag([1.0, shear]) @ rotation(rng.uniform(0.0, math.pi)) @ np.diag([1.0, 1.0 / shear])
            )
        if d % 2:
            blocks[-1, -1] = rng.uniform(-2.0, 2.0)
        frame = np.eye(d) + draw(st.floats(0.0, 1.0)) * rng.standard_normal((d, d))
        a = 10.0 ** draw(st.floats(-2.0, 2.0)) * frame @ blocks @ np.linalg.inv(frame)
        sys = DiscreteSystem.constant(a)
    else:
        spread = draw(st.floats(0.05, 1.0))
        mats = [np.eye(d) + spread * rng.standard_normal((d, d)) for _ in range(draw(st.integers(1, 8)))]
        sys = DiscreteSystem.from_sequence(mats, cycle=True)
        if kind == "kinematic":
            qs = [np.eye(d) + 0.3 * rng.standard_normal((d, d)) for _ in range(5)]
            sys = kinematic_transform(sys, lambda n: qs[n % len(qs)])
    return sys, haar_subspace(rng, d, s).basis, draw(st.integers(1, 700))


# a singular-value gap of 10^3 per step cuts every block to one step
_GAP = (
    DiscreteSystem.constant(random_orthogonal(np.random.default_rng(1), 4) @ np.diag([1.0, 1e-3, 1.0, 1e-3])),
    haar_subspace(np.random.default_rng(2), 4, 2).basis,
    300,
)
# the same gap in a cycle: every segment of step maps fails the condition test
_GAP_CYCLE = (
    DiscreteSystem.from_sequence(
        [_GAP[0].constant_matrix, random_orthogonal(np.random.default_rng(3), 4)], cycle=True
    ),
    _GAP[1],
    300,
)
# the third step maps every plane of R^3 onto the line e1
_COLLAPSE = (
    DiscreteSystem.from_sequence([np.eye(3) + 0.1, np.eye(3), np.diag([1.0, 0.0, 0.0])], cycle=True),
    np.eye(3)[:, 1:],
    10,
)


@settings(max_examples=60)
@given(_discrete_orbits())
@example(_GAP)
@example(_GAP_CYCLE)
@example(_COLLAPSE)
def test_block_path_matches_stepwise(orbit):
    # every running sum a_{1,j}, and a window sum, within 1e-10 relative to
    # max(1, the sum) of the per-step loop; a step that collapses the
    # subspace raises SingularMatrix on both paths
    sys, b0, n = orbit
    try:
        want = _stepwise_sums(sys, b0, n)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            _propagator(sys, n)(b0[None], np.arange(1, n + 1))
        return
    (got,) = _propagator(sys, n)(b0[None], np.arange(1, n + 1))
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1.0))
    m = (n + 1) // 2
    window = want[-1] - (want[m - 2] if m > 1 else 0.0)
    assert abs(angle_sum(sys, subspace_from_spanning(b0), m, n) - window) <= 1e-10 * max(abs(window), 1.0)


def _count_stacked_qrs(monkeypatch):
    # the length of each stack of nodes the carrier orthonormalizes; a
    # segment start is a stack of one basis here and is not counted
    calls, kernel = [], blocks.qr
    monkeypatch.setattr(blocks, "qr", lambda w: (len(w) > 1 and calls.append(len(w))) or kernel(w))
    return calls


def test_constant_orthogonal_map_is_one_block(monkeypatch):
    calls = _count_stacked_qrs(monkeypatch)
    q = random_orthogonal(np.random.default_rng(2), 5)
    v = haar_subspace(np.random.default_rng(3), 5, 2)
    angle_sum(DiscreteSystem.constant(q), v, 1, _MAX_BLOCK)
    assert calls == [_MAX_BLOCK]


def test_well_conditioned_cycle_is_one_batch_per_chunk(monkeypatch):
    # segments that pass the condition test are propagated a chunk at a
    # time, so the cost of a step does not depend on where cond would cut;
    # the angles between consecutive nodes are one kernel call per block
    calls, kernel_calls = _count_stacked_qrs(monkeypatch), []
    kernel = grassmann.max_angles
    monkeypatch.setattr(grassmann, "max_angles", lambda b1, b2: kernel_calls.append(len(b2)) or kernel(b1, b2))
    rng = np.random.default_rng(4)
    mats = [random_orthogonal(rng, 3) @ np.diag(rng.uniform(0.5, 2.0, 3)) for _ in range(8)]
    v = haar_subspace(rng, 3, 2)
    sys, n = DiscreteSystem.from_sequence(mats, cycle=True), 2 * _MAX_BLOCK - 12
    total = angle_sum(sys, v, 1, n)
    assert calls == [_MAX_BLOCK, _MAX_BLOCK]  # identity maps pad the last segment
    assert kernel_calls == [_MAX_BLOCK, n - _MAX_BLOCK]  # padding dropped
    assert total == pytest.approx(_stepwise_sums(sys, v.basis, n)[-1], rel=1e-12)


def test_failing_segments_halve_down_to_single_maps():
    # two maps of the gap cycle pass the condition test (cond 1e3) and three
    # do not, so its segments are halved down to 2 maps; with a column scaled
    # by 1e-5 every map fails alone and is accepted as one step.  Either way
    # a chunk is one block, and the sums match the per-step loop
    sys, b0, n = _GAP_CYCLE
    steep = DiscreteSystem.from_sequence([sys.matrix(k) @ np.diag([1.0, 1e-5, 1.0, 1.0]) for k in (0, 1)], cycle=True)
    for cycle, size in ((sys, 2), (steep, 1)):
        maps = np.array([cycle.matrix(k) for k in range(_MAX_BLOCK)])
        layout = [(*p.shape[:2], len(e)) for p, e in _segment_blocks([(maps, range(1, _MAX_BLOCK + 1))])]
        assert layout == [(_MAX_BLOCK // size, size, _MAX_BLOCK)]
        (got,) = _propagator(cycle, n)(b0[None], np.arange(1, n + 1))
        want = _stepwise_sums(cycle, b0, n)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1.0))


_ONE_CANDIDATE = SubspaceSearchConfig(seed=0, candidates=1, refine_rounds=0)


def _discrete_run(n):
    sys = DiscreteSystem.planar_rotation(rho=1.0, phi=0.3)
    total = angle_sum(sys, coordinate_subspace(2, [0]), 1, n)
    return total / n, estimate_angular_value(sys, 1, "sup-limsup", n, _ONE_CANDIDATE)


def _continuous_run(n):
    # n RK4 steps of h = 0.01 of the rotation at angular speed 0.3
    sys = ContinuousSystem.model2d(rho=1.0, omega=0.3)
    total = angular_integral(sys, coordinate_subspace(2, [0]), 0.0, 0.01 * n, 0.01)
    return total / (0.01 * n), estimate_angular_value_ct(sys, 1, "sup-limsup", 0.01 * n, 0.01, _ONE_CANDIDATE)


@pytest.mark.parametrize("run", [_discrete_run, _continuous_run], ids=["discrete", "continuous"])
def test_memory_is_bounded_by_the_block_not_the_horizon(run):
    # an array of n angles or angular speeds alone would take 1.6 MB; the
    # angle per step, or the angular speed, is 0.3
    n = 2 * 10**5
    # numpy's first Generator and QR allocate about 1 MB once; keep that out
    run(10)
    tracemalloc.start()
    try:
        average, rep = run(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert average == pytest.approx(0.3, rel=1e-10)
    assert rep.evaluations == 1 and rep.value == pytest.approx(0.3, rel=1e-10)
    assert peak < 10**6, "peak %d bytes" % peak


def test_tail_falls_back_to_the_last_sample_time():
    # no sample time reaches horizon * TAIL_FRACTION = 500, so the tail
    # window is the last sample alone: the best candidate's average at n = 2
    sys = DiscreteSystem.planar_rotation(0.6, 0.7)
    cfg = SubspaceSearchConfig(seed=0, sample_times=[1, 2])
    rep = estimate_angular_value(sys, 1, "sup-limsup", 1000, cfg)
    want = angle_sum(sys, subspace_from_spanning(rep.best_basis), 1, 2) / 2
    assert rep.tail_sup == rep.tail_inf == rep.value
    assert rep.tail_sup == pytest.approx(want, rel=1e-12)
