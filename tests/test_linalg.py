import inspect
import math
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import angval
from angval import linalg
from angval.autonomous import SchurSpec
from angval.discrete import DiscreteSystem, angle_sum
from angval.errors import InvalidBlock, NoConvergence, RankDeficient
from angval.grassmann import Subspace
from angval.linalg import (
    ComplexBlock,
    RealBlock,
    block_flow,
    qr,
    qr_thin,
    rotation,
    spectral_norm,
    svd,
)


def test_qr_thin_random_full_rank():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((5, 2))
        q, r = qr_thin(m)
        assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-12
        assert np.linalg.norm(q @ r - m) <= 1e-10 * np.linalg.norm(m)
        assert np.all(np.diag(r) >= 0.0)
        assert np.allclose(r, np.triu(r))


def test_qr_thin_single_column():
    q, r = qr_thin(np.array([[3.0], [4.0]]))
    assert np.allclose(q[:, 0], [0.6, 0.8])
    assert r[0, 0] == pytest.approx(5.0)


def test_qr_thin_rank_deficient_raises():
    m = np.ones((5, 2))  # duplicate columns
    with pytest.raises(RankDeficient):
        qr_thin(m)
    with pytest.raises(RankDeficient):
        qr_thin(np.zeros((4, 1)))


def test_qr_thin_rejects_wide_and_non_finite():
    with pytest.raises(ValueError):
        qr_thin(np.ones((2, 3)))
    with pytest.raises(ValueError, match="d >= s >= 1"):
        qr_thin(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        qr_thin(np.array([[np.nan], [1.0]]))


@st.composite
def _scaled_stacks(draw):
    """A Gaussian (n, d, s) stack, d <= 6, s <= d, and one exponent k in
    [-1000, 1000] per member."""
    d = draw(st.integers(1, 6))
    s = draw(st.integers(1, d))
    n = draw(st.integers(1, 4))
    w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d, s))
    k = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)))
    return w, k[:, None, None]


@settings(max_examples=300, deadline=None)
@given(_scaled_stacks())
def test_qr_kernel_is_exact_under_power_of_two_scaling(case):
    w, k = case
    scaled = np.ldexp(w, k)
    assume(np.array_equal(np.ldexp(scaled, -k), w))  # no entry went subnormal
    q, r = qr(scaled)
    s = w.shape[-1]
    assert np.abs(q.swapaxes(-1, -2) @ q - np.eye(s)).max() <= 1e-14
    # R is scaled back exactly, so it is compared at the unscaled size
    err = np.linalg.norm(q @ np.ldexp(r, -k) - w, axis=(-2, -1))
    assert (err <= 1e-14 * np.linalg.norm(w, axis=(-2, -1))).all()
    assert (np.diagonal(r, axis1=-2, axis2=-1) >= 0.0).all()
    q0, _ = qr(w)
    assert np.array_equal(q, q0)
    if s >= 2:
        # the common path is numpy's QR with the signs of diag R moved into Q
        qn, rn = np.linalg.qr(w)
        assert np.array_equal(q0, qn * np.sign(np.diagonal(rn, axis1=-2, axis2=-1))[..., None, :])
        scaled[-1, :, -1] = scaled[-1, :, 0]
        with pytest.raises(RankDeficient):
            qr(scaled)


def test_one_module_decides_orthonormal_bases():
    # the sign fix and the rank test of every basis live in linalg.qr, which
    # is the one caller of np.linalg.qr; oracles.py keeps its own QR and rank
    # test on purpose, as an independent reference
    for path in Path(linalg.__file__).parent.glob("*.py"):
        text = path.read_text()
        if path.name == "linalg.py":
            assert text.count("np.linalg.qr(") == 1
        elif path.name != "oracles.py":
            assert "np.linalg.qr" not in text, path.name
            assert not re.search(r"RANK_TOL\s*=[^=]|\btol\s*=\s*(None|1e-10)\b", text), path.name


def test_only_the_ratio_readers_take_a_tolerance():
    # rank, gate and equality decisions read module constants; the two
    # continued-fraction readers take tol because their callers need two:
    # 1e-9 for the sweep grid and 1e-12 for the rationality gate
    takers = set()
    for info in pkgutil.iter_modules(angval.__path__):
        if info.name == "oracles":
            continue
        module = import_module("angval." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            functions = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                functions += [(name + "." + key, fn) for key, fn in vars(obj).items() if inspect.isfunction(fn)]
            takers.update(label for label, fn in functions if "tol" in inspect.signature(fn).parameters)
    assert takers == {"classify_ratio", "rational_approximation"}


def test_svd_diagonal_exact():
    f = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(f.sigma, [3.0, 2.0, 1.0])
    assert np.linalg.norm(f.reconstruct() - np.diag([3.0, 2.0, 1.0])) <= 1e-12


def test_svd_random_reconstruction():
    rng = np.random.default_rng(11)
    shapes = [(2, 2), (5, 3), (3, 5), (8, 8), (32, 6), (6, 32), (32, 32)]
    for shape in shapes:
        for _ in range(3):
            m = rng.standard_normal(shape)
            f = svd(m)
            k = min(shape)
            assert np.linalg.norm(f.reconstruct() - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(f.y.T @ f.y - np.eye(k)) <= 1e-12
            assert np.linalg.norm(f.z.T @ f.z - np.eye(k)) <= 1e-12
            assert np.all(np.diff(f.sigma) <= 1e-14)
            assert np.all(f.sigma >= 0.0)


def test_svd_matches_reference_singular_values():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = rng.standard_normal((7, 4))
        f = svd(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(f.sigma, ref, atol=1e-11)


def test_svd_small_singular_value_relative_accuracy():
    # Columns almost parallel: the small sigma must keep relative accuracy.
    eps = 1e-9
    m = np.array([[1.0, 1.0], [0.0, eps]])
    f = svd(m)
    ref = np.linalg.svd(m, compute_uv=False)
    assert f.sigma[1] == pytest.approx(ref[1], rel=1e-6)
    assert f.sigma[1] > 0


def test_svd_zero_matrix():
    f = svd(np.zeros((2, 2)))
    assert np.allclose(f.sigma, 0.0)
    assert np.linalg.norm(f.y.T @ f.y - np.eye(2)) <= 1e-12
    assert np.linalg.norm(f.z.T @ f.z - np.eye(2)) <= 1e-12


def test_svd_graded_columns_small_sigma_relative_accuracy():
    # A = B D with D = diag(10^-linspace(0, 15, d)): sigma_min(A) is
    # 1 / ||D^-1 B^-1||, which the well-conditioned B gives to working
    # precision.  A backward-stable SVD must match it in relative terms.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 9))
        b = rng.standard_normal((d, d))
        grading = 10.0 ** -np.linspace(0.0, 15.0, d)
        ref = 1.0 / np.linalg.norm(np.linalg.inv(b) / grading[:, None], 2)
        sigma_min = svd(b * grading).sigma[-1]
        assert abs(sigma_min - ref) <= 1e-10 * ref, (seed, d)


def test_svd_lapack_failure_is_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence):
        svd(np.eye(3))
    with pytest.raises(NoConvergence):
        spectral_norm(np.eye(3))
    # the condition test of the block path's products
    cycle = DiscreteSystem.from_sequence([np.diag([2.0, 1.0]), rotation(0.3)], cycle=True)
    with pytest.raises(NoConvergence):
        angle_sum(cycle, Subspace(np.eye(2)[:, :1]), 1, 40)


def test_spectral_norm_values():
    assert spectral_norm(np.diag([3.0, 2.0])) == pytest.approx(3.0)
    rng = np.random.default_rng(17)
    for shape in [(4, 1), (2, 5), (6, 6), (5, 3), (9, 9)]:
        m = rng.standard_normal(shape)
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-11)
    sym = rng.standard_normal((7, 7))
    sym = sym + sym.T
    assert spectral_norm(sym) == pytest.approx(np.linalg.norm(sym, 2), abs=1e-11)


def test_block_flow_half_turn_is_minus_identity():
    b = ComplexBlock(beta=0.0, omega=1.0, rho=1.0 / 3.0)
    assert np.allclose(block_flow(b, math.pi), -np.eye(2), atol=1e-12)


def test_block_flow_quarter_turn_circle():
    b = ComplexBlock(beta=0.0, omega=math.pi / 2.0, rho=1.0)
    assert np.allclose(block_flow(b, 1.0), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)


def test_block_flow_group_property():
    rng = np.random.default_rng(19)
    b = ComplexBlock(beta=0.4, omega=1.7, rho=0.6)
    for _ in range(20):
        t, s = rng.uniform(-2.0, 2.0, size=2)
        lhs = block_flow(b, t) @ block_flow(b, s)
        rhs = block_flow(b, t + s)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_block_flow_periodicity_at_zero_growth():
    b = ComplexBlock(beta=0.0, omega=2.3, rho=0.25)
    period = 2.0 * math.pi / b.omega
    assert np.allclose(block_flow(b, period), np.eye(2), atol=1e-12)


def test_block_flow_real_block():
    assert block_flow(RealBlock(beta=-0.5), 2.0)[0, 0] == pytest.approx(math.exp(-1.0))


def test_block_flow_matches_block_matrix_derivative():
    # d/dt flow(t) at 0 equals the block matrix.
    b = ComplexBlock(beta=0.2, omega=1.3, rho=0.5)
    h = 1e-6
    fd = (block_flow(b, h) - block_flow(b, -h)) / (2.0 * h)
    assert np.allclose(fd, b.matrix(), atol=1e-8)


def test_invalid_block_parameters():
    with pytest.raises(InvalidBlock):
        ComplexBlock(beta=0.0, omega=1.0, rho=0.0)
    with pytest.raises(InvalidBlock):
        ComplexBlock(beta=0.0, omega=1.0, rho=1.5)
    with pytest.raises(InvalidBlock):
        ComplexBlock(beta=0.0, omega=-1.0, rho=0.5)
    with pytest.raises(InvalidBlock):
        ComplexBlock(beta=0.0, omega=0.0, rho=0.5)
    # non-finite parameters; a nan real part compared false, so SchurSpec
    # passed the increasing real parts 0, nan, 1
    for make in (
        lambda: RealBlock(math.nan),
        lambda: RealBlock(-math.inf),
        lambda: ComplexBlock(beta=math.inf, omega=1.0, rho=0.5),
        lambda: ComplexBlock(beta=0.0, omega=math.inf, rho=0.5),
        lambda: SchurSpec((RealBlock(0.0), RealBlock(math.nan), RealBlock(1.0))),
    ):
        with pytest.raises(InvalidBlock, match="must be .*finite"):
            make()


def test_rotation_matrix():
    assert np.allclose(rotation(math.pi / 2.0), [[0.0, -1.0], [1.0, 0.0]])
