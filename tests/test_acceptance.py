"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL (...)` line on the live
terminal in addition to the usual pytest verdict.  Tolerances and budgets
are stated inline next to each check.
"""

import json
import math
import time

import numpy as np
import pytest

from angval.autonomous import (
    SchurSpec,
    admissible_sets,
    angular_value_irrational,
    rational_independence_gate,
)
from angval.cli import main
from angval.continuous import ContinuousSystem, angular_integral, estimate_angular_value_ct
from angval.discrete import DiscreteSystem, angle_sum, estimate_angular_value, kinematic_transform
from angval.grassmann import (
    Subspace,
    max_angle,
    metric_d1,
    metric_d2,
    metric_dF,
    metric_dsigma,
    subspace_from_spanning,
)
from angval.linalg import ComplexBlock, RealBlock
from angval.oracles import fd_angle_derivative, maxmin_angle
from angval.search import SubspaceSearchConfig
from angval.semicontinuity import hairy_sweep
from angval.smoothness import (
    CurvePoint,
    angle_derivative_flow,
    angle_derivative_right,
    check_angle_bound,
    check_lipschitz,
    check_near_identity,
    tan_angle_bound_vectors,
)

SQ2 = 1.0 / math.sqrt(2.0)
HEADLINE = 1.2693394


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print("criterion %d: %s (%s)" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (n, detail)


def headline_spec():
    return SchurSpec(
        (ComplexBlock(0.0, 1.0, 1.0 / 3.0), ComplexBlock(-1.0, SQ2, 0.25))
    )


def test_criterion_01_headline_number(tmp_path, capsys):
    cfg = tmp_path / "a4.json"
    cfg.write_text(
        json.dumps(
            {
                "blocks": [
                    {"beta": 0.0, "omega": 1.0, "rho": 1.0 / 3.0},
                    {"beta": -1.0, "omega": SQ2, "rho": 0.25},
                ],
                "s": 2,
            }
        )
    )
    t0 = time.time()
    code = main(["autonomous", "--config", str(cfg)])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    val = [float(l.split("=")[1]) for l in out.splitlines() if l.startswith("value =")][0]
    err = abs(val - HEADLINE)
    ok = code == 0 and err <= 1e-5 and elapsed < 60.0
    report(capsys, 1, ok, "cmd_autonomous value %.7f, |err| %.1e <= 1e-5, %.1fs < 60s" % (val, err, elapsed))


def test_criterion_02_model2d_closed_form_and_time_average(capsys):
    omega = 1.25
    spec = SchurSpec((ComplexBlock(0.0, omega, 1.0 / 3.0),))
    closed = angular_value_irrational(1, spec).value
    err_closed = abs(closed - omega)

    horizon = 200.0 * math.pi
    t0 = time.time()
    cfg = SubspaceSearchConfig(seed=3, candidates=2, refine_rounds=0, sample_times=[horizon])
    rep = estimate_angular_value_ct(
        ContinuousSystem.model2d(1.0 / 3.0, 1.0), 1, "sup-limsup", horizon, 1e-3, cfg
    )
    elapsed = time.time() - t0
    err_avg = abs(rep.value - 1.0)
    ok = err_closed <= 1e-10 and err_avg <= 1e-3 and elapsed < 30.0
    report(
        capsys,
        2,
        ok,
        "closed-form err %.1e <= 1e-10, time-average err %.1e <= 1e-3, %.1fs < 30s"
        % (err_closed, err_avg, elapsed),
    )


def test_criterion_03_birkhoff_consistency(capsys):
    rng = np.random.default_rng(20260814)
    t0 = time.time()
    worst = 0.0
    for _ in range(5):
        while True:
            w1 = rng.uniform(0.5, 1.5)
            w2 = w1 * rng.uniform(0.35, 0.95)
            if rational_independence_gate([w1, w2]).independent:
                break
        r1 = rng.uniform(0.3, 1.0)
        r2 = rng.uniform(0.3, 1.0)
        spec = SchurSpec((ComplexBlock(0.0, w1, r1), ComplexBlock(-1.0, w2, r2)))
        want = angular_value_irrational(2, spec).value
        a, b = rng.uniform(0.0, math.pi, size=2)
        w = np.zeros((4, 2))
        w[0, 0], w[1, 0] = math.cos(a), math.sin(a)
        w[2, 1], w[3, 1] = math.cos(b), math.sin(b)
        got = angular_integral(spec.system(), Subspace(w), 0.0, 2.0e4, 0.02) / 2.0e4
        worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    ok = worst <= 2e-2 and elapsed < 600.0
    report(capsys, 3, ok, "5 specs, worst |avg - quad| %.1e <= 2e-2, %.0fs < 600s" % (worst, elapsed))


def test_criterion_04_metric_suite(capsys):
    rng = np.random.default_rng(44)
    metrics = (metric_d1, metric_d2, metric_dF, metric_dsigma)
    t0 = time.time()
    slack = 1e-9
    ok = True
    detail = "all checks held"
    for d in range(2, 7):
        for s in range(1, d):
            for _ in range(500):
                u = subspace_from_spanning(rng.standard_normal((d, s)))
                v = subspace_from_spanning(rng.standard_normal((d, s)))
                w = subspace_from_spanning(rng.standard_normal((d, s)))
                d1uv = metric_d1(u, v)
                d2uv = metric_d2(u, v)
                if abs(d2uv - math.sin(d1uv)) > slack:
                    ok, detail = False, "identity d2 = sin d1 broke"
                if abs(metric_dsigma(u, v) - 2.0 * math.sin(d1uv / 2.0)) > slack:
                    ok, detail = False, "identity dsigma = 2 sin(d1/2) broke"
                if not (2.0 / math.pi) * d1uv <= d2uv + slack or not d2uv <= d1uv + slack:
                    ok, detail = False, "bracket (2/pi) d1 <= d2 <= d1 broke"
                for m in metrics:
                    duv = m(u, v)
                    if abs(duv - m(v, u)) > slack:
                        ok, detail = False, "%s asymmetric" % m.__name__
                    if m(u, u) > slack or duv < -slack:
                        ok, detail = False, "%s indefinite" % m.__name__
                    if duv > m(u, w) + m(w, v) + slack:
                        ok, detail = False, "%s triangle broke" % m.__name__
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(capsys, 4, ok, "%s; 500 triples x 15 (d,s), %.0fs < 60s" % (detail, elapsed))


def test_criterion_05_derivative_correctness(capsys):
    rng = np.random.default_rng(55)
    steps = (1e-3, 1e-4, 1e-5)
    worst = dict.fromkeys(steps, 0.0)
    worst_inv = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        s = int(rng.integers(1, d))
        w, _ = np.linalg.qr(rng.standard_normal((d, s)))
        wdot = rng.standard_normal((d, s))
        wdot /= np.linalg.norm(wdot)
        want = angle_derivative_right(CurvePoint(w=w, wdot=wdot))
        for h in steps:
            worst[h] = max(worst[h], abs(fd_angle_derivative(w, wdot, h) - want))
        g = rng.standard_normal((s, s)) + 2.0 * np.eye(s)
        hmat = rng.standard_normal((s, s))
        worst_inv = max(
            worst_inv,
            abs(angle_derivative_right(CurvePoint(w=w @ g, wdot=wdot @ g)) - want),
            abs(angle_derivative_right(CurvePoint(w=w, wdot=wdot + w @ hmat)) - want),
        )
    ok = all(worst[h] <= 10.0 * h for h in steps) and worst_inv <= 1e-10
    report(
        capsys,
        5,
        ok,
        "200 curves, fd err %s vs 10h, invariance %.1e <= 1e-10"
        % (["%.1e" % worst[h] for h in steps], worst_inv),
    )


def test_criterion_06_bound_suite(capsys):
    rng = np.random.default_rng(66)
    t0 = time.time()
    fails = {"angle": 0, "tan": 0, "near": 0, "lip": 0}
    for _ in range(10**4):
        d = int(rng.integers(2, 6))
        s = int(rng.integers(1, d))
        v = subspace_from_spanning(rng.standard_normal((d, s)))
        w = subspace_from_spanning(rng.standard_normal((d, s)))
        smat = np.eye(d) + rng.uniform(0.0, 0.5) * rng.standard_normal((d, d)) / math.sqrt(d)
        if not check_angle_bound(smat, v, w).satisfied:
            fails["angle"] += 1
        if not check_near_identity(smat, v).satisfied:
            fails["near"] += 1
        if not check_lipschitz(smat, v, w).satisfied:
            fails["lip"] += 1
        vv = rng.standard_normal(d)
        ww = rng.standard_normal(d)
        ww /= np.linalg.norm(ww)
        vv *= rng.uniform(0.05, 0.95) / np.linalg.norm(vv)
        if not tan_angle_bound_vectors(vv, ww).satisfied:
            fails["tan"] += 1
    ok = not any(fails.values())
    report(
        capsys,
        6,
        ok,
        "10^4 instances x 4 inequalities, violations %s, %.0fs" % (fails, time.time() - t0),
    )


def test_criterion_07_oracle_equivalence(capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    pairs = 0
    for d in range(2, 5):
        for s in (1, 2):
            if s >= d:
                continue
            for k in range(25):
                v = subspace_from_spanning(rng.standard_normal((d, s)))
                w = subspace_from_spanning(rng.standard_normal((d, s)))
                got = maxmin_angle(v, w, samples=10**6, seed=100 * d + 10 * s + k)
                worst = max(worst, abs(got - max_angle(v, w)))
                pairs += 1
    ok = worst <= 2e-3
    report(capsys, 7, ok, "%d pairs, worst |maxmin - max_angle| %.1e <= 2e-3" % (pairs, worst))


def test_criterion_08_invariance(capsys):
    rng = np.random.default_rng(88)
    # (i) scalar kinematic transforms leave angle sums identical
    worst_scalar = 0.0
    for _ in range(20):
        mats = [rng.standard_normal((3, 3)) + 2.0 * np.eye(3) for _ in range(8)]
        sys_ = DiscreteSystem.from_sequence(mats, cycle=True)
        scaled = kinematic_transform(sys_, lambda n: (1.0 + 0.5 * math.sin(n)) * np.eye(3))
        v = subspace_from_spanning(rng.standard_normal((3, 2)))
        for m, n in ((1, 12), (3, 20)):
            worst_scalar = max(
                worst_scalar, abs(angle_sum(sys_, v, m, n) - angle_sum(scaled, v, m, n))
            )
    # (ii) asymptotically orthogonal transform moves the estimate by little
    base = DiscreteSystem.planar_rotation(0.6, 0.7)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    tilted = kinematic_transform(base, lambda n: np.eye(2) + (0.5 / (n + 1.0)) * skew)
    cfg = SubspaceSearchConfig(seed=9, candidates=8, refine_rounds=8, sample_times=[1000, 2000])
    v1 = estimate_angular_value(base, 1, "sup-limsup", 2000, cfg).value
    v2 = estimate_angular_value(tilted, 1, "sup-limsup", 2000, cfg).value
    drift = abs(v1 - v2)
    # (iii) trace shifts leave the continuous integrand pointwise invariant
    worst_shift = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 6))
        a = rng.standard_normal((d, d))
        v = subspace_from_spanning(rng.standard_normal((d, int(rng.integers(1, d)))))
        lam = rng.uniform(-5.0, 5.0)
        worst_shift = max(
            worst_shift,
            abs(angle_derivative_flow(a, v) - angle_derivative_flow(a + lam * np.eye(d), v)),
        )
    ok = worst_scalar <= 1e-12 and drift <= 0.02 and worst_shift <= 1e-12
    report(
        capsys,
        8,
        ok,
        "scalar kinematic %.1e <= 1e-12, asymptotic drift %.1e <= 0.02, trace shift %.1e <= 1e-12"
        % (worst_scalar, drift, worst_shift),
    )


def test_criterion_09_semicontinuity_dataset(capsys):
    t0 = time.time()
    cells = hairy_sweep(1.0, 1.0 / 3.0)
    elapsed = time.time() - t0
    by_rho = {}
    for c in cells:
        by_rho.setdefault(c.rho2, []).append(c)
    worst_bound = -math.inf
    worst_usc = -math.inf
    for row in by_rho.values():
        irrational = [c for c in row if not c.tag.rational]
        for c in row:
            if not c.tag.rational:
                continue
            worst_bound = max(worst_bound, max(1.0, c.kappa) - 1e-8 - c.value)
            nearest = min(irrational, key=lambda o: abs(o.kappa - c.kappa))
            worst_usc = max(worst_usc, nearest.value - c.value)
    target = [c for c in cells if abs(c.kappa - SQ2) < 1e-12 and c.rho2 == 0.25]
    err_headline = abs(target[0].value - HEADLINE) if target else math.inf
    ok = (
        worst_bound <= 0.0
        and worst_usc <= 5e-3
        and err_headline <= 1e-5
        and len(target) == 1
    )
    report(
        capsys,
        9,
        ok,
        "%d cells in %.0fs; rational >= max(omega)-1e-8 margin %.1e; usc gap %.1e <= 5e-3; "
        "headline cell err %.1e <= 1e-5"
        % (len(cells), elapsed, worst_bound, worst_usc, err_headline),
    )


def test_criterion_10_admissible_sets(capsys):
    spec = headline_spec()
    listings = {
        1: [(1,), (2,)],
        2: [(1, 2)],
        3: [(1,), (2,)],
    }
    ok = all(admissible_sets(s, spec, maximal_only=True) == want for s, want in listings.items())
    checked = 0
    for d in range(2, 9):
        for ncomplex in range(0, d // 2 + 1):
            nreal = d - 2 * ncomplex
            blocks = tuple(
                ComplexBlock(-float(i), 1.0 + 0.1 * i, 0.5) for i in range(ncomplex)
            ) + tuple(RealBlock(-float(ncomplex + i)) for i in range(nreal))
            sp = SchurSpec(blocks)
            for s in range(1, d):
                if admissible_sets(s, sp) != admissible_sets(d - s, sp):
                    ok = False
                checked += 1
    report(
        capsys,
        10,
        ok,
        "listings at s=1,2,3 exact; J(s) = J(d-s) on %d (spec, s) cases with d <= 8" % checked,
    )
