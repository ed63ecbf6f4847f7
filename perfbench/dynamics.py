"""`dynamics` part: propagation loops and the multistart estimators.

(a) `continuous.angular_integral` on seeded criterion-3 style two-block
    4x4 specs at h = 0.02: s = 2 (plane) and s = 1 (line), and the plane
    after `kinematic_transform_ct` with Q(t) = (1 + sin(t)/2) I (varying).
(b) `discrete.angle_sum` on a period-8 `cycle` system in R^3 at s = 2
    (plane) and on a constant orthogonal 6x6 map at s = 3 (wide).
(c) `angval discrete` on planar_rotation(0.6, 0.7) and on a 4x4 orthogonal
    map with rotation angles (0.9, 0.4) in a seeded frame, and
    `angval continuous` on model2d(1/3, 1.3).
A round runs the long plane of one spec (the two take turns) and every
other unit once, dt.wide and the continuous estimate twice; the probe units
run (a) without the long plane and (b) once for each estimate call of (c).
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

import reference as ref
from harness import read_csv, repeat, run_cli

H = 0.02
T_PLANE = 400.0  # s = 2 time average
T_LINE = 100.0  # s = 1 time average
T_VARYING = 5.0  # the time-varying run and its constant twin
TOL_AVERAGE = 2e-2  # criterion 3's tolerance on time averages
TOL_TRACE_SHIFT = 1e-6  # relative, RK4 on A versus on A + (q'/q) I
N_CYCLE = 500
N_WIDE = 200
WIDE_POOL = 4
WIDE_ANGLES = (1.1, 0.7, 0.3)
ORTH4_ANGLES = (0.9, 0.4)
PLANAR = (0.6, 0.7)  # rho, phi
MODEL2D = (1.0 / 3.0, 1.3)  # rho, omega
TOL_ANGLE_SUM = 1e-9  # relative to the sum


def haar(rng, d, s):
    q, r = np.linalg.qr(rng.standard_normal((d, s)))
    return q * np.sign(np.diag(r))


def ct_spec(rng):
    """Two blocks (0, w1, r1), (-1, w2, r2) with w2/w1 at least 1e-9 away from
    every p/q with q <= 1e4, and block-aligned starting line and plane, as in
    criterion 3."""
    while True:
        w1 = float(rng.uniform(0.5, 1.5))
        w2 = w1 * float(rng.uniform(0.35, 0.95))
        if abs(w1 / w2 - Fraction(w1 / w2).limit_denominator(10**4)) > 1e-9:
            break
    r1, r2 = (float(x) for x in rng.uniform(0.3, 1.0, 2))
    a, b = (float(x) for x in rng.uniform(0.0, math.pi, 2))
    plane = np.zeros((4, 2))
    plane[0, 0], plane[1, 0] = math.cos(a), math.sin(a)
    plane[2, 1], plane[3, 1] = math.cos(b), math.sin(b)
    return {"w": (w1, w2), "r": (r1, r2), "plane": plane, "line": plane[:, :1].copy()}


def q_scalar(t):
    return (1.0 + 0.5 * math.sin(t)) * np.eye(4)


def qdot_scalar(t):
    return 0.5 * math.cos(t) * np.eye(4)


class DynamicsPart:
    name = "dynamics"

    def __init__(self, bench, rng):
        from angval.autonomous import SchurSpec
        from angval.linalg import ComplexBlock

        self.bench = bench
        self.dir = os.path.join(bench.run_dir, "dynamics")
        os.makedirs(self.dir, exist_ok=True)
        self.seed = int(rng.integers(0, 2**31))
        self.specs = []
        for _ in range(2):
            sp = ct_spec(rng)
            sp["schur"] = SchurSpec(
                (ComplexBlock(0.0, sp["w"][0], sp["r"][0]), ComplexBlock(-1.0, sp["w"][1], sp["r"][1]))
            )
            sp["torus"] = ref.torus_max_mean(list(zip(sp["w"], sp["r"])))
            self.specs.append(sp)
        self.turn = 0  # the spec the ct units use; advanced by each long plane
        self.cycle = []
        for _ in range(8):
            self.cycle.append(haar(rng, 3, 3) @ np.diag(rng.uniform(0.5, 2.0, 3)) @ haar(rng, 3, 3).T)
        self.cycle_v0 = haar(rng, 3, 2)
        self.cycle_ref = ref.angle_sum_np(self.cycle, self.cycle_v0, N_CYCLE)
        # the Jacobi SVD's sweep count, and so the cost of a wide step,
        # depends on the input: a pool of four averages that out per run
        self.wides = []
        for _ in range(WIDE_POOL):
            frame6 = haar(rng, 6, 6)
            wide = frame6 @ ref.block_rotation_np(WIDE_ANGLES) @ frame6.T
            v0 = haar(rng, 6, 3)
            self.wides.append((wide, v0, ref.angle_sum_np([wide], v0, N_WIDE)))
        self.wide_turn = 0
        frame4 = haar(rng, 4, 4)
        orth4 = frame4 @ ref.block_rotation_np(ORTH4_ANGLES) @ frame4.T
        self.estimates = [
            ("discrete", "planar", {
                "system": {"kind": "planar_rotation", "rho": PLANAR[0], "phi": PLANAR[1]},
                "s": 1, "variant": "sup-limsup", "horizon": 1000,
                "search": {"candidates": 6, "refine_rounds": 2},
            }),
            ("discrete", "orth4", {
                "system": {"kind": "constant", "matrix": orth4.tolist()},
                "s": 2, "variant": "sup-limsup", "horizon": 100,
                "search": {"candidates": 4, "refine_rounds": 1},
            }),
            ("continuous", "model2d", {
                "system": {"kind": "model2d", "rho": MODEL2D[0], "omega": MODEL2D[1]},
                "s": 1, "variant": "sup-limsup", "horizon": 200, "step": 0.1,
                "search": {"candidates": 4, "refine_rounds": 1},
            }),
        ]
        self.paths = {}
        for _, name, cfg in self.estimates:
            self.paths[name] = self._write(name + ".json", cfg)
        self.planar_ref = ref.planar_circle_average(*PLANAR)

    def _write(self, fname, cfg):
        path = os.path.join(self.dir, fname)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def warmup(self):
        from angval import continuous
        from angval.grassmann import Subspace

        sp = self.specs[0]
        self.bench.call(
            "warmup", "continuous.angular_integral", continuous.angular_integral,
            sp["schur"].system(), Subspace(sp["plane"]), 0.0, 1.0, H,
        )

    def round_units(self):
        # one long plane per round (it carries the torus check), the specs
        # taking turns, then every short unit once
        return [self._next_plane] + self._ct_dt_units() + self._estimate_units()

    def probe_units(self):
        # (a) and (b) once per estimate, so that their five metrics are
        # sampled as often as the estimates in the probe's share of the run
        return [u for est in self._estimate_units() for u in self._ct_dt_units() + [est]]

    def _next_plane(self):
        self.turn = (self.turn + 1) % len(self.specs)
        self._plane(self.turn)

    # dt.wide and the one continuous estimate vary most from call to call,
    # so they run twice as often as the other units
    def _ct_dt_units(self):
        return [lambda: self._line(self.turn), lambda: self._varying(self.turn), self._dt_plane,
                self._dt_wide, self._dt_wide]

    def _estimate_units(self):
        return [lambda k=k: self._estimate(k) for k in (0, 1, 2, 2)]

    def _integral(self, kind, cls, system, basis, t_end):
        from angval import continuous
        from angval.grassmann import Subspace

        steps = int(round(t_end / H))
        val, dt = self.bench.call(
            kind, "continuous.angular_integral", continuous.angular_integral,
            system, Subspace(basis), 0.0, t_end, H, tag=kind.split(".")[1], work=steps,
        )
        if val is not None:
            self.bench.sample(kind + ".steps_per_s", cls, steps, dt)
        return val

    def _line(self, i):
        sp = self.specs[i]
        line = self._integral("ct.line", "long", sp["schur"].system(), sp["line"], T_LINE)
        if line is not None:
            self.bench.check("dynamics.ct[%d].line_average=omega1" % i, line / T_LINE, sp["w"][0], TOL_AVERAGE)

    def _plane(self, i):
        sp = self.specs[i]
        plane = self._integral("ct.plane", "long", sp["schur"].system(), sp["plane"], T_PLANE)
        if plane is not None:
            self.bench.check("dynamics.ct[%d].plane_average=torus" % i, plane / T_PLANE, sp["torus"], TOL_AVERAGE)

    def _varying(self, i):
        from angval import continuous

        sp = self.specs[i]
        system = sp["schur"].system()
        varying_sys = continuous.kinematic_transform_ct(system, q_scalar, qdot_scalar)
        varying = self._integral("ct.varying", "short", varying_sys, sp["plane"], T_VARYING)
        const = self._integral("ct.plane", "short", system, sp["plane"], T_VARYING)
        if varying is not None and const is not None:
            self.bench.check("dynamics.ct[%d].trace_shift" % i, varying, const,
                             TOL_TRACE_SHIFT * max(1.0, abs(const)))

    def _angle_sum(self, kind, system, v0, n, want):
        from angval import discrete
        from angval.grassmann import Subspace

        tag = kind.split(".")[1]
        got, dt = self.bench.call(kind, "discrete.angle_sum", discrete.angle_sum,
                                  system, Subspace(v0), 1, n, tag=tag, work=n)
        if got is not None:
            self.bench.sample(kind + ".steps_per_s", tag, n, dt)
            self.bench.check("dynamics.%s.angle_sum=numpy" % tag, got, want,
                             TOL_ANGLE_SUM * max(1.0, abs(want)))
        return got

    def _dt_plane(self):
        from angval.discrete import DiscreteSystem

        cyc = DiscreteSystem.from_sequence(self.cycle, cycle=True)
        self._angle_sum("dt.plane", cyc, self.cycle_v0, N_CYCLE, self.cycle_ref)

    def _dt_wide(self):
        from angval.discrete import DiscreteSystem

        wide, v0, want = self.wides[self.wide_turn]
        self.wide_turn = (self.wide_turn + 1) % WIDE_POOL
        got = self._angle_sum("dt.wide", DiscreteSystem.constant(wide), v0, N_WIDE, want)
        if got is not None:
            self.bench.check_le("dynamics.wide.angle_sum<=n*max_angle", got, N_WIDE * max(WIDE_ANGLES) + 1e-9)

    def _estimate(self, k):
        time_kind, name, _ = self.estimates[k]
        out = os.path.join(self.dir, name + ".csv")
        text, dt = run_cli(
            self.bench, "estimate." + time_kind,
            [time_kind, "--config", self.paths[name], "--seed", str(self.seed), "--out", out],
        )
        if text is not None:
            row = read_csv(out)[0]
            self.bench.sample("estimate.%s.evals_per_s" % time_kind, name, int(row["evaluations"]), dt)
            self._check_estimate(name, float(row["value"]))

    def _check_estimate(self, name, value):
        b = self.bench
        if name == "planar":
            b.check("dynamics.estimate.planar=circle_average", value, self.planar_ref, 5e-3)
        elif name == "orth4":
            b.check_le("dynamics.estimate.orth4<=max_angle", value, max(ORTH4_ANGLES) + 1e-9)
        else:
            b.check("dynamics.estimate.model2d=omega", value, MODEL2D[1], TOL_AVERAGE)

    def layers(self):
        """Per-step costs from the round's spans, direct estimator calls, and
        the CLI's own cost on a small estimate."""
        from angval import continuous, discrete
        from angval.cli import build_continuous_system, build_discrete_system, build_search_config

        b = self.bench
        out = {}
        for tag in ("line", "plane", "varying"):
            out["continuous.angular_integral.%s.us_per_step" % tag] = b.layer_us(
                "continuous.angular_integral", tag)
        for tag in ("plane", "wide"):
            out["discrete.angle_sum.%s.us_per_step" % tag] = b.layer_us("discrete.angle_sum", tag)
        evals = {"discrete": 0, "continuous": 0}
        spent = {"discrete": 0.0, "continuous": 0.0}
        for time_kind, name, cfg in self.estimates:
            search = build_search_config(cfg, self.seed)
            if time_kind == "discrete":
                fn = discrete.estimate_angular_value
                args = (build_discrete_system(cfg["system"]), cfg["s"], cfg["variant"], cfg["horizon"], search)
            else:
                fn = continuous.estimate_angular_value_ct
                args = (build_continuous_system(cfg["system"]), cfg["s"], cfg["variant"],
                        cfg["horizon"], cfg["step"], search)
            runs = []
            for _ in range(3):
                rep, dt = b.call("layer." + time_kind, "%s.%s" % (time_kind, fn.__name__), fn, *args, tag=name)
                if rep is not None:
                    self._check_estimate(name, rep.value)
                    runs.append((dt, b.last_mid))
            if runs:
                spent[time_kind] += b.calibrated(runs)
                evals[time_kind] += rep.evaluations
        for time_kind in ("discrete", "continuous"):
            out["%s.estimate.ms_per_eval" % time_kind] = spent[time_kind] * 1e3 / evals[time_kind]
            out["search.evaluations.%s" % time_kind] = evals[time_kind]
        out["cli.estimate.self_ms"] = self._cli_self_ms()
        out.update(self._kernels())
        return out

    def _cli_self_ms(self, pairs=7):
        """`angval discrete` time minus the direct estimator time on one small config."""
        from angval import discrete
        from angval.cli import build_discrete_system, build_search_config

        b = self.bench
        cfg = {
            "system": {"kind": "planar_rotation", "rho": PLANAR[0], "phi": PLANAR[1]},
            "s": 1, "variant": "sup-limsup", "horizon": 200,
            "search": {"candidates": 2, "refine_rounds": 1},
        }
        path = self._write("self.json", cfg)
        cli_t, lib_t = [], []
        for k in range(pairs):
            for which in ((0, 1) if k % 2 == 0 else (1, 0)):
                if which == 0:
                    text, dt = run_cli(b, "layer.cli", ["discrete", "--config", path, "--seed", "1",
                                                        "--out", path + ".csv"])
                    if text is not None:
                        cli_t.append((dt, b.last_mid))
                else:
                    rep, dt = b.call(
                        "layer.discrete", "discrete.estimate_angular_value", discrete.estimate_angular_value,
                        build_discrete_system(cfg["system"]), 1, "sup-limsup", 200,
                        build_search_config(cfg, 1), tag="self",
                    )
                    if rep is not None:
                        lib_t.append((dt, b.last_mid))
        return (b.calibrated(cli_t) - b.calibrated(lib_t)) * 1e3

    def _kernels(self, batches=9, per=50):
        """qr_thin on propagated bases and max_angle_between_bases at s = 1, 2, 3."""
        from angval import grassmann, linalg

        b = self.bench
        out = {}
        rng = np.random.default_rng(self.seed)
        sp = self.specs[0]
        step = sp["schur"].flow(H)
        b42 = step @ sp["plane"]
        wide, wide_v0, _ = self.wides[0]
        b63 = wide @ wide_v0
        x = haar(rng, 3, 1)
        cases = {
            "linalg.qr_thin.4x2": (linalg.qr_thin, (b42,)),
            "linalg.qr_thin.6x3": (linalg.qr_thin, (b63,)),
            "grassmann.max_angle.s1": (grassmann.max_angle_between_bases, (x, ref.orthonormal_np(self.cycle[0] @ x))),
            "grassmann.max_angle.s2": (
                grassmann.max_angle_between_bases,
                (ref.orthonormal_np(self.cycle_v0), ref.orthonormal_np(self.cycle[0] @ self.cycle_v0)),
            ),
            "grassmann.max_angle.s3": (
                grassmann.max_angle_between_bases, (ref.orthonormal_np(wide_v0), ref.orthonormal_np(b63))
            ),
        }
        for metric, (fn, args) in cases.items():
            name, tag = metric.rsplit(".", 1)
            for _ in range(batches):
                res, _ = b.call("layer.kernel", name, repeat, fn, args, per, tag=tag, work=per)
            if res is not None:
                if name == "linalg.qr_thin":
                    q, r = res
                    b.check("layer.%s.reconstruct" % metric, float(np.abs(q @ r - args[0]).max()), 0.0, 1e-12)
                else:
                    b.check("layer.%s=numpy" % metric, res, ref.max_angle_np(*args), 1e-12)
            out[metric + ".us"] = b.layer_us(name, tag)
        return out

