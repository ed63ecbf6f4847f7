"""`subspaces` part: angles, metrics, Procrustes, derivative and bounds.

A round holds one generic and one nearly aligned pair for every (d, s) with
2 <= d <= 8 and 1 <= s < d: 56 pairs.  Aligned pairs have min(s, d - s)
prescribed principal angles in [1e-6, 1e-3] (log-uniform) and the rest 0,
so the sine path runs.  Each pair goes through `principal_angles`, the four
metrics and `procrustes_min`, then `angle_derivative_right` at W = V with a
seeded velocity and the three bound checks with S = I + 1e-2 G / ||G||_2.
Rounds cycle through a pool of POOL seeded rounds; one round is one unit,
in the main loop and as a probe.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from harness import repeat

POOL = 4
DS = [(d, s) for d in range(2, 9) for s in range(1, d)]
FD_STEP = 1e-6
TOL_ANGLE = 1e-10
TOL_ALIGNED = 1e-12
TOL_IDENTITY = 1e-10
TOL_PROCRUSTES = 1e-8
TOL_FD = 1e-4


def haar(rng, d, s):
    q, r = np.linalg.qr(rng.standard_normal((d, s)))
    return q * np.sign(np.diag(r))


def make_pair(rng, d, s, aligned):
    q = haar(rng, d, d)
    v = q[:, :s]
    if aligned:
        k = min(s, d - s)
        theta = np.zeros(s)
        theta[:k] = 10.0 ** rng.uniform(-6.0, -3.0, k)
        w = v.copy()
        w[:, :k] = v[:, :k] * np.cos(theta[:k]) + q[:, s : s + k] * np.sin(theta[:k])
        prescribed = np.sort(theta)
    else:
        w = haar(rng, d, s)
        prescribed = None
    wdot = rng.standard_normal((d, s))
    wdot /= np.linalg.norm(wdot)
    g = rng.standard_normal((d, d))
    smat = np.eye(d) + 1e-2 * g / np.linalg.norm(g, 2)
    return {"d": d, "s": s, "v": v, "w": w, "wdot": wdot, "S": smat, "prescribed": prescribed,
            "tag": "aligned" if aligned else "generic"}


class SubspacesPart:
    name = "subspaces"

    def __init__(self, bench, rng):
        self.bench = bench
        self.pool = [
            [make_pair(rng, d, s, aligned) for d, s in DS for aligned in (False, True)]
            for _ in range(POOL)
        ]
        self.refs = {}
        self.rounds = 0

    def warmup(self):
        from angval.grassmann import Subspace, principal_angles

        p = self.pool[0][0]
        self.bench.call("warmup", "grassmann.principal_angles", principal_angles,
                        Subspace(p["v"]), Subspace(p["w"]))

    def _ref(self, r, i, p):
        key = (r, i)
        if key not in self.refs:
            angles = ref.principal_angles_np(p["v"], p["w"])
            v1 = p["v"] + FD_STEP * p["wdot"]
            self.refs[key] = {
                "angles": angles,
                "dF": 2.0 * math.sqrt(float(np.sum(np.sin(angles / 2.0) ** 2))),
                "fd": ref.max_angle_np(p["v"], v1) / FD_STEP,
            }
        return self.refs[key]

    def round_units(self):
        return [self._round]

    def probe_units(self):
        return [self._round]

    def _round(self):
        b = self.bench
        r = self.rounds % len(self.pool)
        self.rounds += 1
        for d in range(2, 9):
            self._group(r, d)
            # calibrate between groups: a round is long enough to span a host speed change
            b.calibrate()

    def _group(self, r, d):
        from angval import grassmann, smoothness
        from angval.grassmann import Subspace

        b = self.bench
        t_pairs = t_bounds = 0.0
        n_pairs = n_bounds = 0
        for i, p in enumerate(self.pool[r]):
            if p["d"] != d:
                continue
            v, w = Subspace(p["v"]), Subspace(p["w"])
            tag = p["tag"]
            want = self._ref(r, i, p)
            key = "subspaces[%d,%d,%s,%d]" % (p["d"], p["s"], tag, r)
            spent = 0.0
            ok = True
            res, dt = b.call("subspaces.pair", "grassmann.principal_angles", grassmann.principal_angles,
                             v, w, tag=tag)
            spent += dt
            if res is None:
                ok = False
            else:
                b.check_vec(key + ".angles=numpy", res.angles, want["angles"], TOL_ANGLE)
                if p["prescribed"] is not None:
                    b.check_vec(key + ".angles=prescribed", res.angles, p["prescribed"], TOL_ALIGNED)
            vals = {}
            for name in ("metric_d1", "metric_d2", "metric_dF", "metric_dsigma"):
                vals[name], dt = b.call("subspaces.pair", "grassmann." + name, getattr(grassmann, name), v, w)
                spent += dt
                ok = ok and vals[name] is not None
            pr, dt = b.call("subspaces.pair", "grassmann.procrustes_min", grassmann.procrustes_min,
                            p["v"], p["w"], tag=tag)
            spent += dt
            ok = ok and pr is not None
            if ok:
                d1 = vals["metric_d1"]
                b.check(key + ".d1=max_angle", d1, want["angles"][-1], TOL_ANGLE)
                b.check(key + ".d2=sin_d1", vals["metric_d2"], math.sin(d1), TOL_IDENTITY)
                b.check(key + ".dsigma=2sin(d1/2)", vals["metric_dsigma"], 2.0 * math.sin(d1 / 2.0), TOL_IDENTITY)
                b.check(key + ".dF=closed_form", vals["metric_dF"], want["dF"], TOL_IDENTITY)
                b.check(key + ".procrustes=closed_form", pr.value, want["dF"], TOL_PROCRUSTES)
                attained = float(np.linalg.norm(p["v"] - p["w"] @ pr.q))
                b.check(key + ".procrustes_attained", attained, pr.value, TOL_PROCRUSTES)
                b.check(key + ".procrustes_orthogonal",
                        float(np.abs(pr.q.T @ pr.q - np.eye(p["s"])).max()), 0.0, 1e-12)
                t_pairs += spent
                n_pairs += 1
            spent = 0.0
            ok = True
            der, dt = b.call("subspaces.bounds", "smoothness.angle_derivative_right",
                             smoothness.angle_derivative_right,
                             smoothness.CurvePoint(w=p["v"], wdot=p["wdot"]), tag=tag)
            spent += dt
            if der is None:
                ok = False
            else:
                b.check(key + ".derivative=fd", der, want["fd"], TOL_FD * max(1.0, want["fd"]))
            for name, args in (
                ("check_angle_bound", (p["S"], v, w)),
                ("check_near_identity", (p["S"], v)),
                ("check_lipschitz", (p["S"], v, w)),
            ):
                rep, dt = b.call("subspaces.bounds", "smoothness." + name, getattr(smoothness, name),
                                 *args, tag=tag)
                spent += dt
                if rep is None:
                    ok = False
                else:
                    b.check_le(key + "." + name, rep.lhs, rep.bound + 1e-12)
            if ok:
                t_bounds += spent
                n_bounds += 1
        if n_pairs:
            b.sample("subspaces.pairs_per_s", "d%d" % d, n_pairs, t_pairs)
        if n_bounds:
            b.sample("subspaces.bounds_per_s", "d%d" % d, n_bounds, t_bounds)

    def layers(self, batches=9, per=50):
        """Per-call costs from the round's spans, and the SVD and norm kernels."""
        from angval import linalg

        b = self.bench
        out = {
            "grassmann.principal_angles.generic.us": b.layer_us("grassmann.principal_angles", "generic"),
            "grassmann.principal_angles.aligned.us": b.layer_us("grassmann.principal_angles", "aligned"),
            "grassmann.procrustes_min.us": b.layer_us("grassmann.procrustes_min"),
        }
        for name in ("angle_derivative_right", "check_angle_bound", "check_near_identity", "check_lipschitz"):
            out["smoothness.%s.us" % name] = b.layer_us("smoothness." + name)
        pairs = {(p["d"], p["s"], p["tag"]): p for p in self.pool[0]}
        p63, p84 = pairs[(6, 3, "generic")], pairs[(8, 4, "generic")]
        cases = {
            "linalg.svd.3x3": (linalg.svd, p63["v"].T @ p63["w"]),
            "linalg.svd.8x4": (linalg.svd, p84["w"] - p84["v"] @ (p84["v"].T @ p84["w"])),
            "linalg.spectral_norm.6x3": (linalg.spectral_norm, p63["w"] - p63["v"] @ (p63["v"].T @ p63["w"])),
        }
        for metric, (fn, m) in cases.items():
            name, tag = metric.rsplit(".", 1)
            for _ in range(batches):
                res, _ = b.call("layer.kernel", name, repeat, fn, (m,), per, tag=tag, work=per)
            if res is not None:
                want = np.linalg.svd(m, compute_uv=False)
                got = res.sigma if name == "linalg.svd" else [res]
                b.check_vec("layer.%s=numpy" % metric, got, want[: len(got)], 1e-12 * float(want[0]))
            out[metric + ".us"] = b.layer_us(name, tag)
        return out

