"""`sweep` part: the resonance sweep and multi-block autonomous specs.

Full round: `angval sweep` over the 296 ratios of the default kappa grid on
the headline row rho2 = 1/4, in calls of at most two cells of one cost
class (rational with the same q, or irrational) so that each call is short
and of uniform cost, with five rounds of `angval autonomous` on eight
seeded specs whose maximal index sets have |J| = 3 (tensor rule) and
|J| = 4 (QMC rule) spread through it, one call per unit.  Probe units (run
inside the other workloads): `angval sweep` on each of four ratios, and
the eight specs.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import reference as ref
from harness import read_csv, run_cli

OMEGA1 = 1.0
RHO1 = 1.0 / 3.0
QMAX = 20
HEADLINE_ROW = 0.25
HEADLINE_KAPPA = 1.0 / math.sqrt(2.0)
HEADLINE = 1.2693394
GRID_CELLS = 296
PROBE_KAPPAS = [0.5, 5.0 / 7.0, 0.5025, HEADLINE_KAPPA]
SPEC_ROUNDS = 5
CELLS_PER_CALL = 2
# tolerance of each quadrature rule against the 1-D torus reference
TOL_TENSOR_2 = 1e-6
TOL_TENSOR_3 = 2e-5
TOL_QMC_4 = 3e-4
TOL_RESONANT = 1e-6
USC_SLACK = 5e-3


def default_kappa_grid(lo=0.05, hi=1.0, spacing=0.005):
    """The program's documented default grid, rebuilt here: every p/q with
    q <= 20 in [lo, hi], a `spacing` background and 1/sqrt(2), with
    background points within 1e-9 of a kept ratio dropped."""
    kept = sorted({p / q for q in range(1, QMAX + 1) for p in range(1, q + 1)
                   if math.gcd(p, q) == 1 and lo - 1e-12 <= p / q <= hi + 1e-12})
    for x in [lo + spacing * k for k in range(int(round((hi - lo) / spacing)) + 1)] + [HEADLINE_KAPPA]:
        if all(abs(x - y) > 1e-9 for y in kept):
            kept.append(x)
    return sorted(kept)


def cost_class(kappa):
    """("rational", q) when kappa is within 1e-9 of p/q with q <= 20, else ("irrational", 0)."""
    f = Fraction(kappa).limit_denominator(QMAX)
    return ("rational", f.denominator) if abs(kappa - f) <= 1e-9 else ("irrational", 0)


def seeded_spec(rng, nblocks):
    """nblocks complex blocks with decreasing real parts; s = nblocks, so the
    one maximal index set is all of them."""
    omegas = rng.uniform(0.5, 1.5, nblocks)
    rhos = rng.uniform(0.3, 1.0, nblocks)
    blocks = [
        {"beta": -0.5 * i, "omega": float(w), "rho": float(r)}
        for i, (w, r) in enumerate(zip(omegas, rhos))
    ]
    return {"blocks": blocks, "s": nblocks}


class SweepPart:
    name = "sweep"

    def __init__(self, bench, rng):
        self.bench = bench
        self.dir = os.path.join(bench.run_dir, "sweep")
        os.makedirs(self.dir, exist_ok=True)
        self.grid = default_kappa_grid()
        by_class = {}
        for k in self.grid:
            by_class.setdefault(cost_class(k), []).append(k)
        chunks = sorted(
            (ks[i : i + CELLS_PER_CALL], cls)
            for cls, ks in by_class.items()
            for i in range(0, len(ks), CELLS_PER_CALL)
        )
        self.chunks = [
            (self._write("cells%03d.json" % i, self._sweep_cfg(ks)), cls) for i, (ks, cls) in enumerate(chunks)
        ]
        self.probe_cfgs = [self._write("probe%d.json" % i, self._sweep_cfg([k])) for i, k in enumerate(PROBE_KAPPAS)]
        self.specs = []
        for nblocks in (3, 3, 4, 4, 3, 3, 4, 4):
            spec = seeded_spec(rng, nblocks)
            self.specs.append((self._write("spec%d.json" % len(self.specs), spec), spec))
        self.spec_refs = [
            ref.torus_max_mean([(b["omega"], b["rho"]) for b in spec["blocks"]])
            for _, spec in self.specs
        ]
        self.cells = []
        self.probe_seen = set()

    @staticmethod
    def _sweep_cfg(kappas):
        return {"omega1": OMEGA1, "rho1": RHO1, "rho2_grid": [HEADLINE_ROW], "qmax": QMAX,
                "kappa_grid": kappas}

    def _write(self, fname, cfg):
        path = os.path.join(self.dir, fname)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def warmup(self):
        # the QMC rule imports scipy.stats on first use; pay that here
        path, _ = self.specs[2]
        run_cli(self.bench, "warmup", ["autonomous", "--config", path, "--out", path + ".csv"])

    def round_units(self):
        cells = [lambda i=i: self._chunk(i) for i in range(len(self.chunks))]
        specs = [lambda i=i: self._spec(i) for i in range(len(self.specs))] * SPEC_ROUNDS
        # spread the spec calls evenly through the pass
        units = sorted(
            [((k + 0.5) / len(cells), u) for k, u in enumerate(cells)]
            + [((k + 0.5) / len(specs), u) for k, u in enumerate(specs)],
            key=lambda x: x[0],
        )
        return [self._start_pass] + [u for _, u in units] + [self._finish_pass]

    def probe_units(self):
        return [lambda i=i: self._probe_cell(i) for i in range(len(PROBE_KAPPAS))] + [
            lambda i=i: self._spec(i) for i in range(len(self.specs))
        ]

    def _run_sweep(self, cfg_path, out):
        text, dt = run_cli(self.bench, "sweep.cells", ["sweep", "--config", cfg_path, "--out", out])
        return (None, dt) if text is None else (self._parse_cells(out), dt)

    def _start_pass(self):
        self.cells = []

    def _chunk(self, i):
        path, cls = self.chunks[i]
        cells, dt = self._run_sweep(path, os.path.join(self.dir, "cells.csv"))
        if cells:
            self.bench.sample("sweep.cells_per_s", cls, len(cells), dt)
            for c in cells:
                self._check_cell(c)
                self.bench.check_true("sweep.cell[kappa=%.10g].class" % c["kappa"],
                                      (c["tag"], c["q"] or 0) == cls, [c["tag"], c["q"]])
            self.cells.extend(cells)

    def _finish_pass(self):
        b = self.bench
        b.check_true("sweep.grid_cells=%d" % GRID_CELLS, len(self.cells) == GRID_CELLS, len(self.cells))
        counts = {"rational": 0, "irrational": 0}
        for c in self.cells:
            counts[c["tag"]] += 1
        b.notes["semicontinuity.cells"] = counts
        # upper semicontinuity as criterion 9 states it: the nearest irrational
        # cell of the row does not exceed a rational cell by more than USC_SLACK
        irrational = [c for c in self.cells if c["tag"] == "irrational"]
        for c in self.cells:
            if c["tag"] == "rational" and irrational:
                nb = min(irrational, key=lambda o: abs(o["kappa"] - c["kappa"]))
                b.check_le("sweep.usc[kappa=%.10g]" % c["kappa"], nb["value"], c["value"] + USC_SLACK)

    def _probe_cell(self, i):
        cells, dt = self._run_sweep(self.probe_cfgs[i], os.path.join(self.dir, "probe.csv"))
        if cells:
            self.bench.sample("sweep.cells_per_s", "probe%d" % i, 1, dt)
            self._check_cell(cells[0])
            counts = self.bench.notes.setdefault("semicontinuity.cells", {})
            if i not in self.probe_seen:
                self.probe_seen.add(i)
                counts[cells[0]["tag"]] = counts.get(cells[0]["tag"], 0) + 1

    @staticmethod
    def _parse_cells(path):
        return [
            {
                "kappa": float(r["kappa"]),
                "rho2": float(r["rho2"]),
                "tag": r["tag"],
                "p": int(r["p"]) if r["p"] else None,
                "q": int(r["q"]) if r["q"] else None,
                "value": float(r["value"]),
                "t": float(r["t_argmax"]) if r["t_argmax"] else None,
                "est": float(r["err_estimate"]),
            }
            for r in read_csv(path)
        ]

    def _check_cell(self, c):
        b = self.bench
        key = "sweep.cell[kappa=%.10g,rho2=%g]" % (c["kappa"], c["rho2"])
        if c["tag"] == "rational":
            want = ref.resonant_line(c["t"], OMEGA1, c["p"], c["q"], RHO1, c["rho2"])
            b.check(key + ".L(t_argmax)", c["value"], want, TOL_RESONANT)
            b.check_le(key + ".above_max_omega", max(OMEGA1, c["kappa"] * OMEGA1) - 1e-8, c["value"])
        else:
            want = ref.torus_max_mean([(OMEGA1, RHO1), (c["kappa"] * OMEGA1, c["rho2"])])
            b.check(key + ".torus", c["value"], want, TOL_TENSOR_2)
        if abs(c["kappa"] - HEADLINE_KAPPA) < 1e-12 and c["rho2"] == HEADLINE_ROW:
            b.check("sweep.headline", c["value"], HEADLINE, 1e-5)
        # recorded, not checked: how far err_estimate understates the true error
        worst = b.notes.setdefault("sweep.worst_error_over_err_estimate", {"ratio": 0.0, "cell": None})
        if c["est"] > 0.0 and abs(c["value"] - want) / c["est"] > worst["ratio"]:
            worst.update(ratio=abs(c["value"] - want) / c["est"], cell=key,
                         error=abs(c["value"] - want), err_estimate=c["est"])

    def _spec(self, i):
        b = self.bench
        path, spec = self.specs[i]
        out = path + ".csv"
        text, dt = run_cli(b, "autonomous.spec", ["autonomous", "--config", path, "--out", out])
        if text is None:
            return
        b.sample("autonomous.specs_per_s", "spec%d" % i, 1, dt)
        with open(out + ".meta.json") as fh:
            meta = json.load(fh)
        nblocks = len(spec["blocks"])
        tol = TOL_TENSOR_3 if nblocks == 3 else TOL_QMC_4
        b.check("autonomous.spec%d[J=%d]" % (i, nblocks), meta["value"], self.spec_refs[i], tol)
        b.check_true("autonomous.spec%d.argmax_set" % i,
                     meta["argmax_set"] == list(range(1, nblocks + 1)), meta["argmax_set"])

    def layers(self):
        """Single calls into autonomous and semicontinuity, and the CLI's own cost."""
        from angval import autonomous, semicontinuity
        from angval.linalg import ComplexBlock

        b = self.bench
        out = {}
        for p, q in ((1, 1), (2, 5), (13, 20)):
            want = None
            for _ in range(5):
                res, _ = b.call(
                    "layer.autonomous",
                    "autonomous.angular_value_resonant_4d",
                    autonomous.angular_value_resonant_4d,
                    OMEGA1, p, q, RHO1, HEADLINE_ROW,
                    tag="q%d" % q,
                )
                if res is not None:
                    want = want or ref.resonant_line(res.t_argmax, OMEGA1, p, q, RHO1, HEADLINE_ROW)
                    b.check("layer.resonant[%d/%d]" % (p, q), res.value, want, TOL_RESONANT)
            out["autonomous.resonant.q%d.ms" % q] = b.layer_us(
                "autonomous.angular_value_resonant_4d", "q%d" % q) / 1e3
        headline = autonomous.SchurSpec(
            (ComplexBlock(0.0, OMEGA1, RHO1), ComplexBlock(-1.0, HEADLINE_KAPPA, HEADLINE_ROW))
        )
        headline_ref = ref.torus_max_mean([(OMEGA1, RHO1), (HEADLINE_KAPPA, HEADLINE_ROW)])
        irr = [("j2", 2, headline, headline_ref, TOL_TENSOR_2)]
        for i, (nblocks, tag) in ((0, (3, "j3")), (2, (4, "j4"))):
            spec = self.specs[i][1]
            blocks = tuple(ComplexBlock(x["beta"], x["omega"], x["rho"]) for x in spec["blocks"])
            tol = TOL_TENSOR_3 if nblocks == 3 else TOL_QMC_4
            irr.append((tag, nblocks, autonomous.SchurSpec(blocks), self.spec_refs[i], tol))
        for tag, s, spec, want, tol in irr:
            for _ in range(5):
                res, _ = b.call(
                    "layer.autonomous",
                    "autonomous.angular_value_irrational",
                    autonomous.angular_value_irrational,
                    s, spec,
                    tag=tag,
                )
                if res is not None:
                    b.check("layer.irrational[%s]" % tag, res.value, want, tol)
            out["autonomous.irrational.%s.ms" % tag] = b.layer_us(
                "autonomous.angular_value_irrational", tag) / 1e3
        for tag, kappa in (("rational", 5.0 / 7.0), ("irrational", HEADLINE_KAPPA)):
            for _ in range(5):
                cells, _ = b.call(
                    "layer.semicontinuity",
                    "semicontinuity.hairy_sweep",
                    semicontinuity.hairy_sweep,
                    OMEGA1, RHO1,
                    kappa_grid=[kappa], rho2_grid=[HEADLINE_ROW], threads=1,
                    tag=tag,
                )
                if cells is not None:
                    c = cells[0]
                    if tag == "rational":
                        want = ref.resonant_line(c.t_argmax, OMEGA1, 5, 7, RHO1, HEADLINE_ROW)
                        b.check("layer.cell[rational]", c.value, want, TOL_RESONANT)
                    else:
                        b.check("layer.cell[irrational]", c.value, headline_ref, TOL_TENSOR_2)
            out["semicontinuity.cell.%s.ms" % tag] = b.layer_us(
                "semicontinuity.hairy_sweep", tag) / 1e3
        counts = b.notes.get("semicontinuity.cells", {})
        out["semicontinuity.cells.rational"] = counts.get("rational", 0)
        out["semicontinuity.cells.irrational"] = counts.get("irrational", 0)
        out["cli.sweep.self_ms"] = self._cli_self_ms()
        return out

    def _cli_self_ms(self, pairs=7):
        """CLI sweep time minus the direct hairy_sweep time on the same config."""
        from angval import semicontinuity

        b = self.bench
        cfg = {"omega1": OMEGA1, "rho1": RHO1, "rho2_grid": [HEADLINE_ROW], "kappa_grid": [0.5025, 0.6025]}
        path = self._write("self.json", cfg)
        cli_t, lib_t = [], []
        for k in range(pairs):
            for which in ((0, 1) if k % 2 == 0 else (1, 0)):
                if which == 0:
                    text, dt = run_cli(b, "layer.cli", ["sweep", "--config", path, "--out", path + ".csv"])
                    if text is not None:
                        cli_t.append((dt, b.last_mid))
                else:
                    cells, dt = b.call(
                        "layer.semicontinuity", "semicontinuity.hairy_sweep", semicontinuity.hairy_sweep,
                        OMEGA1, RHO1, kappa_grid=cfg["kappa_grid"], rho2_grid=cfg["rho2_grid"],
                        qmax=20, threads=1, tag="self",
                    )
                    if cells is not None:
                        lib_t.append((dt, b.last_mid))
        return (b.calibrated(cli_t) - b.calibrated(lib_t)) * 1e3
