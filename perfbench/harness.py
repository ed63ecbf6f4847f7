"""Operation accounting, calibrated timing, output checks and CLI calls.

Times are reported in calibrated seconds.  On the shared host this
benchmark was built on, identical code runs at one of two speeds about 2x
apart that switch every few seconds, so wall-time rates moved 30-50% from
run to run, and even their 10th percentile moved 30%.  The ratio of a
call's time to that of a fixed calibration kernel run just before and
after it moved 1.5-2% between 10 s windows.  So each timed call is rescaled by
CAL_NOMINAL_S / (local kernel time): its wall time at the speed at which the
kernel takes CAL_NOMINAL_S, the kernel's fast time on that host.  Rates
and per-layer times are interquartile means of rescaled samples; the record
keeps the raw times as well.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import math
import time
import traceback
from collections import Counter, defaultdict
from statistics import median

import numpy as np

CAL_NOMINAL_S = 2.3e-3
_CAL_M = np.array([[0.6, 0.2, -0.1], [0.1, 0.5, 0.3], [-0.2, 0.1, 0.4]])
_CAL_I = np.eye(3)
_CAL_B = np.array([[1.0, 0.2], [0.1, 0.9], [0.3, -0.2], [0.0, 0.4]])


def calibration_kernel(n=100):
    """Fixed mix of the work in angval's inner loops: 3x3 numpy products, a
    LAPACK QR of a 4x2 matrix, a vector norm and scalar float arithmetic."""
    a = _CAL_I
    x, y, acc = 0.5, 0.25, 0.0
    for _ in range(n):
        a = a @ _CAL_M + _CAL_I
        q, _r = np.linalg.qr(_CAL_B)
        acc += float(np.linalg.norm(q[:, 0]))
        for _ in range(5):
            x = x * 0.999 + y * 0.001
            y = math.sqrt(x * x + 1e-3) - 0.5 * y
            acc += x * y
    return acc + float(a[0, 0])


def central(values):
    """Interquartile mean: the mean of the middle half (the median below four
    values).  As robust to a stray slow call as the median, and steadier."""
    v = sorted(values)
    if len(v) < 4:
        return median(v)
    k = len(v) // 4
    mid = v[k : len(v) - k]
    return sum(mid) / len(mid)


class Bench:
    """State of one workload run: timed operations, e2e samples and checks.

    `call` is the only place the benchmark enters angval.  It times the call,
    wraps it in a span when tracing, and counts it as attempted; a call that
    raises counts as failed and returns None.  `check` records the program's
    value, the reference and the error for every checked output, keeping the
    worst result per check name.
    """

    def __init__(self, tracer, run_dir):
        self.tracer = tracer
        self.run_dir = run_dir
        self.attempted = Counter()
        self.failed = Counter()
        self.errors = []
        self.samples = defaultdict(list)  # metric -> [(class, units, seconds, when)]
        self.checks = {}
        self.notes = {}
        self.cal_at = []  # perf_counter midpoints of the calibration runs
        self.cal_s = []  # their durations
        self.calibrate_calls = False  # calibrate after every call, not only per unit
        self.last_mid = None  # midpoint of the last call, for calibrated()

    def calibrate(self):
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.cal_at.append(0.5 * (t0 + t1))
        self.cal_s.append(t1 - t0)

    def scale(self, when):
        """CAL_NOMINAL_S over the mean kernel time of the calibrations either side of `when`."""
        i = bisect.bisect(self.cal_at, when)
        near = self.cal_s[max(i - 1, 0) : i + 1]
        return CAL_NOMINAL_S / (sum(near) / len(near))

    def call(self, kind, name, fn, *args, tag=None, work=1, **kwargs):
        self.attempted[kind] += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name, tag, work):
                out = fn(*args, **kwargs)
        except Exception:  # a raising call is a failed operation; keep its traceback
            self.failed[kind] += 1
            self.errors.append({"kind": kind, "name": name, "traceback": traceback.format_exc()})
            out = None
        dt = time.perf_counter() - t0
        self.last_mid = t0 + 0.5 * dt
        if self.calibrate_calls:
            self.calibrate()
        return out, dt

    def calibrated(self, timings):
        """Central calibrated seconds of [(seconds, midpoint)] timings."""
        return central([dt * self.scale(mid) for dt, mid in timings])

    def sample(self, metric, cls, units, seconds):
        """Record `units` of work done by the call that just took `seconds`."""
        self.samples[metric].append((cls, units, seconds, time.perf_counter() - 0.5 * seconds))

    def rates(self):
        """Units per calibrated second of each metric's sampled mix.

        sum_c U_c / sum_c U_c tau_c, with U_c the units run in class c and
        tau_c the central calibrated time per unit of its samples; classes
        keep calls of unequal cost apart (a sweep cell's cost depends on
        its kind and on q).
        """
        out = {}
        for metric, samples in self.samples.items():
            per_unit = defaultdict(list)
            units = Counter()
            for cls, n, secs, when in samples:
                per_unit[str(cls)].append(secs * self.scale(when) / n)
                units[str(cls)] += n
            out[metric] = sum(units.values()) / sum(units[c] * central(v) for c, v in per_unit.items())
        return out

    def layer_us(self, name, tag=None):
        """Central calibrated duration per unit of work of the matching spans, in us."""
        vals = [
            (end - start) * self.scale(0.5 * (start + end)) / work
            for _, n, t, work, start, end, _ in self.tracer.spans
            if n == name and (tag is None or t == tag)
        ]
        if not vals:
            raise KeyError("no span %s[%s]" % (name, tag))
        return central(vals) * 1e6

    def _record(self, name, got, want, err, tol, ok):
        prev = self.checks.get(name)
        row = {"got": got, "want": want, "err": err, "tol": tol, "ok": ok}
        if prev is None or (prev["ok"] and not ok) or (prev["ok"] == ok and err > prev["err"]):
            self.checks[name] = row

    def check(self, name, got, want, tol):
        """|got - want| <= tol."""
        got, want = float(got), float(want)
        err = abs(got - want)
        self._record(name, got, want, err, tol, math.isfinite(err) and err <= tol)

    def check_vec(self, name, got, want, tol):
        """max |got_i - want_i| <= tol for two equal-length vectors."""
        got = [float(x) for x in got]
        want = [float(x) for x in want]
        err = max(abs(g - w) for g, w in zip(got, want)) if len(got) == len(want) else math.inf
        self._record(name, got, want, err, tol, math.isfinite(err) and err <= tol)

    def check_le(self, name, got, limit):
        """got <= limit; err is the excess over the limit."""
        got, limit = float(got), float(limit)
        self._record(name, got, limit, got - limit, 0.0, got <= limit)

    def check_true(self, name, ok, detail=None):
        self._record(name, detail, True, 0.0 if ok else 1.0, 0.0, bool(ok))

    @property
    def correct(self):
        return all(c["ok"] for c in self.checks.values())


def run_cli(bench, kind, argv):
    """Run `angval <argv> --threads 1` in-process: (stdout, seconds).

    stdout is None when the call raised or exited nonzero; both count as a
    failed operation.
    """
    from angval import cli

    out, err = io.StringIO(), io.StringIO()

    def main():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(list(argv) + ["--threads", "1"])

    code, dt = bench.call(kind, "cli." + argv[0], main)
    if code is None:
        return None, dt
    if code != 0:
        bench.failed[kind] += 1
        bench.errors.append({"kind": kind, "name": "cli." + argv[0], "exit": code, "stderr": err.getvalue()})
        return None, dt
    return out.getvalue(), dt


def repeat(fn, args, n):
    """Call fn(*args) n times; the last result (one span covers all n calls)."""
    for _ in range(n):
        out = fn(*args)
    return out


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh if line.strip()]
