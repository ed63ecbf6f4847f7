"""One workload in its own process: set up, run, check, report.

Started by run.py with a pinned environment.  Writes `worker.json` (or
`setup-<k>.json` with --setup-only) into the run directory, and
`spans.jsonl` when traced.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
from statistics import median

PROBE_SHARE = 0.4  # share of the run given to the other parts' probe units


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", type=int, default=None, metavar="K")
    return p.parse_args(argv)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment():
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    import angval
    from dynamics import DynamicsPart
    from harness import CAL_NOMINAL_S, Bench
    from subspaces import SubspacesPart
    from sweep import SweepPart
    from tracing import NullTracer, Tracer, span_cost_us

    src = os.path.realpath(args.src)
    if not os.path.realpath(angval.__file__).startswith(src + os.sep):
        raise SystemExit("angval was imported from %s, not from %s" % (angval.__file__, src))

    tracer = Tracer(os.path.basename(args.run_dir)) if args.trace else NullTracer()
    bench = Bench(tracer, args.run_dir)
    classes = {"sweep": SweepPart, "dynamics": DynamicsPart, "subspaces": SubspacesPart}
    # set-up is calibrated by kernel runs spread through it
    bench.calibrate()
    parts = {}
    # one input stream per part, so a part's inputs do not depend on the workload
    for i, (name, cls) in enumerate(classes.items()):
        parts[name] = cls(bench, np.random.default_rng([args.seed, i]))
        bench.calibrate()
    for part in parts.values():
        part.warmup()
        bench.calibrate()
    setup_wall = time.time() - args.spawned_at
    setup_s = setup_wall * CAL_NOMINAL_S / median(bench.cal_s)
    if args.setup_only is not None:
        with open(os.path.join(args.run_dir, "setup-%d.json" % args.setup_only), "w") as fh:
            json.dump({"setup_s": setup_s, "setup_wall_s": setup_wall}, fh)
        return 0

    main_part = parts[args.workload]
    main_units = main_part.round_units()
    others = [p.probe_units() for name, p in parts.items() if name != args.workload]
    probes = [u for pair in itertools.zip_longest(*others) for u in pair if u is not None]
    t0 = time.perf_counter()
    main_s = probe_s = 0.0
    rounds = done = 0
    while True:
        with tracer.span("bench.round", main_part.name):
            for unit in main_units:
                t = time.perf_counter()
                unit()
                bench.calibrate()
                main_s += time.perf_counter() - t
                # probes of the other parts, interleaved so they sample the
                # run; a main round longer than --seconds (the sweep's pass)
                # gets no more probe time than --seconds would
                while probe_s < PROBE_SHARE * min(main_s / (1.0 - PROBE_SHARE), args.seconds):
                    t = time.perf_counter()
                    with tracer.span("bench.probe"):
                        probes[done % len(probes)]()
                    bench.calibrate()
                    probe_s += time.perf_counter() - t
                    done += 1
        rounds += 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    for unit in probes[done:]:
        with tracer.span("bench.probe"):
            unit()
        bench.calibrate()
    measured_s = time.perf_counter() - t0
    per_layer = {}
    if args.trace:
        bench.calibrate_calls = True
        for part in parts.values():
            with tracer.span("bench.layers", part.name):
                per_layer.update(part.layers())
        per_layer["trace.span_cost_us"] = span_cost_us()
        tracer.write(os.path.join(args.run_dir, "spans.jsonl"))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = bench.rates()
    e2e["peak_rss_mib"] = rss_kib / 1024.0
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "calibration": {"nominal_s": CAL_NOMINAL_S, "median_s": median(bench.cal_s),
                        "at": bench.cal_at, "seconds": bench.cal_s},
        "rounds": rounds,
        "measured_s": measured_s,
        "end_to_end": e2e,
        "samples": dict(bench.samples),  # raw seconds: (class, units, seconds, when)
        "per_layer": per_layer,
        "attempted": dict(bench.attempted),
        "failed": dict(bench.failed),
        "errors": bench.errors,
        "correct": bench.correct,
        "checks": bench.checks,
        "notes": bench.notes,
        "self_time": tracer.self_time_by_name() if args.trace else None,
        "environment": environment(),
    }
    with open(os.path.join(args.run_dir, "worker.json"), "w") as fh:
        json.dump(result, fh, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
