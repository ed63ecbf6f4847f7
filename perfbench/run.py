"""angval benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {sweep,dynamics,subspaces} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; angval is imported from ./src.  The
workload runs in its own single-threaded process (BLAS pinned to one
thread, ANGVAL_THREADS removed, `--threads 1` on every CLI call), after two
set-up-only processes that measure start-up.  Every output is checked
against perfbench/reference.py or a property the method must have.

Human-readable lines go first; the last stdout line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  The
full run record (environment, seed, per-kind counts, every checked value
with its reference and error, spans when traced) is written under
.perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "dynamics", "subspaces")
SETUP_RUNS = 3  # two set-up-only processes plus the measured one
TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sweep.cells_per_s": "cells/s",
    "autonomous.specs_per_s": "specs/s",
    "ct.line.steps_per_s": "steps/s",
    "ct.plane.steps_per_s": "steps/s",
    "ct.varying.steps_per_s": "steps/s",
    "dt.plane.steps_per_s": "steps/s",
    "dt.wide.steps_per_s": "steps/s",
    "estimate.discrete.evals_per_s": "evals/s",
    "estimate.continuous.evals_per_s": "evals/s",
    "subspaces.pairs_per_s": "pairs/s",
    "subspaces.bounds_per_s": "instances/s",
}


def _per_layer_units():
    units = {}
    for shape in ("svd.3x3", "svd.8x4", "qr_thin.4x2", "qr_thin.6x3", "spectral_norm.6x3"):
        units["linalg.%s.us" % shape] = "us"
    for name in ("max_angle.s1", "max_angle.s2", "max_angle.s3", "principal_angles.generic",
                 "principal_angles.aligned", "procrustes_min"):
        units["grassmann.%s.us" % name] = "us"
    for name in ("angle_derivative_right", "check_angle_bound", "check_near_identity", "check_lipschitz"):
        units["smoothness.%s.us" % name] = "us"
    for tag in ("line", "plane", "varying"):
        units["continuous.angular_integral.%s.us_per_step" % tag] = "us/step"
    for tag in ("plane", "wide"):
        units["discrete.angle_sum.%s.us_per_step" % tag] = "us/step"
    for kind in ("continuous", "discrete"):
        units["%s.estimate.ms_per_eval" % kind] = "ms/eval"
        units["search.evaluations.%s" % kind] = "count"
    for tag in ("resonant.q1", "resonant.q5", "resonant.q20", "irrational.j2", "irrational.j3", "irrational.j4"):
        units["autonomous.%s.ms" % tag] = "ms"
    for kind in ("rational", "irrational"):
        units["semicontinuity.cell.%s.ms" % kind] = "ms"
        units["semicontinuity.cells.%s" % kind] = "count"
    units["cli.sweep.self_ms"] = "ms"
    units["cli.estimate.self_ms"] = "ms"
    units["trace.span_cost_us"] = "us"
    return units


PER_LAYER = _per_layer_units()
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pinned_env():
    env = dict(os.environ)
    ignored = env.pop("ANGVAL_THREADS", None)
    env.pop("PYTHONPATH", None)
    for key in PINNED:
        env[key] = "1"
    return env, ignored


def git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def spawn(args, root, run_dir, env, deadline, setup_only=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", run_dir, "--src", os.path.join(root, "src"),
           "--spawned-at", repr(time.time())]
    if setup_only is not None:
        cmd += ["--setup-only", str(setup_only)]
    with open(os.path.join(run_dir, "worker.log"), "a") as log:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise SystemExit("workload process timed out; see %s/worker.log" % run_dir)
        finally:
            # also on SIGTERM (raised as SystemExit below) and Ctrl-C
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(os.path.join(run_dir, "worker.log")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit("workload process exited with %d" % code)


def tracing_overhead(root, workload, traced):
    """Traced e2e figures against the newest untraced run of the same workload."""
    records = sorted(glob.glob(os.path.join(root, ".perfbench_runs", workload + "-*-t0-*", "record.json")),
                     key=os.path.getmtime)
    if not records:
        return None
    with open(records[-1]) as fh:
        base = json.load(fh)
    out = {"untraced_run": os.path.basename(os.path.dirname(records[-1])), "ratio": {}}
    for name, value in traced.items():
        if name in base["end_to_end"] and base["end_to_end"][name]:
            out["ratio"][name] = value / base["end_to_end"][name]
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "angval", "__init__.py")):
        print("error: run from the root of an angval checkout (no src/angval here)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = os.path.join(root, ".perfbench_runs",
                           "%s-s%d-t%d-%s-%d" % (args.workload, args.seed, args.trace, stamp, os.getpid()))
    os.makedirs(run_dir)
    env, ignored = pinned_env()
    for k in range(SETUP_RUNS - 1):
        spawn(args, root, run_dir, env, deadline, setup_only=k)
    spawn(args, root, run_dir, env, deadline)
    worker_json = os.path.join(run_dir, "worker.json")
    with open(worker_json) as fh:
        res = json.load(fh)
    os.remove(worker_json)  # record.json below carries all of it
    setup = [res["setup_s"]]
    for k in range(SETUP_RUNS - 1):
        with open(os.path.join(run_dir, "setup-%d.json" % k)) as fh:
            setup.append(json.load(fh)["setup_s"])
    e2e = dict(res["end_to_end"], setup_s=median(setup))
    missing = [m for m in (PER_LAYER if args.trace else END_TO_END) if m not in (res["per_layer"] if args.trace else e2e)]
    if missing:
        print("error: no measurement for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    attempted = sum(res["attempted"].values())
    failed = sum(res["failed"].values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "environment": dict(res["environment"], angval_threads_ignored=ignored,
                            cli_threads=1, pinned={k: env[k] for k in PINNED}),
        "setup_s_samples": setup,
        "calibration": res["calibration"],
        "rounds": res["rounds"],
        "measured_s": res["measured_s"],
        "end_to_end": e2e,
        "per_layer": res["per_layer"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "errors": res["errors"],
        "correct": res["correct"],
        "notes": res["notes"],
        "checks": res["checks"],
        "samples": res["samples"],
    }
    if args.trace:
        record["self_time"] = res["self_time"]
        record["tracing_overhead"] = tracing_overhead(root, args.workload, e2e)
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("angval benchmark: workload %s, seed %d, %d round(s) in %.1f s, record %s"
          % (args.workload, args.seed, res["rounds"], res["measured_s"], os.path.relpath(run_dir, root)))
    for kind in sorted(res["attempted"]):
        print("  %-24s attempted %6d  failed %d" % (kind, res["attempted"][kind], res["failed"].get(kind, 0)))
    bad = [name for name, c in res["checks"].items() if not c["ok"]]
    print("  checks: %d, failing: %d%s" % (len(res["checks"]), len(bad), (" e.g. " + bad[0]) if bad else ""))
    for name, unit in END_TO_END.items():
        print("  %-34s %14.6g %s" % (name, e2e[name], unit))
    if args.trace:
        for name, unit in PER_LAYER.items():
            print("  %-48s %14.6g %s" % (name, res["per_layer"][name], unit))
        ov = record["tracing_overhead"]
        if ov:
            print("  tracing overhead against %s:" % ov["untraced_run"])
            for name, ratio in sorted(ov["ratio"].items()):
                print("    %-34s traced/untraced %.3f" % (name, ratio))
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": bool(res["correct"]), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
