"""Command line driver.

Matrix files are plain CSV with a `# rows cols` header line.  Structured
runs (dynamical systems, autonomous specs, sweeps) read a single JSON
config; the resolved config is embedded verbatim in the run metadata that
accompanies every --out file.  All angles are radians unless --degrees is
given, and all outputs are deterministic for a fixed (config, seed).

Exit codes: 0 ok, 2 bad input, 3 numerical failure, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .autonomous import SchurSpec, angular_value_irrational, angular_value_resonant_4d
from .continuous import ContinuousSystem, estimate_angular_value_ct
from .discrete import DiscreteSystem, estimate_angular_value
from .errors import AngvalError, BudgetExceeded, DimensionMismatch
from .grassmann import (
    metric_d1,
    metric_d2,
    metric_dF,
    metric_dsigma,
    principal_angles,
    subspace_from_spanning,
)
from .linalg import ComplexBlock, RealBlock, as_matrix
from .oracles import birkhoff_average, fd_angle_derivative, maxmin_angle
from .search import SubspaceSearchConfig
from .semicontinuity import hairy_sweep
from .smoothness import CurvePoint, angle_derivative_right

EXIT_OK = 0
EXIT_BAD_INPUT = 2

MAX_ORACLE_SAMPLES = 10**7


def load_matrix(path):
    """Read a `# rows cols` headed CSV matrix file of finite numbers."""
    if not isinstance(path, (str, os.PathLike)):
        # open() would take an integer for a file descriptor, and close it
        raise ValueError("matrix path must be a string, got %r" % (path,))
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("%s: matrix files start with a '# rows cols' header" % path)
        parts = header[1:].split()
        if len(parts) != 2:
            raise ValueError("%s: malformed matrix header %r" % (path, header.strip()))
        rows, cols = int(parts[0]), int(parts[1])
        with warnings.catch_warnings():
            # a file with no data rows is refused below, by its shape
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(
            "%s: header promises %dx%d but data is %dx%d"
            % (path, rows, cols, data.shape[0], data.shape[1])
        )
    return as_matrix(data)


def save_matrix(path, m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("only 2-d matrices can be saved")
    with open(path, "w") as fh:
        fh.write("# %d %d\n" % m.shape)
        for row in m:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(args, headers, rows, meta):
    """Write the data table (stdout or --out) plus JSON run metadata."""
    text = ",".join(headers) + "\n"
    for row in rows:
        text += ",".join(_fmt(x) for x in row) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s (%d rows)" % (args.out, len(rows)))
    else:
        sys.stdout.write(text)


def _meta(args, config, **extra):
    meta = {
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "degrees": args.degrees,
        "config": config,
    }
    meta.update(extra)
    return meta


def _angle_scale(args):
    return 180.0 / math.pi if args.degrees else 1.0


def _finite_number(text, kind=float):
    if not math.isfinite(float(text)):
        raise ValueError("config value %s is not a finite number" % text)
    return kind(text)


def load_config(args):
    if not args.config:
        raise ValueError("the %s command needs --config" % args.command)
    with open(args.config) as fh:
        # NaN, Infinity and literals beyond the float range are bad input, not values
        return json.load(fh, parse_float=_finite_number, parse_constant=_finite_number,
                         parse_int=lambda text: _finite_number(text, int))


def _number(key, x):
    # float() would also take true and "0.3"
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise ValueError("%s must be a finite number, got %r" % (key, x))
    return float(x)


def _numbers(key, xs):
    for x in xs:
        _number(key, x)
    return list(xs)  # as given, so that messages quote the config


def _integral(key, x):
    # int() would truncate 2048.5 to 2048 and accept "2048" and true
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("%s must be an integer, got %r" % (key, x))
    return x


def _settings(cfg, name, readers):
    """The optional settings object cfg[name], each known key read by its
    reader; any other key is refused."""
    given = cfg.get(name, {})
    if not isinstance(given, dict):
        raise ValueError("%s must be a JSON object, got %r" % (name, given))
    settings = {key: read(key, given[key]) for key, read in readers.items() if key in given}
    unknown = sorted(set(given) - set(readers))
    if unknown:
        raise ValueError("unknown %s settings: %s" % (name, ", ".join(unknown)))
    return settings


# system kinds of each time class: kind -> the system its config describes
_DISCRETE_KINDS = {
    "constant": lambda cfg: DiscreteSystem.constant(cfg["matrix"]),
    "cycle": lambda cfg: DiscreteSystem.from_sequence(cfg["matrices"], cycle=True),
    "planar_rotation": lambda cfg: DiscreteSystem.planar_rotation(
        _number("rho", cfg["rho"]), _number("phi", cfg["phi"])
    ),
}
_CONTINUOUS_KINDS = {
    "constant": lambda cfg: ContinuousSystem.from_constant(cfg["matrix"]),
    "model2d": lambda cfg: ContinuousSystem.model2d(_number("rho", cfg["rho"]), _number("omega", cfg["omega"])),
}


def _build_system(cfg, kinds, time_class):
    if not isinstance(cfg, dict):
        raise ValueError("system must be a JSON object, got %r" % (cfg,))
    kind = cfg.get("kind", "constant")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError("unknown %s system kind %r" % (time_class, kind))
    return kinds[kind](cfg)


def build_discrete_system(cfg):
    return _build_system(cfg, _DISCRETE_KINDS, "discrete")


def build_continuous_system(cfg):
    return _build_system(cfg, _CONTINUOUS_KINDS, "continuous")


def build_schur_spec(blocks_cfg):
    blocks = []
    for b in blocks_cfg:
        if "omega" in b:
            blocks.append(ComplexBlock(*(_number(key, b[key]) for key in ("beta", "omega", "rho"))))
        else:
            blocks.append(RealBlock(_number("beta", b["beta"])))
    return SchurSpec(tuple(blocks))


_SEARCH_KEYS = {
    **dict.fromkeys(("candidates", "refine_rounds"), _integral),
    "sample_times": _numbers,
    "cost_cap": _number,
}


def build_search_config(cfg, seed):
    return SubspaceSearchConfig(seed=seed, **_settings(cfg, "search", _SEARCH_KEYS))


def _subspace_pair(v, w):
    """The subspaces spanned by the matrix files v and w."""
    return [subspace_from_spanning(load_matrix(path)) for path in (v, w)]


def cmd_angles(args):
    res = principal_angles(*_subspace_pair(args.v, args.w))
    scale = _angle_scale(args)
    rows = [
        (j + 1, float(phi * scale), float(math.cos(phi)), float(math.sin(phi)))
        for j, phi in enumerate(res.angles)
    ]
    _emit(args, ("j", "phi_j", "cos", "sin"), rows, _meta(args, {"v": args.v, "w": args.w}))
    return EXIT_OK


def cmd_metrics(args):
    v, w = _subspace_pair(args.v, args.w)
    scale = _angle_scale(args)
    rows = [
        ("d1", float(metric_d1(v, w) * scale)),
        ("d2", float(metric_d2(v, w))),
        ("dF", float(metric_dF(v, w))),
        ("dsigma", float(metric_dsigma(v, w))),
    ]
    _emit(args, ("metric", "value"), rows, _meta(args, {"v": args.v, "w": args.w}))
    return EXIT_OK


def cmd_derivative(args):
    w = load_matrix(args.w)
    wdot = load_matrix(args.wdot)
    if w.shape != wdot.shape:
        raise DimensionMismatch("W and Wdot must have matching shapes")
    val = angle_derivative_right(CurvePoint(w=w, wdot=wdot)) * _angle_scale(args)
    _emit(args, ("derivative",), [(float(val),)], _meta(args, {"w": args.w, "wdot": args.wdot}, value=val))
    print("value = %s" % repr(float(val)))
    return EXIT_OK


# time class -> (system from config, estimator, reader of the horizon [and step])
_TIME_CLASSES = {
    "discrete": (build_discrete_system, estimate_angular_value,
                 lambda cfg: (_integral("horizon", cfg["horizon"]),)),
    "continuous": (build_continuous_system, estimate_angular_value_ct,
                   lambda cfg: (_number("horizon", cfg["horizon"]), _number("step", cfg["step"]))),
}


def cmd_estimate(args):
    cfg = load_config(args)
    build, estimate, read_horizon = _TIME_CLASSES[args.command]
    rep = estimate(
        build(cfg["system"]),
        _integral("s", cfg.get("s", 1)),
        cfg.get("variant", "sup-limsup"),
        *read_horizon(cfg),
        build_search_config(cfg, args.seed),
    )
    headers = ("variant", "s", "horizon", "value", "tail_sup", "tail_inf", "candidates", "evaluations")
    row = (rep.variant, rep.subspace_dim, float(rep.horizon), float(rep.value), float(rep.tail_sup),
           float(rep.tail_inf), rep.candidates, rep.evaluations)
    _emit(args, headers, [row], _meta(args, cfg, value=rep.value))
    print("value = %s" % repr(float(rep.value)))
    return EXIT_OK


def cmd_autonomous(args):
    cfg = load_config(args)
    _settings(cfg, "quad", {})  # the rules take no settings: every key is refused
    if "resonant" in cfg:
        r = cfg["resonant"]
        res = angular_value_resonant_4d(
            _number("omega1", r["omega1"]),
            _integral("p", r["p"]),
            _integral("q", r["q"]),
            _number("rho1", r["rho1"]),
            _number("rho2", r["rho2"]),
        )
        rows = [(float(t), float(l)) for t, l in zip(res.t_values, res.l_values)]
        meta = _meta(
            args, cfg, value=res.value, t_argmax=res.t_argmax, err_estimate=res.error
        )
        _emit(args, ("t", "L"), rows, meta)
    else:
        spec = build_schur_spec(cfg["blocks"])
        res = angular_value_irrational(
            _integral("s", cfg["s"]), spec, override_gate=bool(cfg.get("override_gate", False))
        )
        rows = [
            ("+".join(str(j) for j in sv.index_set) or "empty", float(sv.value), float(sv.error))
            for sv in res.per_set
        ]
        meta = _meta(
            args,
            cfg,
            value=res.value,
            argmax_set=list(res.argmax_set),
            err_estimate=res.error,
        )
        _emit(args, ("index_set", "value", "error"), rows, meta)
    print("value = %s" % repr(float(res.value)))
    return EXIT_OK


def cmd_sweep(args):
    cfg = load_config(args)
    _settings(cfg, "quad", {})
    cells = hairy_sweep(
        _number("omega1", cfg["omega1"]),
        _number("rho1", cfg["rho1"]),
        kappa_grid=_numbers("kappa_grid", cfg["kappa_grid"]) if "kappa_grid" in cfg else None,
        rho2_grid=_numbers("rho2_grid", cfg["rho2_grid"]) if "rho2_grid" in cfg else None,
        qmax=_integral("qmax", cfg.get("qmax", 20)),
    )
    rows = []
    for c in cells:
        rows.append(
            (
                float(c.kappa),
                float(c.rho2),
                c.tag.kind,
                c.tag.p,
                c.tag.q,
                float(c.value),
                None if c.t_argmax is None else float(c.t_argmax),
                float(c.err_estimate),
            )
        )
    headers = ("kappa", "rho2", "tag", "p", "q", "value", "t_argmax", "err_estimate")
    # per-cell seconds summed by kind; with one worker their total stays below the wall time
    kinds = {kind: {"cells": 0, "seconds": 0.0} for kind in ("rational", "irrational")}
    for c in cells:
        kinds[c.tag.kind]["cells"] += 1
        kinds[c.tag.kind]["seconds"] += c.seconds
    _emit(args, headers, rows, _meta(args, cfg, cells=len(rows), cells_by_kind=kinds))
    return EXIT_OK


def cmd_oracle(args):
    cfg = load_config(args)
    kind = cfg["kind"]
    if kind == "maxmin":
        samples = _integral("samples", cfg.get("samples", 10**6))
        if not 1 <= samples <= MAX_ORACLE_SAMPLES:
            # the oracle tabulates sqrt(samples)^2 doubles for planes
            raise ValueError("samples must be in 1..%d" % MAX_ORACLE_SAMPLES)
        val = maxmin_angle(*_subspace_pair(cfg["v"], cfg["w"]), samples=samples, seed=args.seed)
    elif kind == "birkhoff":
        time_kind = cfg.get("time", "discrete")
        if time_kind not in ("discrete", "continuous"):
            raise ValueError("oracle time must be discrete or continuous")
        build, _, read_horizon = _TIME_CLASSES[time_kind]
        sys_ = build(cfg["system"])
        horizon, step = (*read_horizon(cfg), None)[:2]  # a discrete horizon has no step
        if step is not None and not step > 0.0:
            raise ValueError("oracle step must be positive")
        nsteps = horizon if step is None else horizon / step
        # one QR and one SVD per step, capped like one search evaluation
        if nsteps > SubspaceSearchConfig.cost_cap:
            raise BudgetExceeded(
                "oracle horizon of %g steps exceeds the cost cap %g" % (nsteps, SubspaceSearchConfig.cost_cap)
            )
        if round(nsteps) < 1:
            raise ValueError("oracle horizon must cover at least one step")
        v0 = cfg["v0"]
        v0 = load_matrix(v0) if isinstance(v0, str) else np.asarray(v0, dtype=float)
        val = birkhoff_average(sys_, v0, horizon, step=step)
    elif kind == "fd_derivative":
        val = fd_angle_derivative(load_matrix(cfg["w"]), load_matrix(cfg["wdot"]), _number("h", cfg["h"]))
    else:
        raise ValueError("unknown oracle kind %r" % kind)
    val = float(val) * _angle_scale(args)
    _emit(args, ("value",), [(val,)], _meta(args, cfg, value=val))
    print("value = %s" % repr(val))
    return EXIT_OK


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=int, default=0, help="search / sampling seed")
    common.add_argument("--out", help="write CSV here (plus <out>.meta.json)")
    common.add_argument("--threads", type=int, default=None, help="retired: only 1 is accepted")
    common.add_argument("--degrees", action="store_true", help="display angles in degrees")

    p = argparse.ArgumentParser(prog="angval", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version="angval " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("angles", parents=[common], help="principal angles between subspaces")
    pa.add_argument("v", help="matrix file spanning V")
    pa.add_argument("w", help="matrix file spanning W")
    pa.set_defaults(func=cmd_angles)

    pm = sub.add_parser("metrics", parents=[common], help="subspace metrics d1, d2, dF, dsigma")
    pm.add_argument("v")
    pm.add_argument("w")
    pm.set_defaults(func=cmd_metrics)

    pd = sub.add_parser("derivative", parents=[common], help="right derivative of the max angle")
    pd.add_argument("w", help="matrix file for the curve point W")
    pd.add_argument("wdot", help="matrix file for the velocity Wdot")
    pd.set_defaults(func=cmd_derivative)

    for name, fn, help_ in (
        ("discrete", cmd_estimate, "discrete-time angular value estimate"),
        ("continuous", cmd_estimate, "continuous-time angular value estimate"),
        ("autonomous", cmd_autonomous, "closed-form autonomous angular value"),
        ("sweep", cmd_sweep, "two-frequency (kappa, rho2) parameter sweep"),
        ("oracle", cmd_oracle, "slow reference evaluations"),
    ):
        sp = sub.add_parser(name, parents=[common], help=help_)
        sp.set_defaults(func=fn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.threads not in (None, 1):
            raise ValueError("--threads takes only 1, got %d: the sweep runs one worker" % args.threads)
        return args.func(args)
    except AngvalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError, TypeError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
