"""Command line driver.

Matrix files are plain CSV with a `# rows cols` header line.  Structured
runs (dynamical systems, autonomous specs, sweeps) read a single JSON
config; the resolved config is embedded verbatim in the run metadata that
accompanies every --out file.  Each command accepts only the flags it reads
(`_COMMANDS`).  All angles are radians unless --degrees is given, and all
outputs are deterministic for a fixed (config, seed).

Exit codes: 0 ok, 2 bad input, 3 numerical failure, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from .autonomous import T_POINTS, SchurSpec, angular_value_irrational, angular_value_resonant_4d, resonant_line
from .continuous import ContinuousSystem, estimate_angular_value_ct
from .discrete import DiscreteSystem, estimate_angular_value
from .errors import AngvalError, BudgetExceeded, DimensionMismatch, SingularMatrix
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
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("%s: matrix files start with a '# rows cols' header" % path)
        parts = header[1:].split()
        if len(parts) != 2:
            raise ValueError("%s: malformed matrix header %r" % (path, header.strip()))
        rows, cols = int(parts[0]), int(parts[1])
        if rows < 1 or cols < 1:
            raise ValueError("%s: header promises %dx%d, but a matrix needs a row and a column" % (path, rows, cols))
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
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        print("wrote %s (%d rows)" % (args.out, len(rows)))
    else:
        sys.stdout.write(text)


def _meta(args, config, **extra):
    # a command records --seed and --degrees only if it takes them
    meta = {"version": __version__, "command": args.command, "config": config, **extra}
    meta.update((key, getattr(args, key)) for key in ("seed", "degrees") if hasattr(args, key))
    return meta


def _angle_scale(args):
    return 180.0 / math.pi if args.degrees else 1.0


def _finite_number(text, kind=float):
    if not math.isfinite(float(text)):
        raise ValueError("config value %s is not a finite number" % text)
    return kind(text)


def load_config(args):
    with open(args.config) as fh:
        # NaN, Infinity and literals beyond the float range are bad input, not values
        return json.load(fh, parse_float=_finite_number, parse_constant=_finite_number,
                         parse_int=lambda text: _finite_number(text, int))


def _number(key, x):
    # float() would also take true and "0.3"
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise ValueError("%s must be a finite number, got %r" % (key, x))
    return float(x)


def _integral(key, x):
    # int() would truncate 2048.5 to 2048 and accept "2048" and true
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("%s must be an integer, got %r" % (key, x))
    return x


def _array(key, x):
    # a JSON number or nested lists of them (a matrix, a grid), returned as
    # given, so that messages quote the config
    if isinstance(x, list):
        for entry in x:
            _array(key, entry)
    else:
        _number(key, x)
    return x


def _flag(key, x):
    # bool() would read "false" as true
    if not isinstance(x, bool):
        raise ValueError("%s must be true or false, got %r" % (key, x))
    return x


def _text(key, x):
    if not isinstance(x, str):
        raise ValueError("%s must be a string, got %r" % (key, x))
    return x


def _path(key, x):
    # open() would take an integer for a file descriptor, and close it
    if not isinstance(x, str):
        raise ValueError("matrix path must be a string, got %r" % (x,))
    return x


class _Required(functools.partial):
    """The reader of a key that its object must give."""


def _object(name, given, readers):
    """The JSON object `given`, each key read by its reader in the order of
    `readers`; a key with no reader, and a missing required key, are refused."""
    if not isinstance(given, dict):
        raise ValueError("%s must be a JSON object, got %r" % (name, given))
    unknown = sorted(set(given) - set(readers))
    if unknown:
        raise ValueError("unknown %s settings: %s" % (name, ", ".join(unknown)))
    missing = sorted(key for key, read in readers.items() if isinstance(read, _Required) and key not in given)
    if missing:
        raise ValueError("missing %s settings: %s" % (name, ", ".join(missing)))
    return {key: read(key, given[key]) for key, read in readers.items() if key in given}


def _nested(readers):
    # the reader of a JSON object nested under a key
    return lambda key, given: _object(key, given, readers)


# system kinds of each time class: kind -> (its keys besides kind, the system its settings describe)
_DISCRETE_KINDS = {
    "constant": ({"matrix": _Required(_array)}, lambda c: DiscreteSystem.constant(c["matrix"])),
    "cycle": ({"matrices": _Required(_array)}, lambda c: DiscreteSystem.from_sequence(c["matrices"], cycle=True)),
    "planar_rotation": (dict.fromkeys(("rho", "phi"), _Required(_number)),
                        lambda c: DiscreteSystem.planar_rotation(c["rho"], c["phi"])),
}
_CONTINUOUS_KINDS = {
    "constant": ({"matrix": _Required(_array)}, lambda c: ContinuousSystem.from_constant(c["matrix"])),
    "model2d": (dict.fromkeys(("rho", "omega"), _Required(_number)),
                lambda c: ContinuousSystem.model2d(c["rho"], c["omega"])),
}


def _build_system(cfg, kinds, time_class):
    kind = cfg.get("kind", "constant") if isinstance(cfg, dict) else "constant"
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError("unknown %s system kind %r" % (time_class, kind))
    keys, build = kinds[kind]
    return build(_object("system", cfg, dict(keys, kind=_text)))


def build_discrete_system(cfg):
    return _build_system(cfg, _DISCRETE_KINDS, "discrete")


def build_continuous_system(cfg):
    return _build_system(cfg, _CONTINUOUS_KINDS, "continuous")


_SEARCH_KEYS = {"candidates": _integral, "refine_rounds": _integral, "sample_times": _array, "cost_cap": _number}


def build_search_config(cfg, seed):
    return SubspaceSearchConfig(seed=seed, **_object("search", cfg.get("search", {}), _SEARCH_KEYS))


def _block(given):
    # a 1x1 real block gives only beta; a block that gives omega or rho is a
    # 2x2 block, which needs all three
    real = not (isinstance(given, dict) and {"omega", "rho"} & set(given))
    b = _object("block", given, _BLOCK_KEYS if real else dict.fromkeys(_BLOCK_KEYS, _Required(_number)))
    return RealBlock(**b) if real else ComplexBlock(**b)


def _schur_spec(key, blocks):
    return SchurSpec(tuple(_block(b) for b in blocks))


# the keys of the other JSON objects the commands read; a time class adds its
# system and horizon keys to those of an estimate and of a birkhoff oracle
_ESTIMATE_KEYS = {"s": _integral, "variant": _text, "search": _nested(_SEARCH_KEYS)}
_BLOCK_KEYS = {"beta": _Required(_number), "omega": _number, "rho": _number}
_RESONANT_KEYS = {"omega1": _Required(_number), "p": _Required(_integral), "q": _Required(_integral),
                  "rho1": _Required(_number), "rho2": _Required(_number)}
_AUTONOMOUS_KEYS = {"blocks": _Required(_schur_spec), "s": _Required(_integral), "override_gate": _flag}
_SWEEP_KEYS = {"omega1": _Required(_number), "rho1": _Required(_number), "kappa_grid": _array, "rho2_grid": _array,
               "qmax": _integral}
_ORACLE_KINDS = {
    "maxmin": {"v": _Required(_path), "w": _Required(_path), "samples": _integral},
    # v0 is a matrix path or an inline matrix
    "birkhoff": {"time": _text, "v0": _Required(lambda key, x: x if isinstance(x, str) else _array(key, x))},
    "fd_derivative": {"w": _Required(_path), "wdot": _Required(_path), "h": _Required(_number)},
}


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
    if val == math.inf:  # a finite value in radians may overflow in degrees
        raise SingularMatrix("the derivative leaves the float range")
    _emit(args, ("derivative",), [(float(val),)], _meta(args, {"w": args.w, "wdot": args.wdot}, value=val))
    print("value = %s" % repr(float(val)))
    return EXIT_OK


# time class -> (system from config, estimator, the keys of its horizon [and step])
_TIME_CLASSES = {
    "discrete": (build_discrete_system, estimate_angular_value, {"horizon": _Required(_integral)}),
    "continuous": (build_continuous_system, estimate_angular_value_ct,
                   dict.fromkeys(("horizon", "step"), _Required(_number))),
}


def cmd_estimate(args):
    cfg = load_config(args)
    build, estimate, horizon = _TIME_CLASSES[args.command]
    c = _object(args.command, cfg, {"system": _Required(lambda _, x: build(x)), **_ESTIMATE_KEYS, **horizon})
    rep = estimate(c["system"], c.get("s", 1), c.get("variant", "sup-limsup"), *(c[key] for key in horizon),
                   SubspaceSearchConfig(seed=args.seed, **c.get("search", {})))
    headers = ("variant", "s", "horizon", "value", "tail_sup", "tail_inf", "candidates", "evaluations")
    row = (rep.variant, rep.subspace_dim, float(rep.horizon), float(rep.value), float(rep.tail_sup),
           float(rep.tail_inf), rep.candidates, rep.evaluations)
    _emit(args, headers, [row], _meta(args, cfg, value=rep.value))
    print("value = %s" % repr(float(rep.value)))
    return EXIT_OK


def cmd_autonomous(args):
    cfg = load_config(args)
    if "resonant" in cfg:
        line = _object("autonomous", cfg, {"resonant": _nested(_RESONANT_KEYS)})["resonant"]
        res = angular_value_resonant_4d(**line)
        # one full period of L for plotting; the value needs only the domain [0, pi/(2p)]
        ts = np.arange(T_POINTS) * (2.0 * math.pi / T_POINTS)
        rows = [(float(t), float(l)) for t, l in zip(ts, resonant_line(**line, t=ts))]
        meta = _meta(
            args, cfg, value=res.value, t_argmax=res.t_argmax, err_estimate=res.error
        )
        _emit(args, ("t", "L"), rows, meta)
    else:
        c = _object("autonomous", cfg, _AUTONOMOUS_KEYS)
        res = angular_value_irrational(c["s"], c["blocks"], override_gate=c.get("override_gate", False))
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
    cells = hairy_sweep(**_object("sweep", cfg, _SWEEP_KEYS))
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
    # per-cell seconds summed by kind, each a batched cell's share of its pass plus its own
    # search for the sup; their total stays below the wall time of the sweep
    kinds = {kind: {"cells": 0, "seconds": 0.0} for kind in ("rational", "irrational")}
    for c in cells:
        kinds[c.tag.kind]["cells"] += 1
        kinds[c.tag.kind]["seconds"] += c.seconds
    _emit(args, headers, rows, _meta(args, cfg, cells=len(rows), cells_by_kind=kinds))
    return EXIT_OK


def cmd_oracle(args):
    cfg = load_config(args)
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in _ORACLE_KINDS:
        raise ValueError("unknown oracle kind %r" % (kind,))
    keys = dict(_ORACLE_KINDS[kind], kind=_text)
    if kind == "birkhoff":
        time_kind = cfg.get("time", "discrete")
        if time_kind not in ("discrete", "continuous"):
            raise ValueError("oracle time must be discrete or continuous")
        build, _, timed = _TIME_CLASSES[time_kind]
        keys.update(system=_Required(lambda _, x: build(x)), **timed)
    c = _object("%s oracle" % kind, cfg, keys)
    if kind == "maxmin":
        samples = c.get("samples", 10**6)
        if not 1 <= samples <= MAX_ORACLE_SAMPLES:
            # the oracle tabulates sqrt(samples)^2 doubles for planes
            raise ValueError("samples must be in 1..%d" % MAX_ORACLE_SAMPLES)
        val = maxmin_angle(*_subspace_pair(c["v"], c["w"]), samples=samples, seed=args.seed)
    elif kind == "birkhoff":
        horizon, step = (*(c[key] for key in timed), None)[:2]  # a discrete horizon has no step
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
        v0 = c["v0"]
        v0 = load_matrix(v0) if isinstance(v0, str) else np.asarray(v0, dtype=float)
        val = birkhoff_average(c["system"], v0, horizon, step=step)
    else:
        val = fd_angle_derivative(load_matrix(c["w"]), load_matrix(c["wdot"]), c["h"])
    val = float(val) * _angle_scale(args)
    _emit(args, ("value",), [(val,)], _meta(args, cfg, value=val))
    print("value = %s" % repr(val))
    return EXIT_OK


# flag -> its argparse settings
_FLAGS = {
    "--config": dict(required=True, help="JSON run configuration"),
    "--seed": dict(type=int, default=0, help="search / sampling seed"),
    "--out": dict(help="write CSV here (plus <out>.meta.json)"),
    "--threads": dict(type=int, help="retired: only 1 is accepted"),
    "--degrees": dict(action="store_true", help="display angles in degrees"),
}
_MATRIX_FLAGS = ("--out", "--degrees")
_ESTIMATE_FLAGS = ("--config", "--seed", "--out", "--threads")
_RUN_FLAGS = ("--config", "--out", "--threads")
# command -> (handler, help, its positional matrix files, the flags it reads)
_COMMANDS = {
    "angles": (cmd_angles, "principal angles between subspaces", ("v", "w"), _MATRIX_FLAGS),
    "metrics": (cmd_metrics, "subspace metrics d1, d2, dF, dsigma", ("v", "w"), _MATRIX_FLAGS),
    "derivative": (cmd_derivative, "right derivative of the max angle", ("w", "wdot"), _MATRIX_FLAGS),
    "discrete": (cmd_estimate, "discrete-time angular value estimate", (), _ESTIMATE_FLAGS),
    "continuous": (cmd_estimate, "continuous-time angular value estimate", (), _ESTIMATE_FLAGS),
    "autonomous": (cmd_autonomous, "closed-form autonomous angular value", (), _RUN_FLAGS),
    "sweep": (cmd_sweep, "two-frequency (kappa, rho2) parameter sweep", (), _RUN_FLAGS),
    "oracle": (cmd_oracle, "slow reference evaluations", (), ("--config", "--seed", "--out", "--degrees")),
}


@functools.lru_cache(maxsize=None)
def build_parser():
    # built once per process: parse_args reads the parser and never changes it
    p = argparse.ArgumentParser(prog="angval", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version="angval " + __version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_, files, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for file in files:
            sp.add_argument(file, help="matrix file")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", None) not in (None, 1):
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
