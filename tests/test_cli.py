import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from angval.autonomous import MAX_ORDER, MIN_RHO, T_POINTS
from angval.cli import (
    _AUTONOMOUS_KEYS,
    _BLOCK_KEYS,
    _CONTINUOUS_KINDS,
    _DISCRETE_KINDS,
    _ESTIMATE_KEYS,
    _ORACLE_KINDS,
    _RESONANT_KEYS,
    _SEARCH_KEYS,
    _SWEEP_KEYS,
    _TIME_CLASSES,
    build_parser,
    load_matrix,
    main,
    save_matrix,
)


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def value_from(capsys):
    out = capsys.readouterr().out
    for line in reversed(out.strip().splitlines()):
        if line.startswith("value = "):
            return float(line.split("=", 1)[1])
    raise AssertionError("no value line in output:\n" + out)


def csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.fixture
def planar(tmp_path):
    v = tmp_path / "v.csv"
    w = tmp_path / "w.csv"
    save_matrix(v, np.array([[1.0], [0.0]]))
    save_matrix(w, np.array([[math.cos(0.3)], [math.sin(0.3)]]))
    return str(v), str(w)


def test_matrix_roundtrip(tmp_path):
    m = np.arange(6.0).reshape(3, 2) / 7.0
    path = tmp_path / "m.csv"
    save_matrix(path, m)
    assert path.read_text().startswith("# 3 2\n")
    assert np.array_equal(load_matrix(path), m)


def test_angles_identical_files(tmp_path, capsys):
    p = tmp_path / "v.csv"
    save_matrix(p, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert main(["angles", str(p), str(p)]) == 0
    headers, rows = csv_rows(capsys.readouterr().out)
    assert headers == ["j", "phi_j", "cos", "sin"]
    assert len(rows) == 2
    for j, row in enumerate(rows):
        assert row[0] == str(j + 1)
        assert float(row[1]) == 0.0
        assert float(row[2]) == 1.0 and float(row[3]) == 0.0


def test_angles_planar_fixture(planar, capsys):
    v, w = planar
    assert main(["angles", v, w]) == 0
    _, rows = csv_rows(capsys.readouterr().out)
    assert abs(float(rows[0][1]) - 0.3) < 1e-12


def test_angles_orthogonal_degrees(tmp_path, capsys):
    v = tmp_path / "v.csv"
    w = tmp_path / "w.csv"
    save_matrix(v, np.array([[1.0], [0.0]]))
    save_matrix(w, np.array([[0.0], [1.0]]))
    assert main(["angles", str(v), str(w), "--degrees"]) == 0
    _, rows = csv_rows(capsys.readouterr().out)
    assert abs(float(rows[0][1]) - 90.0) < 1e-9
    assert abs(float(rows[0][2])) < 1e-15 and abs(float(rows[0][3]) - 1.0) < 1e-15


def test_angles_out_files(planar, tmp_path, capsys):
    v, w = planar
    out = tmp_path / "angles.csv"
    assert main(["angles", v, w, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    headers, rows = csv_rows(out.read_text())
    assert headers == ["j", "phi_j", "cos", "sin"] and len(rows) == 1
    meta = json.loads((tmp_path / "angles.csv.meta.json").read_text())
    assert meta["command"] == "angles" and meta["seed"] == 0


def test_angles_dimension_mismatch_is_exit_2(tmp_path, capsys):
    v = tmp_path / "v.csv"
    w = tmp_path / "w.csv"
    save_matrix(v, np.eye(4, 1))
    save_matrix(w, np.eye(5, 1))
    assert main(["angles", str(v), str(w)]) == 2
    assert "error" in capsys.readouterr().err


def test_angles_rank_deficiency_is_exit_3(tmp_path, capsys):
    v = tmp_path / "v.csv"
    m = np.ones((4, 2))
    save_matrix(v, m)
    assert main(["angles", str(v), str(v)]) == 3
    assert "error" in capsys.readouterr().err


def test_svd_no_convergence_is_exit_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    v = tmp_path / "v.csv"
    save_matrix(v, np.eye(3, 2))
    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["angles", str(v), str(v)]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_non_finite_matrix_file_is_exit_2(tmp_path, capsys):
    v0 = tmp_path / "v0.csv"
    v0.write_text("# 2 1\nnan\n0\n")
    cfg = write_config(
        tmp_path,
        "o.json",
        {
            "kind": "birkhoff",
            "time": "discrete",
            "system": {"kind": "planar_rotation", "rho": 1.0, "phi": 0.3},
            "v0": str(v0),
            "horizon": 250,
        },
    )
    assert main(["oracle", "--config", cfg]) == 2
    assert "non-finite" in capsys.readouterr().err
    with pytest.raises(ValueError):
        load_matrix(v0)


def test_malformed_matrix_header_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,4.0\n")
    good = tmp_path / "good.csv"
    save_matrix(good, np.eye(2))
    assert main(["angles", str(bad), str(good)]) == 2
    capsys.readouterr()


def test_metrics_identities(tmp_path, capsys):
    rng = np.random.default_rng(12)
    v = tmp_path / "v.csv"
    w = tmp_path / "w.csv"
    save_matrix(v, rng.standard_normal((5, 2)))
    save_matrix(w, rng.standard_normal((5, 2)))
    assert main(["metrics", str(v), str(w)]) == 0
    headers, rows = csv_rows(capsys.readouterr().out)
    assert headers == ["metric", "value"]
    vals = {r[0]: float(r[1]) for r in rows}
    assert set(vals) == {"d1", "d2", "dF", "dsigma"}
    assert abs(vals["d2"] - math.sin(vals["d1"])) < 1e-12
    assert abs(vals["dsigma"] - 2.0 * math.sin(vals["d1"] / 2.0)) < 1e-12


def test_derivative_unit_rotation(tmp_path, capsys):
    w = tmp_path / "w.csv"
    wd = tmp_path / "wd.csv"
    save_matrix(w, np.array([[1.0], [0.0]]))
    save_matrix(wd, np.array([[0.0], [1.0]]))
    assert main(["derivative", str(w), str(wd)]) == 0
    assert abs(value_from(capsys) - 1.0) < 1e-12


_LINE = [[1.0], [0.0]]
_HUGE_AND_TINY = 1e308, 1e-200
_BIG_PLANE = [[1e308, 1e308], [1e308, -1e308], [0.0, 0.0]]


@pytest.mark.parametrize(
    "command,v,w,want",
    [
        # the derivative read sigma_max of a one-column matrix from a norm
        # that overflowed to inf (with a RuntimeWarning) or underflowed to 0
        *(("derivative", _LINE, [[x], [x]], [x]) for x in _HUGE_AND_TINY),
        # finite spanning sets were normalized by a norm that overflowed
        # (exit 2, with a RuntimeWarning) or underflowed (exit 3)
        *((command, _LINE, [[x], [x]], [math.pi / 4]) for command in ("angles", "metrics") for x in _HUGE_AND_TINY),
        ("angles", np.eye(3, 2), _BIG_PLANE, [0.0, 0.0]),
        ("metrics", np.eye(3, 2), _BIG_PLANE, [0.0]),
        # the rank test is relative to sigma_max(W), so a tiny W is a
        # full-rank basis; the derivative scales with 1/W
        ("derivative", [[1e-200], [0.0]], [[0.0], [1.0]], [1e200]),
        # the part of Wdot inside span W overflowed when it was whitened
        # before the projection (exit 3)
        ("derivative", [[0.5], [0.0]], [[1e308], [1e-3]], [0.002]),
    ],
)
def test_huge_and_tiny_spanning_sets_are_read_exactly(tmp_path, capsys, command, v, w, want):
    save_matrix(tmp_path / "v.csv", np.array(v))
    save_matrix(tmp_path / "w.csv", np.array(w))
    assert main([command, str(tmp_path / "v.csv"), str(tmp_path / "w.csv")]) == 0
    _, rows = csv_rows(capsys.readouterr().out.split("value =")[0])
    # the derivative, each angle phi_j, or the metric d1
    got = [float(row[-1 if command == "derivative" else 1]) for row in rows][: len(want)]
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "w,wdot",
    [
        ([[5e-324], [0.0]], [[0.3], [0.9]]),  # 1/sigma_min(W) overflows
        ([[0.5], [0.0]], [[1e308], [1e308]]),  # Wdot (W^T W)^(-1/2) overflows
    ],
)
def test_derivative_beyond_the_float_range_is_exit_3(tmp_path, capsys, w, wdot):
    save_matrix(tmp_path / "w.csv", np.array(w))
    save_matrix(tmp_path / "wd.csv", np.array(wdot))
    assert main(["derivative", str(tmp_path / "w.csv"), str(tmp_path / "wd.csv")]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: the derivative leaves the float range\n" and captured.out == ""


def test_derivative_beyond_the_float_range_in_degrees_is_exit_3(tmp_path, capsys):
    # 1e308 radians per unit time is finite, but not in degrees: it printed
    # inf with exit 0
    save_matrix(tmp_path / "w.csv", np.array([[1.0], [0.0]]))
    save_matrix(tmp_path / "wd.csv", np.array([[0.0], [1e308]]))
    assert main(["derivative", str(tmp_path / "w.csv"), str(tmp_path / "wd.csv"), "--degrees"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: the derivative leaves the float range\n" and captured.out == ""


@pytest.mark.parametrize("header", ["# 3 0", "# 0 0"])
def test_header_only_matrix_file_is_one_error_line(tmp_path, capsys, header):
    # numpy's "input contained no data" warning stays off stderr
    empty = tmp_path / "empty.csv"
    empty.write_text(header + "\n")
    save_matrix(tmp_path / "good.csv", np.eye(3, 1))
    assert main(["angles", str(empty), str(tmp_path / "good.csv")]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: [^\n]*header promises [^\n]*\n", captured.err) and captured.out == ""


@pytest.mark.parametrize("command", ["derivative", "angles"])
@pytest.mark.parametrize("header", ["# 0 1", "# 1 0", "# -1 1"])
def test_empty_matrix_header_is_exit_2(tmp_path, capsys, command, header):
    # "# 0 1" with no data rows reads as a 0x1 matrix that matches its header;
    # derivative then ended in an IndexError traceback on its empty SVD
    empty = tmp_path / "e.csv"
    empty.write_text(header + "\n")
    assert main([command, str(empty), str(empty)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: [^\n]*header promises [^\n]*needs a row and a column\n", captured.err)
    assert captured.out == ""


def test_consecutive_calls_share_no_state(planar, tmp_path, capsys):
    # the parser is built once per process, and each call parses into its own namespace
    v, w = planar
    assert main(["angles", v, w, "--degrees"]) == 0
    assert abs(float(csv_rows(capsys.readouterr().out)[1][0][1]) - math.degrees(0.3)) < 1e-9
    assert main(["angles", v, w]) == 0
    assert abs(float(csv_rows(capsys.readouterr().out)[1][0][1]) - 0.3) < 1e-12
    out = tmp_path / "a.csv"
    assert main(["angles", v, w, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("wrote")
    out.unlink()
    assert main(["angles", v, w]) == 0
    headers, rows = csv_rows(capsys.readouterr().out)
    assert headers == ["j", "phi_j", "cos", "sin"] and len(rows) == 1 and not out.exists()
    assert build_parser() is build_parser()


def test_discrete_identity_is_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "d.json",
        {
            "system": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "s": 1,
            "horizon": 64,
            "search": {"candidates": 3, "refine_rounds": 1},
        },
    )
    assert main(["discrete", "--config", cfg]) == 0
    assert abs(value_from(capsys)) < 1e-12


def test_discrete_budget_is_exit_4(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "d.json",
        {
            "system": {"kind": "planar_rotation", "rho": 0.5, "phi": 0.3},
            "horizon": 10**9,
        },
    )
    assert main(["discrete", "--config", cfg]) == 4
    assert "error" in capsys.readouterr().err


def test_continuous_model_recovers_omega(tmp_path, capsys):
    horizon = 50.0 * math.pi
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "system": {"kind": "model2d", "rho": 1.0 / 3.0, "omega": 1.0},
            "s": 1,
            "horizon": horizon,
            "step": 5e-3,
            "search": {"candidates": 2, "refine_rounds": 0, "sample_times": [horizon]},
        },
    )
    assert main(["continuous", "--config", cfg]) == 0
    assert abs(value_from(capsys) - 1.0) < 1e-3


def test_autonomous_headline_number(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "a.json",
        {
            "blocks": [
                {"beta": 0.0, "omega": 1.0, "rho": 1.0 / 3.0},
                {"beta": -1.0, "omega": 1.0 / math.sqrt(2.0), "rho": 0.25},
            ],
            "s": 2,
        },
    )
    assert main(["autonomous", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "1+2" in out
    val = [float(l.split("=")[1]) for l in out.splitlines() if l.startswith("value =")][0]
    assert abs(val - 1.2693394) < 1e-5


def test_autonomous_resonant_emits_line(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "r.json",
        {
            "resonant": {"omega1": 1.0, "p": 1, "q": 2, "rho1": 1.0 / 3.0, "rho2": 0.25},
        },
    )
    out = tmp_path / "line.csv"
    assert main(["autonomous", "--config", cfg, "--out", str(out)]) == 0
    assert value_from(capsys) >= 1.0 - 1e-9
    headers, rows = csv_rows(out.read_text())
    assert headers == ["t", "L"] and len(rows) == 720


def test_autonomous_rational_gate_is_exit_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "g.json",
        {
            "blocks": [
                {"beta": 0.0, "omega": 1.0, "rho": 0.5},
                {"beta": -1.0, "omega": 0.5, "rho": 0.5},
            ],
            "s": 2,
        },
    )
    assert main(["autonomous", "--config", cfg]) == 3
    assert "omega" in capsys.readouterr().err


def test_sweep_csv_and_determinism(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s.json",
        {
            "omega1": 1.0,
            "rho1": 1.0 / 3.0,
            "kappa_grid": [0.5, 0.505],
            "rho2_grid": [0.25],
        },
    )
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--threads", "1"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    # the sweep runs one worker: any other count is refused
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--threads", "3"]) == 2
    capsys.readouterr()
    headers, rows = csv_rows(out1.read_text())
    assert headers == ["kappa", "rho2", "tag", "p", "q", "value", "t_argmax", "err_estimate"]
    rational = rows[0]
    assert rational[2] == "rational" and rational[3] == "1" and rational[4] == "2"
    assert rational[6] != ""
    irrational = rows[1]
    assert irrational[2] == "irrational" and irrational[3] == "" and irrational[4] == ""
    assert irrational[6] == ""
    meta = json.loads((tmp_path / "s1.csv.meta.json").read_text())
    assert meta["config"]["kappa_grid"] == [0.5, 0.505]
    assert meta["cells"] == 2
    kinds = meta["cells_by_kind"]
    assert {k: v["cells"] for k, v in kinds.items()} == {"rational": 1, "irrational": 1}
    assert all(v["seconds"] > 0.0 for v in kinds.values())


def test_oracle_birkhoff_rotation(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "o.json",
        {
            "kind": "birkhoff",
            "time": "discrete",
            "system": {"kind": "planar_rotation", "rho": 1.0, "phi": 0.3},
            "v0": [[1.0], [0.0]],
            "horizon": 250,
        },
    )
    assert main(["oracle", "--config", cfg]) == 0
    assert abs(value_from(capsys) - 0.3) < 1e-12


def test_oracle_birkhoff_dimension_mismatch_names_v0(tmp_path, capsys):
    # a v0 in R^2 against a system on R^3 is bad input that names v0 and
    # both dimensions, not a matmul error
    cfg = write_config(
        tmp_path,
        "o.json",
        {"kind": "birkhoff", "system": {"kind": "constant", "matrix": np.eye(3).tolist()}, "v0": [[1], [0]],
         "horizon": 10},
    )
    assert main(["oracle", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "v0" in err and "R^2" in err and "R^3" in err and "matmul" not in err


def test_oracle_fd_derivative(tmp_path, capsys):
    w = tmp_path / "w.csv"
    wd = tmp_path / "wd.csv"
    save_matrix(w, np.array([[1.0], [0.0]]))
    save_matrix(wd, np.array([[0.0], [1.0]]))
    cfg = write_config(
        tmp_path, "o.json", {"kind": "fd_derivative", "w": str(w), "wdot": str(wd), "h": 1e-6}
    )
    assert main(["oracle", "--config", cfg]) == 0
    assert abs(value_from(capsys) - 1.0) < 1e-5


def test_missing_config_is_exit_2(capsys):
    assert main(["discrete"]) == 2
    assert "config" in capsys.readouterr().err


def test_unknown_search_key_is_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "d.json",
        {
            "system": {"kind": "constant", "matrix": [[1.0]]},
            "horizon": 10,
            "search": {"candidatez": 3},
        },
    )
    assert main(["discrete", "--config", cfg]) == 2
    capsys.readouterr()


def test_env_threads_fallback(tmp_path, capsys, monkeypatch):
    cfg = write_config(
        tmp_path,
        "s.json",
        {
            "omega1": 1.0,
            "rho1": 0.5,
            "kappa_grid": [0.7],
            "rho2_grid": [0.5],
        },
    )
    # ANGVAL_THREADS is no longer read, at any value
    for env in ("2", "lots"):
        monkeypatch.setenv("ANGVAL_THREADS", env)
        assert main(["sweep", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_autonomous_non_finite_omega_is_exit_2(tmp_path, capsys, literal):
    cfg = tmp_path / "a.json"
    cfg.write_text('{"blocks": [{"beta": 0.0, "omega": %s, "rho": 0.5}], "s": 1}' % literal)
    assert main(["autonomous", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert literal in captured.err and "value =" not in captured.out


def test_continuous_nan_matrix_is_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "system": {"kind": "constant", "matrix": [[0.0, -1.0], [1.0, math.nan]]},
            "horizon": 10.0,
            "step": 0.1,
        },
    )
    assert main(["continuous", "--config", cfg]) == 2
    assert "NaN" in capsys.readouterr().err


def test_sweep_meta_has_no_threads_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s.json",
        {"omega1": 1.0, "rho1": 0.5, "kappa_grid": [0.7], "rho2_grid": [0.5]},
    )
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    capsys.readouterr()
    assert "threads" not in json.loads((tmp_path / "s.csv.meta.json").read_text())


@pytest.mark.parametrize("threads", ["0", "-5", "2", "64"])
@pytest.mark.parametrize("command", ["sweep", "angles"])
def test_threads_other_than_one_is_exit_2(tmp_path, capsys, command, threads):
    # --threads is a retired setting: the sweep runs one worker, and the
    # flag is refused before any subcommand starts
    cfg = write_config(tmp_path, "s.json", {"omega1": 1.0, "rho1": 0.5, "kappa_grid": [0.7], "rho2_grid": [0.5]})
    v = str(tmp_path / "v.csv")
    save_matrix(v, np.eye(2, 1))
    argv = {"sweep": ["sweep", "--config", cfg], "angles": ["angles", v, v]}[command]
    assert main(argv + ["--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --threads takes only 1, got %s: the sweep runs one worker\n" % threads
    assert captured.out == ""


_TWO_BLOCKS = [
    {"beta": 0.0, "omega": 1.0, "rho": 1.0 / 3.0},
    {"beta": -1.0, "omega": 0.7071067811865476, "rho": 0.25},
]
_RESONANT = {"omega1": 1.0, "p": 1, "q": 2, "rho1": 0.5, "rho2": 0.25}
_SWEEP = {"omega1": 1.0, "rho1": 0.5, "kappa_grid": [0.7], "rho2_grid": [0.5]}
_IDENTITY = {"system": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}, "horizon": 10}
_MODEL2D = {"system": {"kind": "model2d", "rho": 0.5, "omega": 1.0}, "horizon": 10.0, "step": 0.1}
_BIRKHOFF = {
    "kind": "birkhoff",
    "system": {"kind": "planar_rotation", "rho": 1.0, "phi": 0.3},
    "v0": [[1.0], [0.0]],
    "horizon": 250,
}


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("autonomous", {"blocks": _TWO_BLOCKS, "s": 2, "quad": {"t_points": 0}}),
        ("sweep", dict(_SWEEP, quad={"t_points": -4})),
        ("autonomous", {"resonant": _RESONANT, "quad": {"t_points": 0}}),
        ("autonomous", {"resonant": _RESONANT, "quad": {"t_points": -4}}),
        ("autonomous", {"resonant": _RESONANT, "quad": {"t_points": 1000000000}}),
        ("sweep", dict(_SWEEP, quad={"t_points": 10**6})),
    ],
)
def test_degenerate_quad_grid_is_exit_2(tmp_path, capsys, command, cfg):
    # the resonant grid is fixed and neither command takes a quad object: both
    # refuse it whatever it holds
    path = write_config(tmp_path, "q.json", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert "unknown %s settings: quad" % command in captured.err and "value =" not in captured.out


@pytest.mark.parametrize(
    "command,cfg,message",
    [
        ("autonomous", {"resonant": dict(_RESONANT, p=1.5)}, "p must"),
        ("autonomous", {"resonant": dict(_RESONANT, q="2")}, "q must"),
        ("sweep", dict(_SWEEP, qmax=True), "qmax"),
        ("sweep", dict(_SWEEP, qmax=20.5), "qmax"),
        ("autonomous", {"resonant": dict(_RESONANT, q=2.5)}, "q must"),
        ("autonomous", {"blocks": _TWO_BLOCKS, "s": 1.5}, "s must"),
        ("discrete", dict(_IDENTITY, horizon=10.7), "horizon must"),
        ("discrete", dict(_IDENTITY, s=1.5), "s must"),
        ("continuous", dict(_MODEL2D, s="1"), "s must"),
        ("discrete", dict(_IDENTITY, search={"candidates": 3.5}), "candidates must"),
        ("discrete", dict(_IDENTITY, search={"refine_rounds": True}), "refine_rounds must"),
        ("continuous", dict(_MODEL2D, search={"candidates": 12.25}), "candidates must"),
        ("oracle", {"kind": "maxmin", "v": "v.csv", "w": "w.csv", "samples": 1000.5}, "samples must"),
        ("oracle", dict(_BIRKHOFF, horizon=250.5), "horizon must"),
    ],
)
def test_non_integral_sizes_are_exit_2(tmp_path, capsys, command, cfg, message):
    path = write_config(tmp_path, "q.json", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "must be an integer" in captured.err
    assert "value =" not in captured.out


@pytest.mark.parametrize(
    "command,cfg,message",
    [
        ("sweep", dict(_SWEEP, qmax=10**6), "qmax must lie"),
        ("autonomous", {"resonant": dict(_RESONANT, p=1, q=1457)}, "exceeds"),
    ],
)
def test_oversized_resonance_is_exit_2(tmp_path, capsys, command, cfg, message):
    path = write_config(tmp_path, "q.json", cfg)
    assert main([command, "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg,code,message",
    [
        ({"kind": "maxmin", "v": "v.csv", "w": "w.csv", "samples": 1e12}, 2, "samples must be in"),
        ({"kind": "maxmin", "v": "v.csv", "w": "w.csv", "samples": 0}, 2, "samples must be in"),
        (dict(_BIRKHOFF, horizon=10**9), 4, "exceeds the cost cap"),
        (dict(_BIRKHOFF, time="continuous", system=_MODEL2D["system"], horizon=1e6, step=1e-3), 4,
         "exceeds the cost cap"),
        (dict(_BIRKHOFF, time="continuous", system=_MODEL2D["system"], horizon=1e300, step=1e-300), 4,
         "exceeds the cost cap"),
        (dict(_BIRKHOFF, time="continuous", system=_MODEL2D["system"], horizon=1.0, step=0.0), 2,
         "step must be positive"),
        (dict(_BIRKHOFF, horizon=0), 2, "at least one step"),
    ],
)
def test_oracle_sizes_are_refused_before_work(tmp_path, capsys, monkeypatch, cfg, code, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr("angval.cli.maxmin_angle", refuse)
    monkeypatch.setattr("angval.cli.birkhoff_average", refuse)
    path = write_config(tmp_path, "o.json", cfg)
    assert main(["oracle", "--config", path]) == code
    captured = capsys.readouterr()
    assert message in captured.err and "value =" not in captured.out


def test_readme_names_the_common_flags():
    # the README sentence "Common flags on every subcommand: ..." names exactly
    # the options that every subcommand's parser shares
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Common flags on every subcommand: (.*?)\.\s", readme, re.S).group(1)
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shared = set.intersection(
        *({flag for action in sp._actions for flag in action.option_strings} for sp in subcommands.choices.values())
    )
    assert sorted(re.findall(r"`(--[\w-]+)", sentence)) == sorted(shared - {"-h", "--help"})


def _key_tables():
    # every key table of the CLI, by the README phrase that names its object
    estimate = {"system", *_ESTIMATE_KEYS}
    tables = {
        "`discrete`": estimate | set(_TIME_CLASSES["discrete"][2]),
        "`continuous`": estimate | set(_TIME_CLASSES["continuous"][2]),
        "`search`": set(_SEARCH_KEYS),
        "`autonomous`": {"resonant", *_AUTONOMOUS_KEYS},
        "A block": set(_BLOCK_KEYS),
        "`resonant`": set(_RESONANT_KEYS),
        "`sweep`": set(_SWEEP_KEYS),
    }
    for kinds in (_DISCRETE_KINDS, _CONTINUOUS_KINDS):
        for kind, (keys, _) in kinds.items():
            assert tables.setdefault("`%s`" % kind, {"kind", *keys}) == {"kind", *keys}
    for kind, keys in _ORACLE_KINDS.items():
        tables["`%s`" % kind] = {"kind", *keys}
    tables["`birkhoff`"] |= {"system"}.union(*(timed for _, _, timed in _TIME_CLASSES.values()))
    return tables


def test_readme_names_every_config_key():
    # each README sentence "<object> accepts ..." lists exactly the keys of the
    # table through which the CLI reads that object
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    for phrase, keys in _key_tables().items():
        sentence = re.search(re.escape(phrase) + r" accepts (.*?)\.\s", readme).group(1)
        assert sorted(set(re.findall(r"`(\w+)`", sentence))) == sorted(keys), phrase


def test_readme_states_the_resonant_grid():
    # the numbers the README gives for the resonant rule are T_POINTS, MAX_ORDER and MIN_RHO
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    domain = re.search(r"`n = ceil\((\d+)/\(4p\)\)` \((\d+) points at `p = 1`, (\d+) at `p = 13`\)", readme)
    assert [int(x) for x in domain.groups()] == [T_POINTS, -(-T_POINTS // 4) + 1, -(-T_POINTS // 52) + 1]
    assert re.search(r"the `2 pi/(\d+)` of a full-period grid", readme).group(1) == str(T_POINTS)
    assert re.search(r"the exact line at the (\d+) equally spaced `t`", readme).group(1) == str(T_POINTS)
    order = re.search(r"`max\(p, q\)` above (\d+), so that the (\d+) lines of .*? within 2\^(\d+) cells", readme)
    assert [int(x) for x in order.groups()] == [MAX_ORDER, T_POINTS, 20] and MAX_ORDER == 2**20 // T_POINTS
    assert float(re.search(r"`MIN_RHO = ([\d.]+)`", readme).group(1)) == MIN_RHO


@pytest.mark.parametrize(
    "key,value",
    [("refine_scale", 0.3), ("refine_scale", -1), ("tail_fraction", 0.5), ("tail_fraction", 2.0),
     ("sample_count", 48), ("sample_count", 1e9)],
)
def test_removed_search_keys_are_exit_2(tmp_path, capsys, key, value):
    # the search schedule is fixed, so a former setting is refused at any value
    path = write_config(tmp_path, "s.json", dict(_IDENTITY, search={key: value}))
    assert main(["discrete", "--config", path]) == 2
    captured = capsys.readouterr()
    assert "unknown search settings: %s" % key in captured.err and "value =" not in captured.out


@pytest.mark.parametrize("key", ["panels_3d", "qmc_power", "seed", "panels", "tau_panels", "t_points"])
def test_removed_quad_keys_are_exit_2(tmp_path, capsys, key):
    path = write_config(tmp_path, "q.json", {"blocks": _TWO_BLOCKS, "s": 2, "quad": {key: 8}})
    assert main(["autonomous", "--config", path]) == 2
    assert "unknown autonomous settings: quad" in capsys.readouterr().err


def test_four_block_autonomous_skips_scipy_stats(tmp_path):
    # the torus rule for |J| >= 4 needs numpy only; importing scipy.stats
    # would cost a fresh process about half a second
    blocks = [
        {"beta": -0.5 * i, "omega": w, "rho": r}
        for i, (w, r) in enumerate([(1.0, 0.4), (1.3, 0.6), (0.8, 0.5), (1.1, 0.9)])
    ]
    path = write_config(tmp_path, "a.json", {"blocks": blocks, "s": 4, "override_gate": True})
    code = (
        "import sys\n"
        "from angval.cli import main\n"
        "rc = main(['autonomous', '--config', %r])\n"
        "print('scipy.stats loaded:', 'scipy.stats' in sys.modules)\n"
        "sys.exit(rc)\n" % path
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "1+2+3+4," in proc.stdout
    assert proc.stdout.strip().endswith("scipy.stats loaded: False")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "angval.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("angval ")


_PLANAR = {"system": {"kind": "planar_rotation", "rho": 0.5, "phi": 0.3}, "horizon": 10}


@pytest.mark.parametrize(
    "command,cfg,message",
    [
        # the three configs that once exited 2 with bare exception text
        ("discrete", {"system": _PLANAR["system"]}, "missing discrete settings: horizon"),
        ("sweep", {"rho1": 0.5}, "missing sweep settings: omega1"),
        ("autonomous", {"blocks": [{"beta": 0, "omega": 1}], "s": 1}, "missing block settings: rho"),
        ("continuous", {"system": _MODEL2D["system"], "horizon": 10.0}, "missing continuous settings: step"),
        ("continuous", {"horizon": 10.0, "step": 0.1}, "missing continuous settings: system"),
        ("discrete", dict(_PLANAR, system={"kind": "planar_rotation", "rho": 0.5}), "missing system settings: phi"),
        ("discrete", dict(_IDENTITY, system={}), "missing system settings: matrix"),
        ("autonomous", {"blocks": [{}], "s": 1}, "missing block settings: beta"),
        ("autonomous", {"blocks": [{"omega": 1}], "s": 1}, "missing block settings: beta, rho"),
        ("autonomous", {"blocks": _TWO_BLOCKS}, "missing autonomous settings: s"),
        ("autonomous", {"resonant": {"omega1": 1.0, "rho1": 0.5, "rho2": 0.25}}, "missing resonant settings: p, q"),
        ("oracle", {"kind": "birkhoff", "system": _PLANAR["system"], "horizon": 250}, "missing birkhoff oracle settings: v0"),
        ("oracle", {"kind": "fd_derivative", "w": "w.csv", "wdot": "w.csv"}, "missing fd_derivative oracle settings: h"),
    ],
)
def test_missing_config_key_is_named(tmp_path, capsys, command, cfg, message):
    # a key the command needs is refused by the name of its object, as an
    # unknown key is, before anything runs
    assert main([command, "--config", write_config(tmp_path, "m.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message and captured.out == ""


@pytest.mark.parametrize(
    "command,cfg,message",
    [
        ("continuous", dict(_MODEL2D, step=0), "positive horizon and step"),
        ("continuous", dict(_MODEL2D, horizon=-5), "positive horizon and step"),
        ("continuous", dict(_MODEL2D, search={"sample_times": [0.0]}), "sample times must lie"),
        ("discrete", dict(_IDENTITY, s=0), "s must lie in 1..2"),
        ("discrete", dict(_IDENTITY, s=3), "s must lie in 1..2"),
        ("continuous", dict(_MODEL2D, s=0), "s must lie in 1..2"),
        ("discrete", dict(_IDENTITY, search={"sample_count": 0}), "unknown search settings: sample_count"),
        ("continuous", dict(_MODEL2D, search={"sample_count": 0}), "unknown search settings: sample_count"),
        ("discrete", dict(_IDENTITY, search={"sample_times": []}), "sample_times must not be empty"),
        ("continuous", dict(_MODEL2D, search={"sample_times": []}), "sample_times must not be empty"),
        ("discrete", dict(_IDENTITY, search={"tail_fraction": 2.0}), "unknown search settings: tail_fraction"),
        ("discrete", dict(_IDENTITY, system={"kind": "cycle", "matrices": []}), "at least one matrix"),
        ("discrete", dict(_PLANAR, system=dict(_PLANAR["system"], rho=0)), "rho must be"),
        ("oracle", {"kind": "fd_derivative", "w": "w.csv", "wdot": "w.csv", "h": 0}, "h must be nonzero"),
        ("oracle", {"kind": "fd_derivative", "w": "w.csv", "wdot": "w.csv", "h": "1e-6"}, "h must be a finite number"),
        # open() would take an integer for a file descriptor (stdin, stdout, stderr here) and close it
        ("oracle", {"kind": "maxmin", "v": 2, "w": "w.csv", "samples": 100}, "matrix path must be a string"),
        ("oracle", {"kind": "maxmin", "v": 0, "w": "w.csv", "samples": 100}, "matrix path must be a string"),
        ("oracle", {"kind": "fd_derivative", "w": 1, "wdot": "w.csv", "h": 1e-6}, "matrix path must be a string"),
    ],
)
def test_degenerate_estimator_inputs_are_exit_2(tmp_path, capsys, monkeypatch, command, cfg, message):
    monkeypatch.chdir(tmp_path)
    save_matrix(tmp_path / "w.csv", np.eye(3, 1))
    path = write_config(tmp_path, "bad.json", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "value =" not in captured.out


_CYCLE = {"system": {"kind": "cycle", "matrices": [np.eye(2).tolist(), np.eye(3).tolist()]}, "horizon": 10}


@pytest.mark.parametrize(
    "command,cfg,code,message",
    [
        ("discrete", dict(_PLANAR, horizon=20, search={"sample_times": [10.7, 20]}), 2, "sample times must be integers in"),
        ("discrete", dict(_PLANAR, horizon=-3), 2, "horizon must be a positive integer"),
        ("discrete", dict(_PLANAR, horizon=0), 2, "horizon must be a positive integer"),
        ("discrete", dict(_PLANAR, search={"candidates": 0}), 2, "candidates must be at least 1"),
        ("discrete", dict(_PLANAR, search={"candidates": -2}), 2, "candidates must be at least 1"),
        ("discrete", dict(_PLANAR, search={"refine_rounds": -1}), 2, "refine_rounds must be at least 0"),
        ("discrete", dict(_PLANAR, search={"refine_scale": -1}), 2, "unknown search settings: refine_scale"),
        ("discrete", dict(_IDENTITY, system={"kind": "constant", "matrix": 3}), 2, "expected a square matrix"),
        ("discrete", dict(_IDENTITY, system=[1, 2]), 2, "system must be a JSON object"),
        ("discrete", _CYCLE, 2, "all of one shape"),
        ("continuous", dict(_MODEL2D, system=dict(_MODEL2D["system"], rho=0)), 2, "rho must be"),
        ("continuous", dict(_MODEL2D, system={"kind": "constant", "matrix": [[1.0, 2.0]]}), 2, "expected a square"),
        ("continuous", dict(_MODEL2D, system=[1, 2]), 2, "system must be a JSON object"),
        ("oracle", dict(_BIRKHOFF, v0=[[0.0], [0.0]]), 3, "rank deficient"),
        ("oracle", dict(_BIRKHOFF, v0=[[1.0, 2.0], [2.0, 4.0]]), 3, "rank deficient"),
        # refused before the sample-time indices overflow their integer cast
        ("continuous", dict(_MODEL2D, step=1e-300), 4, "x 1e+301 steps > cost cap"),
        ("discrete", dict(_IDENTITY, system={"kind": "cycle", "matrices": [np.eye(2).tolist()]},
                          search={"refine_scale": 1e308}), 2, "unknown search settings: refine_scale"),
        # refused before the step count overflows its integer cast
        ("continuous", dict(_MODEL2D, horizon=1e300, step=1e-300), 4, "is not a finite number of steps"),
        # refused before the discrete horizon or sample times overflow their integer casts
        ("discrete", dict(_PLANAR, horizon=1e19), 4, "x 1e+19 steps > cost cap"),
        ("discrete", dict(_PLANAR, horizon=1e300), 4, "x 1e+300 steps > cost cap"),
        ("discrete", dict(_PLANAR, horizon=1e19, search={"sample_times": [1e19]}), 4, "x 1e+19 steps > cost cap"),
        # config numbers are JSON numbers: float() would also take true and "0.3"
        ("discrete", dict(_PLANAR, system=dict(_PLANAR["system"], rho=True)), 2, "rho must be a finite number"),
        ("discrete", dict(_PLANAR, system=dict(_PLANAR["system"], phi="0.3")), 2, "phi must be a finite number"),
        ("continuous", dict(_MODEL2D, step="0.1"), 2, "step must be a finite number"),
        ("discrete", dict(_PLANAR, search={"tail_fraction": True}), 2, "unknown search settings: tail_fraction"),
        ("discrete", dict(_PLANAR, search={"sample_times": ["10"]}), 2, "sample_times must be a finite number"),
        ("autonomous", {"blocks": [dict(_TWO_BLOCKS[0], rho="0.5")], "s": 1}, 2, "rho must be a finite number"),
        ("autonomous", {"resonant": dict(_RESONANT, omega1=True)}, 2, "omega1 must be a finite number"),
        ("sweep", dict(_SWEEP, rho1="0.5"), 2, "rho1 must be a finite number"),
        ("discrete", dict(_PLANAR, search=[]), 2, "search must be a JSON object"),
        ("discrete", dict(_PLANAR, horizon=10**400), 2, "is not a finite number"),
        # sweep grids are read by the same number reader: float() would take "0.7" and true
        ("sweep", dict(_SWEEP, kappa_grid=["0.7"], rho2_grid=[True]), 2, "kappa_grid must be a finite number"),
        ("sweep", dict(_SWEEP, rho2_grid=[0.5, None]), 2, "rho2_grid must be a finite number"),
        # the sample grid has a fixed size: a count of 1e9 asked np.geomspace for 7.45 GiB
        ("discrete", dict(_PLANAR, horizon=100, search={"sample_count": 1e9}), 2, "unknown search settings: sample_count"),
        # a cost cap this large would pass a horizon whose sample times overflow their integer cast
        ("discrete", dict(_PLANAR, horizon=1e19, search={"cost_cap": 1e300}), 2, "cost_cap must be at most"),
        # (rho1 rho2)^2 underflowed to a division by zero (exit 1); at 1e-12 the
        # torus value fell below max omega_j
        ("sweep", dict(_SWEEP, rho1=1e-300), 2, "below the floor"),
        ("sweep", dict(_SWEEP, kappa_grid=[0.5], rho2_grid=[1e-160]), 2, "below the floor"),
        ("autonomous", {"resonant": dict(_RESONANT, rho1=1e-300)}, 2, "below the floor"),
        ("autonomous", {"blocks": [_TWO_BLOCKS[0], dict(_TWO_BLOCKS[1], rho=1e-12)], "s": 2}, 2, "below the floor"),
        # both rules overflowed to a nan value, with exit 0
        ("sweep", dict(_SWEEP, omega1=1e308, kappa_grid=[0.5, 0.7]), 2, "exceeds the bound"),
        ("autonomous", {"resonant": dict(_RESONANT, omega1=1e308)}, 2, "exceeds the bound"),
        ("autonomous", {"blocks": [dict(_TWO_BLOCKS[0], omega=1e308), _TWO_BLOCKS[1]], "s": 2},
         2, "exceeds the bound"),
        # a count of 1e308 made the budget's product overflow: a traceback (exit 1) or a
        # warning; then it printed all 309 digits of the count, which now reads 1e+308
        ("discrete", dict(_PLANAR, search={"refine_rounds": 1e308, "sample_times": [10]}), 4,
         "evaluations x 10 steps > cost cap"),
        ("discrete", dict(_PLANAR, search={"candidates": 1e308, "sample_times": [10]}), 4,
         "evaluations x 10 steps > cost cap"),
        # the speed bounds come before the rational-independence gate, which read
        # omega[2]/omega[1] ~ 1/1000... (309 digits) and exited 3
        ("autonomous", {"blocks": [{"beta": 0.0, "omega": 1e308, "rho": 0.5}, {"beta": -1.0, "omega": 1.0, "rho": 0.5}],
                        "s": 2}, 2, "exceeds the bound"),
        # the oracle carried a collapsed basis (np.linalg.qr of a zero column is e1) and
        # printed 0.0 with exit 0, or reached main as "SVD did not converge" with exit 2
        ("oracle", dict(_BIRKHOFF, system={"kind": "constant", "matrix": [[0.0, 0.0], [0.0, 0.0]]}, horizon=3), 3,
         "step 0 collapses the propagated subspace"),
        ("oracle", dict(_BIRKHOFF, system={"kind": "cycle", "matrices": [np.eye(2).tolist(), [[0.0, 0.0], [0.0, 1.0]]]},
                        horizon=3), 3, "step 1 collapses the propagated subspace"),
        ("oracle", dict(_BIRKHOFF, time="continuous", system=dict(_MODEL2D["system"], omega=1e308), horizon=1.0,
                        step=0.5), 3, "step 0 carries the basis to non-finite entries"),
    ],
)
def test_malformed_systems_and_search_inputs_are_refused(tmp_path, capsys, command, cfg, code, message):
    path = write_config(tmp_path, "bad.json", cfg)
    assert main([command, "--config", path]) == code
    captured = capsys.readouterr()
    assert message in captured.err and "value =" not in captured.out
    if code == 4:  # counts print in %g form (1e+308 or inf), not as the 309 digits of an integer
        assert not re.search(r"\d{20}", captured.err), captured.err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_removed_tol_flag_is_exit_2(tmp_path, capsys, tol):
    # the rank tolerance is the constant linalg.RANK_TOL; a negative or nan
    # --tol once passed a rank-1 V as a plane, and inf refused every V
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_matrix(a, np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
    save_matrix(b, np.eye(3, 2))
    with pytest.raises(SystemExit) as exc:
        main(["angles", str(a), str(b), "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --tol" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "command,cfg,key",
    [
        # a misspelled omega made the block a 1x1 real one: value = 0.0 in one dimension less
        ("autonomous", {"blocks": [{"beta": 0, "omeg": 1, "rho": 0.5}], "s": 1}, "omeg"),
        # bool("false") turned the gate off, so omega = 1 and 2 gave a value where they exit 3
        ("autonomous", {"blocks": [{"beta": 0.0, "omega": 1.0, "rho": 0.5}, {"beta": -1.0, "omega": 2.0, "rho": 0.5}],
                        "s": 2, "override_gate": "false"}, "override_gate"),
        ("discrete", dict(_IDENTITY, system={"kind": "constant", "matrix": [["0.5", True], [False, "2"]]}), "matrix"),
        ("oracle", dict(_BIRKHOFF, v0=[["1"], [True]]), "v0"),
        ("sweep", dict(_SWEEP, qmx=5), "qmx"),
        ("discrete", dict(_PLANAR, horizn=10**9), "horizn"),
        # the misspelled search fell back to the default one, and exited 0 where this one exits 4
        ("continuous", dict(_MODEL2D, serach={"candidates": 1e308}), "serach"),
        # the resonant rule ran and the rest was ignored
        ("autonomous", {"resonant": _RESONANT, "blocks": "anything", "s": "x"}, "blocks"),
    ],
)
def test_misread_config_keys_are_exit_2(tmp_path, capsys, command, cfg, key):
    # each of these once ran, with exit 0, as another experiment than the one asked for
    path = write_config(tmp_path, "bad.json", cfg)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and key in captured.err


# Small valid configs whose every key and list entry, at every nesting level, the property
# below replaces; together they hold the documented keys of discrete,
# continuous, autonomous, sweep and oracle.
_FUZZ_SEARCH = {"candidates": 1, "refine_rounds": 0, "sample_times": [4, 8], "cost_cap": 1e6}
_FUZZ_SWEEP = dict(_SWEEP, kappa_grid=[0.5, 0.7], qmax=20)
_FUZZ_BASES = [
    ("discrete", dict(_PLANAR, s=1, variant="sup-limsup", horizon=8, search=_FUZZ_SEARCH)),
    ("discrete", {"system": {"kind": "constant", "matrix": [[0.0, 1.0], [1.0, 0.0]]}, "horizon": 8}),
    ("discrete", {"system": {"kind": "cycle", "matrices": [[[2.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 1.0]]]},
                  "horizon": 8}),
    ("continuous", dict(_MODEL2D, s=1, variant="sup-liminf", horizon=1.0,
                        search=dict(_FUZZ_SEARCH, sample_times=[0.5, 1.0]))),
    ("continuous", {"system": {"kind": "constant", "matrix": [[0.0, -1.0], [1.0, 0.0]]}, "horizon": 1.0, "step": 0.1}),
    ("oracle", {"kind": "maxmin", "v": "v.csv", "w": "w.csv", "samples": 100}),
    ("oracle", dict(_BIRKHOFF, time="discrete", v0="v.csv", horizon=8)),
    ("oracle", dict(_BIRKHOFF, time="continuous", system=_MODEL2D["system"], horizon=1.0, step=0.1)),
    ("oracle", {"kind": "fd_derivative", "w": "v.csv", "wdot": "w.csv", "h": 1e-6}),
    ("autonomous", {"blocks": _TWO_BLOCKS, "s": 2, "override_gate": True}),
    ("autonomous", {"resonant": _RESONANT}),
    ("sweep", _FUZZ_SWEEP),
]
_FUZZ_POOL = [0, -1, 1e300, 1e308, 1e-300, True, "1", [], {}, None, 1, 2]


def _key_paths(cfg, prefix=()):
    # every key of a dict and every entry of a list, at every nesting level
    for key, value in cfg.items() if isinstance(cfg, dict) else enumerate(cfg):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


_FUZZ_CASES = [(command, base, path) for command, base in _FUZZ_BASES for path in _key_paths(base)]


@settings(max_examples=600, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(_FUZZ_CASES),
    st.sampled_from(_FUZZ_POOL),
    st.none() | st.tuples(st.integers(0, 63), st.sampled_from(_FUZZ_POOL)),
)
@example(("oracle", _FUZZ_BASES[5][1], ("v",)), 2, None)  # maxmin
@example(("oracle", _FUZZ_BASES[5][1], ("v",)), 0, None)
@example(("oracle", _FUZZ_BASES[8][1], ("w",)), 1, None)  # fd_derivative
@example(("sweep", _FUZZ_SWEEP, ("rho1",)), 1e-300, None)  # a division by zero
@example(("sweep", _FUZZ_SWEEP, ("omega1",)), 1e308, None)  # nan values
@example(("autonomous", _FUZZ_BASES[10][1], ("resonant", "omega1")), 1e308, None)
@example(("autonomous", _FUZZ_BASES[10][1], ("resonant", "rho2")), 1e-300, None)
def test_every_config_value_maps_to_an_exit_code(tmp_path, monkeypatch, capsys, case, value, second):
    # one documented key replaced by a value of the wrong type, sign or size,
    # and with `second` a second key of the same base too (its index counts
    # modulo the base's keys): main reports it by an exit code, raises
    # nothing, warns nothing, leaves stdout and stderr open, and prints no
    # nan or inf when it exits 0
    capsys.readouterr()
    command, base, path = case
    cfg = json.loads(json.dumps(base))
    replaced = [(path, value)]
    if second is not None:
        paths = list(_key_paths(base))
        other = paths[second[0] % len(paths)]
        # a key that holds the first one, or lies inside it, is not a second key
        if other[: len(path)] != path and path[: len(other)] != other:
            replaced.append((other, second[1]))
    for path, value in replaced:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    monkeypatch.chdir(tmp_path)
    save_matrix(tmp_path / "v.csv", np.array([[1.0], [0.0]]))
    save_matrix(tmp_path / "w.csv", np.array([[math.cos(0.3)], [math.sin(0.3)]]))
    code = main([command, "--config", write_config(tmp_path, "fuzz.json", cfg)])
    assert code in (0, 2, 3, 4)
    os.fstat(1)
    os.fstat(2)
    out = capsys.readouterr().out
    for token in re.split(r"[,\s=]+", out) if code == 0 else ():
        try:
            x = float(token)
        except ValueError:
            continue  # a header, tag or label
        assert math.isfinite(x), out


_RENAMED_KEYS = [
    pytest.param(command, base, path, id="%s%d-%s" % (command, k, ".".join(map(str, path))))
    for k, (command, base) in enumerate(_FUZZ_BASES)
    for path in _key_paths(base)
    if isinstance(path[-1], str)  # a dict key, not a list entry
]


@pytest.mark.parametrize("command,base,path", _RENAMED_KEYS)
def test_every_misspelled_config_key_is_exit_2(tmp_path, monkeypatch, capsys, command, base, path):
    # a key of any object, at any depth, with a trailing "_" is a key no table
    # holds: refused before anything runs, whatever the object
    cfg = json.loads(json.dumps(base))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1] + "_"] = parent.pop(path[-1])
    monkeypatch.chdir(tmp_path)
    save_matrix(tmp_path / "v.csv", np.array([[1.0], [0.0]]))
    save_matrix(tmp_path / "w.csv", np.array([[math.cos(0.3)], [math.sin(0.3)]]))
    assert main([command, "--config", write_config(tmp_path, "typo.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# A line pair and a plane pair whose every entry, in either file, the property
# below replaces; `derivative` reads the pair as W and Wdot.
_FUZZ_MATRICES = [
    (np.array(_LINE), np.array([[math.cos(0.3)], [math.sin(0.3)]])),
    (np.eye(3, 2), np.array([[1.0, 0.5], [0.2, 1.0], [0.3, -0.4]])),
]
_FUZZ_ENTRIES = [
    (command, pair, k, index)
    for command in ("angles", "metrics", "derivative")
    for pair, mats in enumerate(_FUZZ_MATRICES)
    for k in (0, 1)
    for index in np.ndindex(mats[k].shape)
]
_FUZZ_ENTRY_POOL = [0.0, 1e308, -1e308, 1e-200, 5e-324, math.nan]


@settings(max_examples=300, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_FUZZ_ENTRIES), st.sampled_from(_FUZZ_ENTRY_POOL))
def test_every_matrix_entry_maps_to_an_exit_code(tmp_path, capsys, case, value):
    # one entry of a matrix file replaced by zero, a huge, tiny, subnormal
    # or nan value: main reports it by an exit code, raises nothing, warns
    # nothing, and prints no nan or inf when it exits 0
    capsys.readouterr()
    command, pair, k, index = case
    mats = [m.copy() for m in _FUZZ_MATRICES[pair]]
    mats[k][index] = value
    paths = [str(tmp_path / name) for name in ("v.csv", "w.csv")]
    for path, m in zip(paths, mats):
        save_matrix(path, m)
    code = main([command, *paths])
    assert code in (0, 2, 3, 4)
    out = capsys.readouterr().out
    for token in re.split(r"[,\s=]+", out) if code == 0 else ():
        try:
            x = float(token)
        except ValueError:
            continue  # a header or label
        assert math.isfinite(x), out
