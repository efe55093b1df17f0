import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spinldp import cli
from spinldp.cli import main
from spinldp.magnetization import mag_exact_log_prob
from spinldp.verification import DEFAULTS

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run(args):
    return main(args)


def test_pw_rate_outputs_and_reruns_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 2.0, "d": 1.0, "t": 1.0, "a": 1.0,
                               "N_list": [50, 100, 200, 500]}))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["pw-rate", str(cfg), "--out-dir", str(out1)]) == 0
    assert run(["pw-rate", str(cfg), "--out-dir", str(out2)]) == 0
    b1 = (out1 / "pw_rate.csv").read_bytes()
    b2 = (out2 / "pw_rate.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().split("\n")[0]
    assert header == "N,t,a,empirical_rate,analytic_rate,gap"


def test_mag_bvp_reports_extremal_coefficients(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m0": 0.5, "mT": 0.0, "T": 1.0, "steps": 2000}))
    out = tmp_path / "out"
    assert run(["mag-bvp", str(cfg), "--out-dir", str(out)]) == 0
    report = json.loads((out / "mag_bvp.json").read_text())
    assert abs(report["C1"] + 0.00933) <= 2e-5
    assert report["el_residual"] <= 1e-4
    lines = (out / "mag_bvp.csv").read_text().strip().split("\n")
    assert lines[0] == "t,value"
    assert len(lines) == 2002


def test_fd_lagrangian_three_routes(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["fd-lagrangian", os.path.join(CONFIGS, "fd_lagrangian.json"),
                "--out-dir", str(out)]) == 0
    report = json.loads((out / "fd_lagrangian.json").read_text())
    assert abs(report["variational"] - 0.1339746) <= 1e-6
    assert abs(report["dual"]["value"] - 0.1339746) <= 1e-6
    assert abs(report["mass_constrained_closed_form"] - 0.1438410) <= 1e-6


def test_malformed_json_exits_2_without_outputs(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{ not json")
    out = tmp_path / "nope"
    assert run(["pw-rate", str(cfg), "--out-dir", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 2.0, "d": 1.0, "t": 1.0}))  # no a, no N_list
    assert run(["pw-rate", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "a: required field" in capsys.readouterr().err


def test_invalid_range_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": -2.0, "d": 1.0, "t": 1.0, "a": 0.0, "N_list": [10]}))
    assert run(["pw-rate", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_missing_seed_on_stochastic_command_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "rate_function": {"kind": "bernoulli", "params": [0.5]},
        "T_grid": [0.5], "mT_grid": [0.0],
    }))
    assert run(["scan-bad", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_out_of_range_endpoint_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m0": 1.1, "mT": 0.0, "T": 1.0}))
    assert run(["mag-bvp", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_runtime_error_exits_1_with_error_name(tmp_path, capsys, monkeypatch):
    from spinldp import cli
    from spinldp.errors import NoFeasiblePath

    def boom(cfg, out_dir, workers):
        raise NoFeasiblePath("forced")

    monkeypatch.setitem(cli.COMMANDS, "pw-rate", boom)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({}))
    assert run(["pw-rate", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert "NoFeasiblePath" in capsys.readouterr().err


def test_scan_bad_cli_and_worker_invariance(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "rate_function": {"kind": "bernoulli", "params": [0.5]},
        "T_grid": [0.2, 1.0],
        "mT_grid": [-0.3, 0.3],
        "solver": {"dt_target": 0.02, "min_steps": 60, "max_iter": 400},
    }))
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run(["scan-bad", str(cfg), "--out-dir", str(out1)]) == 0
    assert run(["scan-bad", str(cfg), "--out-dir", str(out2), "--workers", "2"]) == 0
    assert (out1 / "scan_bad.csv").read_bytes() == (out2 / "scan_bad.csv").read_bytes()
    assert "0 bad cells of 4" in capsys.readouterr().out


def test_lattice_sim_cli(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 3, "dim": 1, "side": 51,
        "rates": {"kind": "constant", "dim": 1, "value": 1.0, "radius": 0},
        "times": [0.2, 0.6], "replicas": 6,
        "observables": [[[0]], [[0], [1]]],
    }))
    out = tmp_path / "out"
    assert run(["lattice-sim", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "lattice_moments.csv").read_text().strip().split("\n")
    assert lines[0] == "t,observable,mean,se,replicas"
    assert len(lines) == 5  # 2 times x 2 observables
    snap = (out / "lattice_final.txt").read_text().strip()
    assert set(snap) <= {"+", "-"}
    assert len(snap) == 51


def test_lattice_sim_even_side_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 3, "dim": 1, "side": 4,
        "rates": {"kind": "constant", "dim": 1, "value": 1.0, "radius": 0},
        "times": [0.2], "replicas": 2, "observables": [[[0]]],
    }))
    assert run(["lattice-sim", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "side:" in capsys.readouterr().err


@pytest.mark.parametrize("sides", [[4], [11, 20], [1], [11], [11, 11]])
def test_verify_bad_c6_sides_exit_2(tmp_path, capsys, sides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "criteria": [5, 6], "c5_instances": 2, "c6_sides": sides}))
    assert run(["verify", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "c6_sides:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verify_summary.csv").exists()


@pytest.mark.parametrize("table", [
    {"+++": 1.0},  # 7 of 8 window patterns missing
    {p: 1.0 for p in ("---", "--+", "-+-", "-++", "+--", "+-+", "++-", "++")},  # wrong length
    {p: 1.0 for p in ("---", "--+", "-+-", "-++", "+--", "+-+", "++-", "+x+")},  # bad character
    {p: 1.0 for p in ("---", "--+", "-+-", "-++", "+--", "+-+", "++-", "+++", "++++")},  # unknown
    {p: (0.0 if p == "+-+" else 1.0) for p in ("---", "--+", "-+-", "-++", "+--", "+-+", "++-", "+++")},
])
def test_lattice_sim_bad_rate_table_exits_2(tmp_path, capsys, table):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 3, "dim": 1, "side": 21,
        "rates": {"kind": "table", "dim": 1, "radius": 1, "rates": table},
        "times": [0.2], "replicas": 2, "observables": [[[0]]],
    }))
    assert run(["lattice-sim", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "rates:" in capsys.readouterr().err


def test_unconverged_series_exits_1_with_error_name(tmp_path, capsys, monkeypatch):
    from spinldp import poisson_walk

    monkeypatch.setattr(poisson_walk, "_MAX_TERMS", 3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 2.0, "d": 1.0, "t": 1.0, "a": 1.0, "N_list": [50]}))
    assert run(["pw-rate", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert "error SeriesNotConverged:" in capsys.readouterr().err


def test_unconverged_newton_reported_per_route(tmp_path, capsys, monkeypatch):
    from spinldp import finite_jump

    monkeypatch.setattr(finite_jump, "_MAX_NEWTON_ITER", 1)
    out = tmp_path / "out"
    assert run(["fd-lagrangian", os.path.join(CONFIGS, "fd_lagrangian.json"),
                "--out-dir", str(out)]) == 0
    report = json.loads((out / "fd_lagrangian.json").read_text())
    assert report["variational"] == {"error": "SolverNotConverged"}
    assert report["dual"] == {"error": "SolverNotConverged"}
    assert abs(report["mass_constrained_closed_form"] - 0.1438410) <= 1e-6


def test_lattice_sim_negative_time_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 3, "dim": 1, "side": 21,
        "rates": {"kind": "constant", "dim": 1, "value": 1.0, "radius": 0},
        "times": [-0.5, 1.0], "replicas": 2, "observables": [[[0]]],
    }))
    assert run(["lattice-sim", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "times:" in capsys.readouterr().err


def test_verify_subset_cli(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 20260808, "criteria": [2, 3, 6, 8]}))
    out = tmp_path / "out"
    assert run(["verify", str(cfg), "--out-dir", str(out)]) == 0
    text = (out / "verify_summary.csv").read_text()
    assert text.count("\n") == 5  # header + 4 criteria
    assert ",1," in text  # all passed
    console = capsys.readouterr().out
    assert console.count("PASS") == 4


def test_verify_rejects_unknown_criteria(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for criteria in ([2, 99], ["x"], 3, [2, 2]):
        cfg.write_text(json.dumps({"seed": 1, "criteria": criteria}))
        assert run(["verify", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        assert "criteria:" in capsys.readouterr().err


SCAN = {"seed": 1, "rate_function": {"kind": "bernoulli", "params": [0.5]},
        "T_grid": [0.5], "mT_grid": [0.0]}
LATTICE = {"seed": 3, "dim": 1, "side": 21, "times": [0.5], "replicas": 2,
           "rates": {"kind": "constant", "dim": 1, "value": 1.0}, "observables": [[[0]]]}


@pytest.mark.parametrize("command, cfg, field", [
    ("mag-rate", {"seed": 7, "m0": 0.5, "T": 0.5, "mT": 0.0, "steps": "many",
                  "N_list": [200]}, "steps:"),
    ("mag-rate", {"seed": 7, "m0": 0.5, "T": 0.5, "mT": 0.0, "N_list": ["a"]}, "N_list:"),
    ("mag-bvp", {"m0": 0.5, "mT": 0.0, "T": 1.0, "steps": "many"}, "steps:"),
    ("pw-rate", {"b": 2.0, "d": 1.0, "t": 1.0, "a": 1.0, "N_list": [50, None]}, "N_list:"),
    ("scan-bad", {**SCAN, "T_grid": ["a"]}, "T_grid:"),
    ("scan-bad", {**SCAN, "solver": []}, "solver:"),
    ("scan-bad", {**SCAN, "solver": {"max_iter": "800"}}, "solver.max_iter:"),
    ("scan-bad", {**SCAN, "solver": {"dt_target": 0.0}}, "solver.dt_target:"),
    ("scan-bad", {**SCAN, "epsilon": "0.1"}, "epsilon:"),
    ("scan-bad", {**SCAN, "delta": None}, "delta:"),
    ("fd-lagrangian", {"D": [[-2.0, 2.0], [2.0, "x"]], "c": [1.0, 1.0], "mu": [0.75, 0.25],
                       "alpha": [0.0, 0.0]}, "D:"),
    ("lattice-sim", {**LATTICE, "observables": [[0]]}, "observables:"),
    ("lattice-sim", {**LATTICE, "rates": {"kind": "constant", "dim": 1, "value": 1.0,
                                          "radius": "one"}}, "rates.radius:"),
    ("lattice-sim", {**LATTICE, "rates": {"kind": "random", "dim": 1, "radius": 1, "seed": 2,
                                          "lo": "low"}}, "rates.lo:"),
    # JSON true is a Python bool, which isinstance counts as the int 1
    ("pw-rate", {"b": True, "d": 1.0, "t": 1.0, "a": 1.0, "N_list": [50]}, "b:"),
    ("mag-rate", {"seed": True, "m0": 0.5, "T": 0.5, "mT": 0.0, "N_list": [200]}, "seed:"),
    ("mag-bvp", {"m0": 0.5, "mT": 0.0, "T": 1.0, "steps": True}, "steps:"),
    # a horizon must be positive and an endpoint a magnetization
    ("scan-bad", {**SCAN, "T_grid": [0.5, 0.0]}, "T_grid:"),
    ("scan-bad", {**SCAN, "T_grid": {"start": -1.0, "stop": 1.0, "num": 3}}, "T_grid:"),
    ("scan-bad", {**SCAN, "mT_grid": [1.5]}, "mT_grid:"),
    ("scan-bad", {**SCAN, "mT_grid": {"start": -1.2, "stop": 0.0, "num": 2}}, "mT_grid:"),
    # a seed must be a valid SeedSequence entropy
    ("scan-bad", {**SCAN, "seed": -1}, "seed:"),
    ("lattice-sim", {**LATTICE, "rates": {"kind": "random", "dim": 1, "radius": 1, "seed": -1}},
     "rates.seed:"),
    # params must have the length the kind takes
    ("scan-bad", {**SCAN, "rate_function": {"kind": "bernoulli", "params": []}}, "params: bernoulli"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "double_well", "params": []}}, "params: double_well"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "double_well", "params": [1.5, 2.0]}},
     "params: double_well"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "tabulated", "params": [[0.0, 1.0]]}},
     "params: tabulated"),
    # params must be numbers, and a table's grid and values of one length
    ("scan-bad", {**SCAN, "rate_function": {"kind": "bernoulli", "params": [{}]}}, "params: bernoulli"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "double_well", "params": [[1.5]]}},
     "params: double_well"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "tabulated", "params": [[{}, {}], [0.0, 1.0]]}},
     "params: tabulated"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "tabulated", "params": [[0.0, 1.0], [0.0]]}},
     "params: tabulated"),
    # JSON loads NaN, Infinity and 1e400 as floats, and NaN passes every lo/hi check
    ("scan-bad", {**SCAN, "solver": {"dt_target": math.nan}}, "solver.dt_target:"),
    ("scan-bad", {**SCAN, "epsilon": math.nan}, "epsilon:"),
    ("pw-rate", {"b": 2.0, "d": 1.0, "t": 1.0, "a": math.inf, "N_list": [50]}, "a:"),
    ("lattice-sim", {**LATTICE, "times": [0.5, math.nan]}, "times:"),
    ("fd-lagrangian", {"D": [[-2.0, 2.0], [2.0, -2.0]], "c": [1.0, 1.0], "mu": [0.75, 0.25],
                       "alpha": [math.nan, 0.0]}, "alpha:"),
    ("lattice-sim", {**LATTICE, "observables": [[[math.inf]]]}, "observables:"),
    ("scan-bad", {**SCAN, "rate_function": {"kind": "tabulated",
                                            "params": [[-1.0, 0.0, 1.0], [1.0, math.nan, 1.0]]}},
     "params: tabulated"),
    # the wells of a double well past beta 14.162095 lie within 1e-12 of +-1
    ("scan-bad", {**SCAN, "rate_function": {"kind": "double_well", "params": [20.0]}},
     "rate_function.params: double_well: double well needs 1 < beta <= 14.162095, got 20.0"),
    # is_bad judges every cell at mT +- delta, so |mT| + delta must not pass 1
    ("scan-bad", {**SCAN, "mT_grid": [0.98]}, "mT_grid:"),
])
def test_invalid_config_value_exits_2(tmp_path, capsys, command, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("log", ["false", 1, "yes"])
def test_grid_log_flag_must_be_a_json_boolean(tmp_path, capsys, log):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SCAN, "T_grid": {"start": 0.1, "stop": 1.0, "num": 3, "log": log}}))
    assert run(["scan-bad", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "T_grid.log:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "scan_bad.csv").exists()


@pytest.mark.parametrize("flag, grid", [
    ({}, [0.1, 0.55, 1.0]), ({"log": False}, [0.1, 0.55, 1.0]), ({"log": True}, [0.1, 10 ** -0.5, 1.0]),
])
def test_grid_log_flag_picks_the_spacing(flag, grid):
    got = cli._grid({"start": 0.1, "stop": 1.0, "num": 3, **flag}, "T_grid")
    assert np.allclose(got, grid, rtol=1e-14)


@pytest.mark.parametrize("cfg, field", [
    ({"seed": 1, "criteria": [2], "c2_samples": "many"}, "c2_samples:"),
    ({"seed": 1, "criteria": [6], "c6_sides": [4, 6]}, "c6_sides:"),
    ({"seed": 1, "criteria": [6], "c6_sides": [11, 11]}, "c6_sides:"),
    ({"seed": 1, "criteria": [2], "c2_samples": 2.5}, "c2_samples:"),
    ({"seed": 1, "criteria": [3], "c3_N_list": [50, 100.5]}, "c3_N_list:"),
    ({"seed": 1, "criteria": [11], "c11_side": 40}, "c11_side:"),
])
def test_verify_bad_override_exits_2_before_any_criterion(tmp_path, capsys, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert field in err
    assert "PASS" not in out and "FAIL" not in out


def test_verify_checks_every_default_override():
    assert set(cli._VERIFY_FIELDS) == set(DEFAULTS) - {"seed"}


@pytest.mark.parametrize("command, cfg, field", [
    ("mag-bvp", {"m0": 0.5, "mT": 0.0, "T": 1.0, "steps": 2.5}, "steps:"),
    ("mag-rate", {"seed": 7, "m0": 0.5, "T": 0.5, "mT": 0.0, "steps": 400.5,
                  "N_list": [200]}, "steps:"),
    ("pw-rate", {"b": 2.0, "d": 1.0, "t": 1.0, "a": 1.0, "N_list": [50, 100.5]}, "N_list:"),
    ("scan-bad", {**SCAN, "solver": {"min_steps": 80.5}}, "solver.min_steps:"),
    ("scan-bad", {**SCAN, "solver": {"max_iter": 800.5}}, "solver.max_iter:"),
    ("scan-bad", {**SCAN, "T_grid": {"start": 0.1, "stop": 1.0, "num": 2.5}}, "T_grid.num:"),
    ("lattice-sim", {**LATTICE, "replicas": 2.5}, "replicas:"),
    ("lattice-sim", {**LATTICE, "dim": 1.5}, "dim:"),
    ("lattice-sim", {**LATTICE, "rates": {"kind": "constant", "dim": 1, "value": 1.0,
                                          "radius": 0.5}}, "rates.radius:"),
    ("verify", {"seed": 5, "criteria": [5], "c5_instances": 2.5}, "c5_instances:"),
])
def test_non_integral_count_exits_2(tmp_path, capsys, command, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


MAG_RATE = {"seed": 7, "m0": -0.92, "T": 0.5, "mT": 0.0, "steps": 40}


def test_mag_rate_count_just_below_an_integer_is_accepted(tmp_path, capsys):
    # N (1 + m0) / 2 is 3.999999999999998 here: the oracle's rule accepts it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MAG_RATE, "N_list": [100, 50]}))
    assert run(["mag-rate", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "mag_rate.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[4]) for r in rows] == [
        -mag_exact_log_prob(100, -0.92, 0.5, 0.0) / 100, -mag_exact_log_prob(50, -0.92, 0.5, 0.0) / 50]
    assert abs(mag_exact_log_prob(100, -0.92, 0.5, 0.0) + 8.7379) <= 1e-4


def test_mag_rate_non_integral_count_exits_2_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the minimization ran before the N_list check")

    monkeypatch.setattr(cli.tr, "minimize_action_fixed", no_solve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MAG_RATE, "N_list": [100, 55]}))
    assert run(["mag-rate", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "N_list: N=55" in capsys.readouterr().err
    assert not (tmp_path / "o" / "mag_rate.csv").exists()


def test_mag_rate_exits_1_when_no_start_converges(tmp_path, capsys, monkeypatch):
    solve = cli.tr.minimize_action_fixed
    monkeypatch.setattr(cli.tr, "minimize_action_fixed", lambda *a, **k: solve(*a, **k, max_iter=1))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MAG_RATE, "N_list": [100]}))
    assert run(["mag-rate", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    assert "error SolverNotConverged: fixed-start Newton" in capsys.readouterr().err
    assert not (tmp_path / "o" / "mag_rate.csv").exists()


def test_integral_float_count_is_accepted(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m0": 0.5, "mT": 0.0, "T": 1.0, "steps": 200.0}))
    assert run(["mag-bvp", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o" / "mag_bvp.csv").read_text().splitlines()) == 202


@pytest.mark.parametrize("command, cfg", [
    ("mag-rate", {**MAG_RATE, "N_list": [100]}), ("lattice-sim", LATTICE),
    ("verify", {"criteria": [5, 6]}), ("verify", {"criteria": [2]}),
])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, str(path), "--out-dir", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("out_dir", [5, "", ["o"]])
def test_non_string_out_dir_exits_2(tmp_path, capsys, monkeypatch, out_dir):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"b": 2.0, "d": 1.0, "t": 1.0, "a": 1.0, "N_list": [50],
                                "out_dir": out_dir}))
    assert run(["pw-rate", str(path)]) == 2
    assert "out_dir:" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "spinldp", "--help"],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "scan-bad" in proc.stdout


@pytest.mark.parametrize("offset", [0.5, -1.5, True, "1"], ids=["half", "minus_1.5", "true", "string"])
def test_lattice_observable_offsets_must_be_integers(tmp_path, capsys, offset):
    """int() would run 0.5 as offset 0 and exit 0; an offset is an integral
    number, and JSON true is a bool, not the offset 1."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**LATTICE, "observables": [[[0], [offset]]]}))
    assert run(["lattice-sim", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "observables:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "lattice_moments.csv").exists()


def test_lattice_observable_offsets_accept_integral_floats(tmp_path):
    outs = []
    for offset in (1, 1.0):
        path = tmp_path / f"cfg{offset!r}.json"
        path.write_text(json.dumps({**LATTICE, "observables": [[[0], [offset]]]}))
        out = tmp_path / f"o{offset!r}"
        assert run(["lattice-sim", str(path), "--out-dir", str(out)]) == 0
        outs.append((out / "lattice_moments.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_table_rate_must_be_finite(tmp_path, capsys, rate):
    """A NaN rate was reported as a pattern with no rate."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**LATTICE, "rates": {"kind": "table", "dim": 1, "radius": 0,
                                                     "rates": {"+": rate, "-": 1.0}}}))
    assert run(["lattice-sim", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "rates:" in err and "'+'" in err and "not finite" in err
