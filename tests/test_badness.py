import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from spinldp import badness as bd
from spinldp import verification as vf
from spinldp import cli
from spinldp.badness import (
    ScanCell,
    SolverOpts,
    badness_scan,
    is_bad,
    nature_nurture_classify,
    optimal_initials,
    rate_function_from_descriptor,
    transition_cost,
)
from spinldp.magnetization import mag_endpoint_rate, mag_model
from spinldp.rate_functions import bernoulli_rate, double_well_rate, tabulated_rate
from spinldp.trajectory import (
    ActionProblem,
    FixedStart,
    OpenStart,
    minimize_action_fixed,
    minimize_action_open_start,
)

MODEL = mag_model()


def test_rate_function_normalization_and_wells():
    dw = double_well_rate(1.5)
    assert len(dw.minimizers) == 2
    m_beta = dw.minimizers[1]
    assert abs(math.atanh(m_beta) - 1.5 * m_beta) <= 1e-10
    assert abs(float(dw.evaluator(m_beta))) <= 1e-12
    assert float(dw.evaluator(0.0)) > 0.1
    grid = np.linspace(-0.999, 0.999, 2001)
    assert float(np.min(dw.evaluator(grid))) >= -1e-12
    b = bernoulli_rate(0.5)
    for m in (-0.7, 0.0, 0.4):
        kl = 0.5 * (1 + m) * math.log((1 + m) / 1.5) + 0.5 * (1 - m) * math.log((1 - m) / 0.5)
        assert abs(float(b.evaluator(m)) - kl) <= 1e-14


def test_branch_endpoint_past_the_domain_is_a_cell_error():
    # the double well has two minimizers at mT = 0, T = 1; delta = 1.5 puts
    # the level-0 branch endpoints at +-1.5, outside [-1, 1]
    opts = SolverOpts(min_steps=60, max_iter=400)
    (cell,) = badness_scan("double_well", (1.5,), [1.0], [0.0], epsilon=0.1, delta=1.5,
                           opts=opts, master_seed=3)
    assert cell.error == "PathLeavesDomain"
    assert math.isnan(cell.cost) and not cell.bad


def test_rate_function_infinite_outside_interval():
    dw = double_well_rate(1.5)
    assert float(dw.evaluator(1.2)) == math.inf
    b = bernoulli_rate(0.3)
    assert float(b.evaluator(-1.5)) == math.inf


def test_tabulated_rate_function():
    grid = np.linspace(-1, 1, 41)
    vals = (grid - 0.2) ** 2 + 3.0
    tab = tabulated_rate(grid, vals)
    assert abs(float(tab.evaluator(0.2))) <= 1e-12
    assert tab.minimizers == (0.19999999999999996,) or abs(tab.minimizers[0] - 0.2) <= 0.05


def test_transition_cost_drift_free():
    cost = transition_cost(MODEL, 0.5, 0.5 * math.exp(-2.0), 1.0)
    assert cost <= 1e-6
    cost2 = transition_cost(MODEL, 0.5, 0.0, 1.0)
    problem = ActionProblem(MODEL, FixedStart(0.5), 0.0, 1.0)
    _, direct = minimize_action_fixed(problem, steps=SolverOpts().steps_for(1.0), seed=0)
    assert abs(cost2 - direct) <= 1e-12
    assert cost2 >= 0.0


def test_transition_cost_continuous_in_endpoint():
    vals = [transition_cost(MODEL, 0.5, m, 1.0) for m in (0.0, 0.02, 0.04)]
    assert abs(vals[1] - vals[0]) <= 0.1
    assert abs(vals[2] - vals[1]) <= 0.1


def test_optimal_initials_typical_state():
    mins = optimal_initials(bernoulli_rate(0.5), 0.5 * math.exp(-6.0), 3.0)
    assert len(mins) == 1
    assert abs(mins[0].gamma0 - 0.5) <= 5e-3
    assert mins[0].value <= 1e-4


def test_optimal_initials_double_well_pair_and_symmetry():
    mins = optimal_initials(double_well_rate(1.5), 0.0, 3.0)
    assert len(mins) == 2
    g = sorted(m.gamma0 for m in mins)
    assert abs(g[0] + g[1]) <= 1e-6  # set symmetry under negation
    assert abs(abs(g[0]) - 0.8586) <= 2e-3
    assert abs(mins[0].value - mins[1].value) <= 1e-5


def test_optimal_initials_short_horizon_pins_start():
    mins = optimal_initials(double_well_rate(1.5), 0.0, 0.01,
                            opts=SolverOpts(dt_target=0.001, min_steps=60, max_iter=600))
    assert len(mins) == 1
    assert abs(mins[0].gamma0) <= 0.02


def test_is_bad_double_well_long_horizon():
    flag, diag = is_bad(double_well_rate(1.5), 0.0, 3.0, epsilon=0.1, delta=0.05)
    assert flag
    assert diag["plus_branch"][-1] > 0 > diag["minus_branch"][-1]
    assert diag["gaps"][-1] > 1.0


def test_is_bad_short_horizon_false():
    flag, diag = is_bad(double_well_rate(1.5), 0.0, 0.05, epsilon=0.1, delta=0.05)
    assert not flag
    # a continuous selection: the gap halves with each halving of delta
    gaps = diag["gaps"]
    assert len(gaps) == 5
    for coarse, fine in zip(gaps, gaps[1:]):
        assert abs(fine / coarse - 0.5) <= 1e-3


def test_is_bad_convex_rate_false():
    flag, diag = is_bad(bernoulli_rate(0.5), 0.0, 1.0, epsilon=0.1, delta=0.05)
    assert not flag


def test_is_bad_below_the_spinodal_is_good():
    # criterion 10's column cell just below T_s = log(3)/4 = 0.2747: the selection
    # is steep but continuous, its gap ratios fall towards 1/2.  CG's M* there is a
    # spurious cluster of three or four starts, which no verdict may read.
    flag, diag = is_bad(double_well_rate(1.5), 0.0, 0.2682, epsilon=0.1, delta=0.05)
    assert not flag
    assert diag["gaps"][-1] > 0.1  # the gap alone would call it bad


def test_is_bad_at_the_spinodal_follows_the_power_law():
    # at beta = 3/2 and T = T_s the quadratic and quartic terms of I + K_T(., 0)
    # vanish together, the selection grows like mT^(1/5), and each halving of
    # delta multiplies the gap by 2^(-1/5) = 0.871, just under _JUMP_RATIO
    flag, diag = is_bad(double_well_rate(1.5), 0.0, 0.25 * math.log(3.0), epsilon=0.1, delta=0.05)
    assert not flag
    gaps = diag["gaps"]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert abs(fine / coarse - 2.0 ** -0.2) <= 0.01


def test_nature_nurture_labels():
    rate = double_well_rate(1.5)
    short = optimal_initials(rate, 0.0, 0.02,
                             opts=SolverOpts(dt_target=0.001, min_steps=60, max_iter=600))
    label_short, recs = nature_nurture_classify(rate, 0.0, 0.02, short)
    assert label_short == "nature"
    label_long, recs = nature_nurture_classify(rate, 0.0, 3.0, optimal_initials(rate, 0.0, 3.0))
    assert label_long == "nurture"
    for g0, lab, d_nat, d_nur in recs:
        assert d_nur < d_nat


def test_nature_nurture_single_crossover_in_T():
    # label flips nature -> nurture exactly once along a refined horizon grid
    labels = []
    for T in np.logspace(math.log10(0.02), math.log10(3.0), 12):
        opts = SolverOpts(min_steps=80, max_iter=600)
        rate = double_well_rate(1.5)
        mins = optimal_initials(rate, 0.0, float(T), opts=opts)
        lab, _ = nature_nurture_classify(rate, 0.0, float(T), mins)
        labels.append(lab)
    collapsed = [lab for lab in labels if lab != "mixed"]
    changes = sum(1 for a, b in zip(collapsed, collapsed[1:]) if a != b)
    assert collapsed[0] == "nature" and collapsed[-1] == "nurture"
    assert changes == 1


def test_scan_records_and_determinism():
    T_grid = np.logspace(math.log10(0.1), math.log10(2.0), 3)
    mT_grid = [-0.3, 0.0, 0.3]
    opts = SolverOpts(min_steps=80, max_iter=500)
    res1 = badness_scan("bernoulli", (0.5,), T_grid, mT_grid, epsilon=0.1, delta=0.05,
                        opts=opts, master_seed=5)
    res2 = badness_scan("bernoulli", (0.5,), T_grid, mT_grid, epsilon=0.1, delta=0.05,
                        opts=opts, master_seed=5, workers=3)
    assert res1 == res2
    assert len(res1) == 9
    for cell in res1:
        assert cell.n_minimizers >= 1
        assert cell.error == ""
        assert not cell.bad  # the selection is continuous for strictly convex I


def test_scan_empty_grid():
    assert badness_scan("bernoulli", (0.5,), [], [], epsilon=0.1, delta=0.05, master_seed=1) == ()


def test_scan_csv_schema(tmp_path, capsys):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"seed": 2, "rate_function": {"kind": "double_well", "params": [1.5]},
                               "T_grid": [3.0], "mT_grid": [0.0]}))
    assert cli.main(["scan-bad", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == "scan-bad: 1 bad cells of 1\n"
    lines = (tmp_path / "o" / "scan_bad.csv").read_text().strip().split("\n")
    assert lines[0] == "T,mT,n_minimizers,gamma0_list,cost,bad,label,d_nature,d_nurture,error"
    cell = lines[1].split(",")
    assert cell[2] == "2"  # two minimizers
    assert ";" in cell[3]  # semicolon-joined gamma0 list
    assert cell[5] == "1"  # bad


def test_descriptor_round_trip():
    dw = rate_function_from_descriptor("double_well", (1.5,))
    assert dw.kind == "double_well"
    with pytest.raises(ValueError):
        rate_function_from_descriptor("unknown", ())


GOLDEN_CELL = (double_well_rate(1.5), 0.0, 1.0)


def _golden_opts(min_steps):
    return SolverOpts(min_steps=min_steps, max_iter=400, seed=3)


def _ends(mT, delta=0.05):
    """The branch endpoints of is_bad, in diagnostics order, per level n."""
    return [(mT + sign * (delta * 2.0**-n), key) for n in range(5)
            for sign, key in ((+1.0, "plus_branch"), (-1.0, "minus_branch"))]


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
def test_is_bad_branches_equal_dense_minimization(T):
    # each selection is the global minimizer of I + K_T at its endpoint,
    # found here by a 20001-point scan polished by a bounded Brent search
    rate, mT = double_well_rate(1.5), 0.0
    _, diag = is_bad(rate, mT, T, epsilon=0.1, delta=0.05)
    xs = np.linspace(-1.0, 1.0, 20001)
    static = rate.evaluator(xs)
    for k, (end, key) in enumerate(_ends(mT)):
        x0 = xs[int(np.argmin(static + mag_endpoint_rate(xs, end, T)))]
        res = minimize_scalar(lambda x: float(rate.evaluator(x)) + mag_endpoint_rate(x, end, T),
                              bounds=(x0 - 2e-4, x0 + 2e-4), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(diag[key][k // 2] - res.x) <= 1e-6


def test_is_bad_branches_converge_to_cg_at_first_order_in_dt():
    # CG's open-start solve at each branch endpoint carries the O(dt) error of
    # the discrete action: doubling the step count halves its gap to the
    # continuum selection
    rate, mT, T = GOLDEN_CELL
    _, diag = is_bad(rate, mT, T, epsilon=0.1, delta=0.05)
    gaps = []
    for steps in (60, 120):
        opts = _golden_opts(steps)
        gaps.append([])
        for k, (end, key) in enumerate(_ends(mT)):
            _, _, sel = minimize_action_open_start(
                ActionProblem(MODEL, OpenStart(rate), end, T), steps=steps, seed=opts.seed,
                max_iter=opts.max_iter, gtol=opts.gtol)
            gaps[-1].append(abs(sel[0].gamma0 - diag[key][k // 2]))
    assert max(gaps[0]) <= 1e-3
    for coarse, fine in zip(*gaps):
        assert 0.4 <= fine / coarse <= 0.6


def test_is_bad_branch_endpoint_on_the_domain_edge_is_finite():
    # delta = 1 puts the level-0 branch endpoints exactly at +-1
    rate, mT, T = GOLDEN_CELL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flag, diag = is_bad(rate, mT, T, epsilon=0.1, delta=1.0)
    assert flag
    for key in ("plus_branch", "minus_branch"):
        assert all(math.isfinite(x) and -1.0 <= x <= 1.0 for x in diag[key])
    assert diag["plus_branch"][0] > 0 > diag["minus_branch"][0]


def test_criterion_10_without_branch_selections_fails_its_branch_check(monkeypatch):
    # an error cell carries no branch selection; as the last column cell it
    # makes the check read False instead of raising
    def scan(kind, params, T_grid, mT_grid, **kwargs):
        return tuple(ScanCell(T=float(T), mT=float(m), n_minimizers=1, gamma0_list=(0.0,),
                              cost=0.0, bad=False, label="nurture", d_nature=1.0, d_nurture=0.0)
                     for T in T_grid for m in mT_grid)

    monkeypatch.setattr(vf.bd, "badness_scan", scan)
    res = vf.criterion_10({**vf.DEFAULTS, "c10_T_points": 2, "c10_scan_points": 2})
    assert not res.passed
    assert "branch signs opposite: False" in res.detail


# criterion 10's column cells on both sides of T_s = 0.2747
def test_scan_flags_do_not_depend_on_the_cg_seed():
    T_grid = [0.2415, 0.2682, 0.2979]
    for seed in (1, 2):
        column = badness_scan("double_well", (1.5,), T_grid, [0.0], epsilon=0.1, delta=0.05,
                              master_seed=seed)
        assert [c.bad for c in column] == [False, False, True]


def test_scan_cell_judges_every_cell_through_the_module_is_bad(monkeypatch):
    # perfbench's phase-scan gate wraps badness.is_bad and reads the
    # selections of every cell it judges; a one-minimizer cell is judged too
    seen = []
    real = bd.is_bad

    def capturing(I, mT, T, *args, **kwargs):
        flag, diag = real(I, mT, T, *args, **kwargs)
        seen.append((I.kind, T, mT, diag))
        return flag, diag

    monkeypatch.setattr(bd, "is_bad", capturing)
    opts = SolverOpts(min_steps=60, max_iter=400)
    cells = (badness_scan("double_well", (1.5,), [0.05, 1.0], [0.0], epsilon=0.1, delta=0.05,
                          opts=opts, master_seed=4)
             + badness_scan("bernoulli", (0.5,), [0.5], [0.3], epsilon=0.1, delta=0.05,
                            opts=opts, master_seed=4))
    assert [c.error for c in cells] == ["", "", ""]
    assert [c.n_minimizers for c in cells] == [1, 2, 1]
    assert [(kind, T, mT) for kind, T, mT, _ in seen] == [
        ("double_well", 0.05, 0.0), ("double_well", 1.0, 0.0), ("bernoulli", 0.5, 0.3)]
    for cell, (_, _, _, diag) in zip(cells, seen):
        assert len(diag["plus_branch"]) == len(diag["minus_branch"]) == 5
        assert cell.branch_selection == (diag["plus_branch"][-1], diag["minus_branch"][-1])
