import dataclasses
import math
import warnings

import numpy as np
import pytest

from spinldp.errors import DomainExit, NoFeasiblePath, PathLeavesDomain, SolverNotConverged
from spinldp.magnetization import (
    mag_endpoint_rate,
    mag_extremal,
    mag_hamilton_rhs,
    mag_hamiltonian,
    mag_model,
)
from spinldp.poisson_walk import PoissonWalkParams, pw_lagrangian, pw_model
from spinldp.rate_functions import RateFunctionSpec, bernoulli_rate, double_well_rate
from spinldp.seeding import rng_from
from spinldp import trajectory as tr
from spinldp.trajectory import (
    ActionProblem,
    FixedStart,
    LagrangianModel,
    OpenStart,
    TrajectoryGrid,
    action_integral,
    euler_lagrange_residual,
    hamilton_flow_integrate,
    minimize_action_fixed,
    minimize_action_open_start,
)

MODEL = mag_model()


def quad_model():
    def value_and_partials(x, v):
        x, v = np.broadcast_arrays(np.asarray(x, float), np.asarray(v, float))
        return v**2 / 2, np.zeros_like(x), v

    return LagrangianModel(
        value_and_partials=value_and_partials,
        domain=(-math.inf, math.inf),
        flow=lambda x, dt: x,
        drift=lambda x: np.zeros_like(np.asarray(x, float)),
    )


def test_trajectory_grid_validation():
    with pytest.raises(ValueError):
        TrajectoryGrid(T=1.0, steps=10, values=np.zeros(5))
    with pytest.raises(ValueError):
        TrajectoryGrid(T=-1.0, steps=4, values=np.zeros(5))


def test_action_zero_cost_drift_path():
    t = np.linspace(0, 1, 2001)
    traj = TrajectoryGrid(T=1.0, steps=2000, values=0.5 * np.exp(-2 * t))
    assert action_integral(MODEL, traj) <= 1e-8


def test_action_constant_path():
    traj = TrajectoryGrid(T=2.0, steps=400, values=np.full(401, 0.3))
    from spinldp.magnetization import mag_lagrangian

    expect = 2.0 * mag_lagrangian(0.3, 0.0)
    assert abs(action_integral(MODEL, traj) - expect) <= 1e-9


def test_action_infinite_for_infeasible_velocity():
    p = PoissonWalkParams(1.0, 0.0, 1)
    model = pw_model(p)
    traj = TrajectoryGrid(T=1.0, steps=10, values=np.linspace(1.0, 0.0, 11))
    assert action_integral(model, traj) == math.inf


def test_action_segment_additivity_exact():
    # velocity-only Lagrangian on a linear path: subinterval sums telescope
    p = PoissonWalkParams(2.0, 1.0, 1)
    model = pw_model(p)
    vals = np.linspace(0.0, 1.7, 241)
    full = TrajectoryGrid(T=1.2, steps=240, values=vals)
    a_full = action_integral(model, full)
    for cut in (60, 120, 200):
        left = TrajectoryGrid(T=1.2 * cut / 240, steps=cut, values=vals[: cut + 1])
        right = TrajectoryGrid(T=1.2 * (240 - cut) / 240, steps=240 - cut, values=vals[cut:])
        assert abs(action_integral(model, left) + action_integral(model, right) - a_full) <= 1e-12


def test_minimize_fixed_relaxation_is_free():
    problem = ActionProblem(MODEL, FixedStart(0.5), 0.5 * math.exp(-2.0), 1.0)
    traj, val = minimize_action_fixed(problem, steps=300, seed=0)
    assert val <= 1e-6
    assert np.max(np.abs(traj.values - 0.5 * np.exp(-2 * traj.times))) <= 1e-3


def test_minimize_fixed_matches_extremal():
    problem = ActionProblem(MODEL, FixedStart(0.5), 0.0, 1.0)
    traj, val = minimize_action_fixed(problem, steps=400, seed=0)
    _, _, path = mag_extremal(0.5, 0.0, 1.0)
    ext = TrajectoryGrid(T=1.0, steps=400, values=path(np.linspace(0, 1, 401)))
    assert abs(val - action_integral(MODEL, ext)) <= 1e-4


def test_minimize_fixed_velocity_only_linear_optimal():
    p = PoissonWalkParams(2.0, 1.0, 1)
    model = pw_model(p)
    problem = ActionProblem(model, FixedStart(0.0), 1.7, 1.0)
    traj, val = minimize_action_fixed(problem, steps=200, seed=1)
    expect = 1.0 * pw_lagrangian(1.7, p)
    assert abs(val - expect) <= 1e-6
    line = np.linspace(0.0, 1.7, 201)
    assert np.max(np.abs(traj.values - line)) <= 1e-4


def test_minimize_fixed_no_feasible_path():
    p = PoissonWalkParams(1.0, 0.0, 1)
    model = pw_model(p)
    problem = ActionProblem(model, FixedStart(1.0), 0.0, 1.0)  # must move down: impossible
    with pytest.raises(NoFeasiblePath):
        minimize_action_fixed(problem, steps=50, seed=0)


@pytest.mark.parametrize("m0, mT, T, steps", [
    (0.5, 0.0, 0.5, 400), (0.5, 0.999, 1.0, 200), (-0.3, -0.999, 0.7, 300), (0.9, -0.9, 3.0, 300),
])
def test_minimize_fixed_is_below_the_sampled_extremal_and_stationary(m0, mT, T, steps):
    # the sampled extremal is a feasible path on the same grid, so the
    # infimum can only lie below its action; the returned path is a
    # stationary point of the discrete action to within gtol
    problem = ActionProblem(MODEL, FixedStart(m0), mT, T)
    traj, val = minimize_action_fixed(problem, steps=steps, seed=0)
    ext = TrajectoryGrid(T=T, steps=steps, values=mag_extremal(m0, mT, T)[2](traj.times))
    assert val <= action_integral(MODEL, ext)
    fun_grad = tr._objective(MODEL.value_and_partials, T / steps, [m0], None, mT)
    (f,), grads = fun_grad(traj.values[None, 1:-1])
    assert f == val
    assert np.abs(grads).max() <= 1e-9


def _newton_runs(problem, steps, seed, max_iter=2000, gtol=1e-9):
    """_newton_minimize's run from every start profile of a fixed-start problem."""
    model, mT, T = problem.model, problem.end, problem.horizon
    dt = T / steps
    fun_grad = tr._objective(model.value_and_partials, dt, [problem.start.m0], None, mT)
    return [tr._newton_minimize(model.value_and_partials, fun_grad, dt, p, max_iter, gtol)
            for p in tr._start_profiles(model, problem.start, mT, T, steps, rng_from(seed))]


@pytest.mark.parametrize("mT", [1.7, 0.3, -0.5])
def test_newton_rows_stop_on_gtol_or_round_off_on_the_velocity_only_walk(mT):
    # f is about 0.08 here, so near the optimum the predicted decrease falls
    # below f's round-off: the value-only line search would stall there
    problem = ActionProblem(pw_model(PoissonWalkParams(2.0, 1.0, 1)), FixedStart(0.0), mT, 1.0)
    runs = _newton_runs(problem, 200, seed=1)
    assert len(runs) == 6
    for run in runs:
        assert run.stop in ("gtol", "round-off") and run.iterations <= 30, run.stop


def test_newton_round_off_stop_ends_a_run_that_gtol_cannot():
    problem = ActionProblem(MODEL, FixedStart(0.5), 0.0, 0.5)
    for run in _newton_runs(problem, 400, seed=0, gtol=0.0):
        assert run.stop == "round-off" and run.iterations <= 30
        assert run.gmax <= 1e-12


def test_minimize_fixed_from_the_domain_edge_is_finite_without_warnings():
    problem = ActionProblem(MODEL, FixedStart(1.0), 0.2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, val = minimize_action_fixed(problem, steps=100, seed=0)
    assert math.isfinite(val)
    assert abs(val - float(mag_endpoint_rate(1.0, 0.2, 1.0))) <= 1e-3


def test_minimize_fixed_evaluator_calls_are_bounded():
    # criterion 4's solve; the CG driver it replaced made 2372 calls
    calls = []

    def value_and_partials(x, v):
        calls.append(1)
        return MODEL.value_and_partials(x, v)

    model = dataclasses.replace(MODEL, value_and_partials=value_and_partials)
    minimize_action_fixed(ActionProblem(model, FixedStart(0.5), 0.0, 0.5), steps=400, seed=0)
    assert len(calls) <= 400


def test_minimize_fixed_raises_when_no_row_converges():
    problem = ActionProblem(MODEL, FixedStart(0.5), 0.0, 1.0)
    with pytest.raises(SolverNotConverged, match=r"max_iter after 1 iterations with max\|g\| "):
        minimize_action_fixed(problem, steps=400, seed=0, max_iter=1)


@pytest.mark.parametrize("start, end", [
    (FixedStart(0.0), 1.5), (FixedStart(0.0), -1.0 - 1e-12), (FixedStart(1.2), 0.0),
    (FixedStart(-1.5), 0.0), (OpenStart(bernoulli_rate(0.3)), 1.01), (FixedStart(0.0), math.nan),
])
def test_problem_outside_the_domain_raises(start, end):
    # a path that ends (or starts) outside [-1, 1] is never evaluated there,
    # so the problem itself refuses it
    with pytest.raises(PathLeavesDomain):
        ActionProblem(MODEL, start, end, 1.0)


def test_problem_on_the_domain_edge_or_unbounded_is_accepted():
    ActionProblem(MODEL, FixedStart(1.0), -1.0, 1.0)
    ActionProblem(pw_model(PoissonWalkParams(2.0, 1.0, 1)), FixedStart(-5.0), 7.0, 1.0)


def _with_failing_extremal(error):
    def extremal(m0, mT, T):
        raise error("no closed form here")

    model = dataclasses.replace(MODEL, extremal=extremal)
    return ActionProblem(model, FixedStart(0.5), 0.0, 1.0)


def test_minimize_fixed_skips_extremal_leaving_domain():
    _, val = minimize_action_fixed(_with_failing_extremal(PathLeavesDomain), steps=50, seed=0)
    assert math.isfinite(val)


def test_minimize_fixed_extremal_errors_propagate():
    # only PathLeavesDomain means "no closed-form candidate"; other errors surface
    with pytest.raises(ZeroDivisionError):
        minimize_action_fixed(_with_failing_extremal(ZeroDivisionError), steps=50, seed=0)


def test_minimize_fixed_grid_refinement_cauchy():
    problem = ActionProblem(MODEL, FixedStart(0.5), 0.0, 1.0)
    vals = [minimize_action_fixed(problem, steps=s, seed=0)[1] for s in (100, 200, 400)]
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    assert d2 < d1
    assert d1 <= 10.0 / 100


def test_dynamic_programming_midpoint_consistency():
    problem = ActionProblem(MODEL, FixedStart(0.5), 0.0, 1.0)
    _, direct = minimize_action_fixed(problem, steps=200, seed=0)

    def through(x):
        p1 = ActionProblem(MODEL, FixedStart(0.5), x, 0.5)
        p2 = ActionProblem(MODEL, FixedStart(x), 0.0, 0.5)
        return (minimize_action_fixed(p1, steps=100, seed=0)[1]
                + minimize_action_fixed(p2, steps=100, seed=0)[1])

    xs = np.linspace(0.05, 0.35, 7)
    best = min(through(float(x)) for x in xs)
    assert abs(best - direct) <= 2e-3


def test_open_start_quadratic_oracle():
    # I(x) = x^2/2, L = v^2/2, end 1 at T=1: the optimum is the straight line
    # from 1/2 with value 1/4, and the initial momentum equals I'(gamma0)
    Iq = RateFunctionSpec("quad", lambda m: np.asarray(m, float) ** 2 / 2,
                          lambda m: np.asarray(m, float), (0.0,))
    problem = ActionProblem(quad_model(), OpenStart(Iq), 1.0, 1.0)
    traj, val, mins = minimize_action_open_start(problem, steps=300, seed=0, max_iter=2000,
                                                 gtol=1e-9)
    assert abs(mins[0].gamma0 - 0.5) <= 1e-6
    assert abs(val - 0.25) <= 1e-9
    assert abs(mins[0].p0 - 0.5) <= 1e-6
    assert mins[0].transversality_residual <= 1e-4


def test_open_start_flat_rate_function_zero_momentum():
    Izero = RateFunctionSpec("flat", lambda m: np.zeros_like(np.asarray(m, float)),
                             lambda m: np.zeros_like(np.asarray(m, float)), (0.0,))
    problem = ActionProblem(MODEL, OpenStart(Izero), 0.0, 1.0)
    _, val, mins = minimize_action_open_start(problem, steps=300, seed=0, max_iter=2000,
                                              gtol=1e-9)
    assert abs(val) <= 1e-8
    assert abs(mins[0].p0) <= 1e-4
    assert mins[0].transversality_residual <= 1e-4


def test_open_start_typical_state_free_flow():
    I = bernoulli_rate(0.5)
    problem = ActionProblem(MODEL, OpenStart(I), 0.5 * math.exp(-2.0), 1.0)
    _, val, mins = minimize_action_open_start(problem, steps=300, seed=0, max_iter=2000,
                                              gtol=1e-9)
    assert abs(mins[0].gamma0 - 0.5) <= 2e-3
    assert val <= 1e-5
    assert mins[0].transversality_residual <= 1e-4


def test_open_start_double_well_symmetric_pair():
    dw = double_well_rate(1.5)
    problem = ActionProblem(MODEL, OpenStart(dw), 0.0, 3.0)
    _, val, mins = minimize_action_open_start(problem, steps=300, seed=0, max_iter=2000,
                                              gtol=1e-9)
    assert len(mins) == 2
    g = sorted(m.gamma0 for m in mins)
    assert abs(g[0] + g[1]) <= 1e-4  # symmetric under negation
    assert abs(g[1] - dw.minimizers[1]) <= 1e-3
    for m in mins:
        assert m.transversality_residual <= 1e-4


def test_euler_lagrange_residual_extremal_vs_perturbed():
    _, _, path = mag_extremal(0.5, 0.0, 1.0)
    t = np.linspace(0, 1, 2001)
    ext = TrajectoryGrid(T=1.0, steps=2000, values=path(t))
    assert euler_lagrange_residual(MODEL, ext) <= 1e-4
    drift = TrajectoryGrid(T=1.0, steps=2000, values=0.5 * np.exp(-2 * t))
    assert euler_lagrange_residual(MODEL, drift) <= 1e-4
    pert = TrajectoryGrid(T=1.0, steps=2000, values=path(t) + 0.05 * np.sin(math.pi * t))
    assert euler_lagrange_residual(MODEL, pert) > 1e-2


def test_minimizer_satisfies_euler_lagrange():
    # the forward-difference minimizer deviates from the continuum extremal
    # by O(dt), so the continuous residual needs a production-size grid
    problem = ActionProblem(MODEL, FixedStart(0.5), 0.0, 1.0)
    traj, _ = minimize_action_fixed(problem, steps=1600, seed=0, max_iter=10000, gtol=1e-10)
    assert euler_lagrange_residual(MODEL, traj) <= 1e-3


def test_hamilton_flow_conservation_and_growth():
    res = hamilton_flow_integrate(mag_hamilton_rhs, 0.0, 0.1, 1.0, 1e-4,
                                  hamiltonian=mag_hamiltonian)
    assert res.energy_drift <= 1e-8
    assert abs(math.tanh(res.p[-1]) / math.tanh(0.1) - math.exp(2.0)) <= 1e-6


def test_hamilton_flow_zero_momentum_is_drift():
    res = hamilton_flow_integrate(mag_hamilton_rhs, 0.7, 0.0, 1.0, 1e-4,
                                  hamiltonian=mag_hamiltonian)
    assert np.max(np.abs(res.m - 0.7 * np.exp(-2 * res.times))) <= 1e-8
    assert np.max(np.abs(res.p)) == 0.0


def test_hamilton_flow_blowup_raises_domain_exit():
    with pytest.raises(DomainExit):
        hamilton_flow_integrate(mag_hamilton_rhs, 0.4, 0.5, 1.0, 1e-4,
                                hamiltonian=mag_hamiltonian)


def test_hamilton_flow_step_size_validated():
    with pytest.raises(ValueError):
        hamilton_flow_integrate(mag_hamilton_rhs, 0.0, 0.1, 1.0, 0.5,
                                hamiltonian=mag_hamiltonian)


def _mixed_round_counter(model):
    """model with an evaluator that counts the batches mixing finite and infinite rows."""
    mixed = []

    def value_and_partials(x, v):
        out = model.value_and_partials(x, v)
        finite = np.isfinite(out[0]).all(axis=-1)
        if np.ndim(finite) and finite.any() and not finite.all():
            mixed.append(int((~finite).sum()))
        return out

    return dataclasses.replace(model, value_and_partials=value_and_partials), mixed


def test_lockstep_rows_equal_solo_solves_beside_an_infinite_row():
    # Paths pinned at the domain edge m0 = 1 and at the end 0.5, the rows
    # starting from different profiles.  The last row's first free node lies
    # above 1, an upward velocity at m = 1, so its point is +inf in the same
    # batch as the finite points of the other rows.
    steps, T = 40, 1.0
    model, mixed = _mixed_round_counter(MODEL)
    fun_grad = tr._objective(model.value_and_partials, T / steps, [1.0], None, 0.5)
    starts = [np.linspace(1.0, m, steps + 1)[1:-1] for m in (0.5, 0.9, -0.3, 0.2)]
    starts[-1] = starts[-1] + 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = tr._lockstep(fun_grad, starts, 400, 1e-10)
        assert batch[-1] is None
        assert mixed[0] == 1
        for i in range(len(starts) - 1):
            (x, f), = tr._lockstep(fun_grad, [starts[i]], 400, 1e-10)
            assert batch[i][0].tobytes() == x.tobytes()
            assert batch[i][1].hex() == f.hex()
