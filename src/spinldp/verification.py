"""The acceptance battery: one callable per criterion, pinned tolerances.

Each criterion returns a CriterionResult, and CriterionResult.line() is its
one PASS/FAIL line.  The same battery backs the `verify` CLI command, which
runs the criteria a config names and prints their lines, and
tests/test_acceptance.py.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import badness as bd
from . import duality as du
from . import finite_jump as fj
from . import lattice as lat
from . import magnetization as mag
from . import poisson_walk as pw
from . import trajectory as tr
from .coefficients import CoefficientMap
from .seeding import child_seed, derived_int, rng_from

DEFAULTS = {
    "seed": 20260808,
    "c2_samples": 1000,
    "c3_N_list": [50, 100, 200, 500],
    "c5_instances": 200,
    "c6_sides": [11, 21, 41],
    "c7_models": 100,
    "c9_replicas": 10000,
    "c10_T_points": 40,
    "c10_scan_points": 20,
    "c11_replicas": 50,
    "c11_side": 101,
}


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'} {self.index:2d} {self.name}: "
                f"{self.detail} [{self.elapsed:.1f}s]")


def _result(index, name, passed, detail, t0):
    return CriterionResult(index, name, bool(passed), detail, time.time() - t0)


def criterion_1(cfg, workers=1):
    """Conjugate-pair duality both ways, gap <= 1e-8 on the m, p/q grids."""
    t0 = time.time()
    mgrid = np.round(np.arange(-0.9, 0.91, 0.1), 10)
    sgrid = np.round(np.arange(-4.0, 4.01, 0.1), 10)
    gap_hl = du.duality_gap(
        mag.mag_hamiltonian, lambda m, q: mag.mag_lagrangian(m, q), mgrid, sgrid,
        l_deriv=lambda m, q: float(mag.mag_momentum(m, q)),
    )
    gap_lh = du.duality_gap(
        lambda m, q: mag.mag_lagrangian(m, q), mag.mag_hamiltonian, mgrid, sgrid,
        l_deriv=lambda m, p: mag.mag_hamiltonian_dp(m, p),
    )
    worst = max(gap_hl, gap_lh)
    return _result(1, "conjugate-pair-duality", worst <= 1e-8,
                   f"max gap H->L {gap_hl:.3e}, L->H {gap_lh:.3e} (tol 1e-08)", t0)


def criterion_2(cfg, workers=1):
    """Zero cost along the drift, closed form and discretized action."""
    t0 = time.time()
    rng = rng_from(child_seed(cfg["seed"], 2))
    m = rng.uniform(-1.0, 1.0, size=cfg["c2_samples"])
    worst_closed = float(np.max(np.abs(mag.mag_lagrangian(m, -2.0 * m))))
    t = np.linspace(0.0, 1.0, 2001)
    traj = tr.TrajectoryGrid(T=1.0, steps=2000, values=0.5 * np.exp(-2.0 * t))
    act = tr.action_integral(mag.mag_model(), traj)
    ok = worst_closed <= 1e-10 and act <= 1e-8
    return _result(2, "zero-cost-drift", ok,
                   f"max |L(m,-2m)| {worst_closed:.3e} (tol 1e-10); "
                   f"drift action {act:.3e} (tol 1e-08)", t0)


def criterion_3(cfg, workers=1):
    """Poisson-walk LDP versus the exact two-Poisson oracle."""
    t0 = time.time()
    params = pw.PoissonWalkParams(2.0, 1.0, 1)
    finals, decreasing = [], []
    for a in (0.0, 0.5, 1.0, 2.0):
        rows = pw.pw_rate_convergence(params, cfg["c3_N_list"], 1.0, a)
        gaps = [abs(r["gap"]) for r in rows]
        finals.append(gaps[-1])
        decreasing.append(gaps[-1] < gaps[0])
    ok = max(finals) <= 0.05 and all(decreasing)
    return _result(3, "poisson-walk-ldp", ok,
                   f"final gaps {['%.4f' % g for g in finals]} (tol 0.05), "
                   f"all shrinking from N=50: {all(decreasing)}", t0)


def criterion_4(cfg, workers=1):
    """Magnetization LDP against the exact binomial-convolution oracle."""
    t0 = time.time()
    n, m0, T, mT = 2000, 0.5, 0.5, 0.0
    rate = -mag.mag_exact_log_prob(n, m0, T, mT) / n
    model = mag.mag_model()
    problem = tr.ActionProblem(model, tr.FixedStart(m0), mT, T)
    _, val = tr.minimize_action_fixed(problem, steps=400, seed=child_seed(cfg["seed"], 4))
    _, _, path = mag.mag_extremal(m0, mT, T)
    ext = tr.TrajectoryGrid(T=T, steps=400, values=path(np.linspace(0, T, 401)))
    ea = tr.action_integral(model, ext)
    ok = abs(rate - val) <= 0.05 and abs(val - ea) <= 1e-4
    return _result(4, "magnetization-ldp-vs-action", ok,
                   f"|oracle-rate - action| {abs(rate - val):.4f} (tol 0.05); "
                   f"|minimizer - extremal| {abs(val - ea):.2e} (tol 1e-04)", t0)


def criterion_5(cfg, workers=1):
    """Exact tilted-generator identity on randomized instances."""
    t0 = time.time()
    n_inst = cfg["c5_instances"]
    worst = 0.0
    for i in range(n_inst):
        rng = rng_from(child_seed(cfg["seed"], 500 + i))
        dim, side = (1, 21) if i % 2 == 0 else (2, 9)
        config = lat.SpinConfiguration.random(dim, side, child_seed(cfg["seed"], 1000 + i))
        rates = lat.LocalRateSpec.random_table(dim, 1, child_seed(cfg["seed"], 2000 + i))
        n_sets = int(rng.integers(1, 4))
        entries = []
        for _ in range(n_sets):
            size = int(rng.integers(1, 4))
            offs = set()
            while len(offs) < size:
                o = tuple(int(x) for x in rng.integers(-3, 4, size=dim))
                offs.add(o)
            entries.append((tuple(sorted(offs)), float(rng.uniform(-0.15, 0.15))))
        f = CoefficientMap.build(dim, entries)
        lhs, rhs = lat.nonlinear_generator_exact(config, f, rates)
        worst = max(worst, abs(lhs - rhs))
    return _result(5, "nonlinear-generator-identity", worst <= 1e-12,
                   f"max |lhs - rhs| {worst:.3e} over {n_inst} instances (tol 1e-12)", t0)


def criterion_6(cfg, workers=1):
    """Finite-size error of the nonlinear generator scales like 1/sites."""
    t0 = time.time()
    f0 = CoefficientMap.basis(1, [(0,)])
    psi = lambda x: float(x[0] ** 2)
    grad = lambda x: np.array([2.0 * x[0]])
    rates = lat.LocalRateSpec.constant(1.0, 1)
    sides, diffs = cfg["c6_sides"], []
    for side in sides:
        config = lat.SpinConfiguration.all_plus(1, side)
        fin, lim = lat.nonlinear_generator_general(config, psi, grad, [f0], rates)
        diffs.append(abs(fin - lim))
    slope = float(np.polyfit(np.log(sides), np.log(diffs), 1)[0])
    ok = -1.2 <= slope <= -0.8
    return _result(6, "finite-size-scaling", ok,
                   f"log-log slope {slope:.3f} (target -1 +- 0.2)", t0)


def criterion_7(cfg, workers=1):
    """Strong duality on random jump models plus the documented mass gap."""
    t0 = time.time()
    worst = 0.0
    for i in range(cfg["c7_models"]):
        rng = rng_from(child_seed(cfg["seed"], 700 + i))
        n = int(rng.integers(2, 7))
        D = rng.uniform(0.0, 2.0, (n, n))
        np.fill_diagonal(D, 0.0)
        D -= np.diag(D.sum(axis=1))
        c = rng.uniform(0.3, 3.0, n)
        mu = np.maximum(rng.dirichlet(np.full(n, 2.0)), 1e-3)
        mu /= mu.sum()
        model = fj.JumpModel(D, c, mu)
        alpha = D.T @ rng.uniform(0.1, 2.0, n)
        v = fj.fj_lagrangian_variational(model, alpha)
        d, _ = fj.fj_lagrangian_dual(model, alpha)
        worst = max(worst, abs(v - d))
    counter = fj.JumpModel(np.array([[-2.0, 2.0], [2.0, -2.0]]), np.ones(2),
                           np.array([0.75, 0.25]))
    var = fj.fj_lagrangian_variational(counter, np.zeros(2))
    closed = fj.fj_paper_closed_form(counter, np.zeros(2))
    mass_gap = closed - var
    two_state = abs(var - mag.mag_lagrangian(0.5, 0.0))
    ok = worst <= 1e-7 and mass_gap > 0.009 and two_state <= 1e-8
    return _result(7, "finite-dim-strong-duality", ok,
                   f"max |variational - dual| {worst:.2e} (tol 1e-07); "
                   f"closed-form excess {mass_gap:.4f} (> 0.009); "
                   f"2-state vs magnetization {two_state:.1e} (tol 1e-08)", t0)


def criterion_8(cfg, workers=1):
    """Hamilton flow: energy conservation, momentum growth, drift recovery."""
    t0 = time.time()
    res = tr.hamilton_flow_integrate(mag.mag_hamilton_rhs, 0.0, 0.1, 1.0, 1e-4,
                                     hamiltonian=mag.mag_hamiltonian)
    ratio_err = abs(math.tanh(res.p[-1]) / math.tanh(0.1) - math.exp(2.0))
    res0 = tr.hamilton_flow_integrate(mag.mag_hamilton_rhs, 0.7, 0.0, 1.0, 1e-4,
                                      hamiltonian=mag.mag_hamiltonian)
    drift_err = float(np.max(np.abs(res0.m - 0.7 * np.exp(-2.0 * res0.times))))
    ok = res.energy_drift <= 1e-8 and ratio_err <= 1e-6 and drift_err <= 1e-8
    return _result(8, "hamilton-flow", ok,
                   f"energy drift {res.energy_drift:.2e} (tol 1e-08); "
                   f"tanh growth err {ratio_err:.2e} (tol 1e-06); "
                   f"p0=0 drift err {drift_err:.2e} (tol 1e-08)", t0)


def criterion_9(cfg, workers=1):
    """Constrained-pressure derivative identity plus a Monte Carlo check of
    the exact dynamics sampler behind it."""
    t0 = time.time()

    def d_dt0(lam, m):
        h = 1e-4
        f = lambda t: mag.mag_constrained_pressure(lam, m, t)
        return (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)

    worst = 0.0
    for lam in np.arange(-2.0, 2.01, 0.25):
        for m in np.arange(-0.9, 0.91, 0.1):
            worst = max(worst, abs(d_dt0(float(lam), float(m)) -
                                   mag.mag_hamiltonian(float(m), float(lam))))
    # Each spin's flip count over [0, t] is Poisson(t) and its parity decides
    # its sign at t, so S = sum_i s_i(t) has mean (2 n_up - N) e^{-2t} and
    # variance N (1 - e^{-4t}).  The sample mean of S is z-tested against
    # both; it is unbiased, where a log-mean-exp estimate of the pressure
    # (1/N) log E e^{lam S} is not.
    n, n_up, t, replicas = 200, 150, 0.5, cfg["c9_replicas"]
    flips = rng_from(child_seed(cfg["seed"], 9)).poisson(t, size=(replicas, n))
    signs = np.where(flips % 2 == 0, 1.0, -1.0)
    signs[:, n_up:] *= -1.0  # spins n_up..n-1 start down
    mean, exact = float(signs.sum(axis=1).mean()), (2 * n_up - n) * math.exp(-2.0 * t)
    z = (mean - exact) / math.sqrt(-n * math.expm1(-4.0 * t) / replicas)
    ok = worst <= 1e-6 and abs(z) <= 3.0
    return _result(9, "constrained-pressure", ok,
                   f"max derivative mismatch {worst:.2e} (tol 1e-06); "
                   f"MC mean magnetization sum {mean:.4f} vs exact {exact:.4f}: "
                   f"|z| {abs(z):.2f} (<= 3)", t0)


def criterion_10(cfg, workers=1):
    """Badness phase behavior: double-well crossover and convex-I emptiness."""
    t0 = time.time()
    T_grid = np.logspace(math.log10(0.05), math.log10(3.0), cfg["c10_T_points"])
    column = bd.badness_scan(
        "double_well", (1.5,), T_grid, [0.0],
        epsilon=0.1, delta=0.05,
        opts=bd.SolverOpts(), master_seed=cfg["seed"], workers=workers,
    )
    flags = [c.bad for c in column]
    crossings = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    column_ok = (not flags[0]) and flags[-1] and crossings == 1
    # (plus, minus) last-level selections at T = 3; () for an error cell
    branches = column[-1].branch_selection
    branch_ok = len(branches) == 2 and branches[0] > 0 > branches[1]

    scan = bd.badness_scan(
        "bernoulli", (0.5,),
        np.logspace(math.log10(0.05), math.log10(5.0), cfg["c10_scan_points"]),
        np.linspace(-0.9, 0.9, cfg["c10_scan_points"]),
        epsilon=0.1, delta=0.05,
        opts=bd.SolverOpts(min_steps=80, max_iter=600),
        master_seed=cfg["seed"], workers=workers,
    )
    errors = sum(1 for c in scan if c.error)
    n_bad = sum(c.bad for c in scan)
    scan_ok = n_bad == 0 and errors == 0
    ok = column_ok and bool(branch_ok) and scan_ok
    return _result(10, "badness-phase", ok,
                   f"double-well column: bad(T=0.05)={flags[0]}, bad(T=3)={flags[-1]}, "
                   f"crossovers={crossings}; branch signs opposite: {branch_ok}; "
                   f"bernoulli scan bad cells {n_bad}/{len(scan)} "
                   f"(errors {errors})", t0)


def criterion_11(cfg, workers=1):
    """Lattice law of large numbers: moment decay e^{-2|A|t} within 3 SE."""
    t0 = time.time()
    times = [0.1, 0.5, 1.0]
    arr = lat.moment_series(
        1, cfg["c11_side"], lat.LocalRateSpec.constant(1.0, 1),
        times, [[(0,)], [(0,), (1,)]],
        replicas=cfg["c11_replicas"], master_seed=derived_int(cfg["seed"], 11),
        workers=workers,
    )
    mean = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    ok = True
    worst_z = 0.0
    for ti, t in enumerate(times):
        for oi, aa in enumerate((1, 2)):
            z = abs(mean[ti, oi] - math.exp(-2 * aa * t)) / max(se[ti, oi], 1e-12)
            worst_z = max(worst_z, z)
            ok = ok and z <= 3.0
    return _result(11, "lattice-lln", ok,
                   f"max |mean - exp(-2|A|t)| / se = {worst_z:.2f} (<= 3) over "
                   f"{arr.shape[0]} replicas", t0)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}
