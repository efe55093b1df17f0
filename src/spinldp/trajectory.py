"""Discretized action functionals and optimal-trajectory solvers.

The action of a path gamma on [0, T] sampled at n+1 uniform nodes is

    A = dt * sum_i L(gamma_i, (gamma_{i+1} - gamma_i)/dt),   i = 0..n-1,

forward-difference velocities with the state at the left node.  This makes
the discrete action exactly additive over sub-intervals, which the segment
additivity checks rely on.

Every solve is multi-start, and every line search rejects candidate steps
with infinite integrands, never averages them, so domain boundaries act as
hard feasibility walls.

A fixed start is solved by damped Newton.  Node k of the forward-difference
action only meets nodes k-1 and k+1, so the Hessian over the free nodes is
tridiagonal: it is built from central differences of the model's analytic
partials and solved by a Thomas sweep in O(steps).  Newton reaches gtol in
about ten Armijo-backtracked iterations, where a first-order method needs
O(steps) of them, the Hessian's conditioning growing like steps^2.  Near
the optimum the predicted decrease falls below the value's round-off; a run
then keeps a step only if it shrinks max|g|, and otherwise stops on
round-off.

An open start is solved by Polak-Ribiere conjugate gradient with the same
Armijo backtracking, on the same objective with a free first node and the
static cost added.  That solver is a generator that yields each point it
needs evaluated, and one loop (_lockstep) advances every start profile of
a solve in lockstep, with one objective call per round on a (rows x nodes)
batch.  The model's evaluator is elementwise, so every row's result equals
its solve alone bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .seeding import rng_from
from .errors import DomainExit, NoFeasiblePath, PathLeavesDomain, SolverNotConverged

__all__ = [
    "TrajectoryGrid",
    "LagrangianModel",
    "FixedStart",
    "OpenStart",
    "ActionProblem",
    "action_integral",
    "minimize_action_fixed",
    "minimize_action_open_start",
    "euler_lagrange_residual",
    "hamilton_flow_integrate",
]

# _cg_minimize counts a step as a stall when it gains at most _FTOL * (1 + |f|);
# _newton_minimize stops ranking its trial points by value once it predicts no more than that.
_FTOL = 1e-14
# _newton_minimize's line search gives up after this many trial points.
_LS_TRIES = 70
# _clip_domain keeps profiles this far inside a finite domain edge.
_DOMAIN_MARGIN = 1e-9
# minimize_action_open_start's cluster set: minimizers within _CLUSTER_VALUE
# of the global minimum whose starts are more than _CLUSTER_GAMMA0 apart.
_CLUSTER_GAMMA0 = 1e-3
_CLUSTER_VALUE = 1e-5
# hamilton_flow_integrate raises DomainExit when the state leaves this interval.
_FLOW_DOMAIN = (-1.0, 1.0)


@dataclass(frozen=True)
class TrajectoryGrid:
    """Uniformly time-sampled path on [0, T] with steps+1 values."""

    T: float
    steps: int
    values: np.ndarray

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("T must be > 0")
        if self.steps < 1 or len(self.values) != self.steps + 1:
            raise ValueError("values must have steps+1 entries")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)


@dataclass(frozen=True)
class LagrangianModel:
    """Scalar-state model with one vectorized evaluator.

    value_and_partials(x, v) returns (L, dL/dx, dL/dv) as arrays of the
    broadcast shape; L may be +inf for infeasible velocities.  flow(x, dt)
    is the deterministic zero-cost evolution (negative dt runs it backward),
    used only to seed multi-start profiles.
    """

    value_and_partials: Callable
    domain: tuple[float, float] = (-math.inf, math.inf)
    flow: Optional[Callable] = None
    drift: Optional[Callable] = None
    extremal: Optional[Callable] = None


@dataclass(frozen=True)
class FixedStart:
    m0: float


@dataclass(frozen=True)
class OpenStart:
    """Free initial point weighted by a static rate function.

    rate_function must expose evaluator(x), derivative(x) and a tuple
    minimizers of global minima (used to seed starts).
    """

    rate_function: object


@dataclass(frozen=True)
class ActionProblem:
    """Minimize the action from start to end over [0, horizon].

    Raises PathLeavesDomain when end, or a fixed start, lies outside
    model.domain: a path there is never evaluated at that point.
    """

    model: LagrangianModel
    start: FixedStart | OpenStart
    end: float
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        lo, hi = self.model.domain
        ends = [("end", self.end)]
        if isinstance(self.start, FixedStart):
            ends.append(("start", self.start.m0))
        for name, x in ends:
            if not lo <= x <= hi:
                raise PathLeavesDomain(f"{name} {x!r} lies outside the domain [{lo}, {hi}]")
        if self.model.drift is not None:
            probe_lo = max(lo, -1.0) if math.isfinite(lo) else -1.0
            probe_hi = min(hi, 1.0) if math.isfinite(hi) else 1.0
            xs = np.linspace(probe_lo + 1e-6, probe_hi - 1e-6, 7)
            cost = np.asarray(self.model.value_and_partials(xs, self.model.drift(xs))[0])
            if np.any(cost < -1e-9):
                raise ValueError("Lagrangian negative along the drift")


def action_integral(model: LagrangianModel, traj: TrajectoryGrid) -> float:
    """Composite quadrature of L along the grid; +inf if any integrand is."""
    x = traj.values[:-1]
    v = np.diff(traj.values) / traj.dt
    integrand = np.asarray(model.value_and_partials(x, v)[0], dtype=float)
    if not np.isfinite(integrand).all():
        return math.inf
    return float(traj.dt * np.sum(integrand))


def _line_search(x, f, g, d, gTd, a_init):
    """Armijo backtracking with quadratic interpolation and one vertex polish.

    A generator: it yields each trial point and is sent back its
    (value, gradient).  Infinite trial values shrink the step
    (feasible-region handling).  Returns (a, x_new, f_new, g_new) or None.
    """
    a = a_init
    f_try, g_try = yield x + a * d
    tries = 0
    while tries < 70 and (math.isinf(f_try) or f_try > f + 1e-4 * a * gTd):
        if math.isinf(f_try):
            a *= 0.5
        else:
            # vertex of the parabola through f(0), f'(0), f(a)
            denom = 2.0 * (f_try - f - gTd * a)
            a_q = -gTd * a * a / denom if denom > 0 else 0.5 * a
            a = min(max(a_q, 0.1 * a), 0.5 * a)
        f_try, g_try = yield x + a * d
        tries += 1
    if math.isinf(f_try) or f_try > f + 1e-4 * a * gTd:
        return None
    # one interpolation polish toward the 1-d minimum (near-exact on quadratics)
    denom = 2.0 * (f_try - f - gTd * a)
    if denom > 0:
        a_q = -gTd * a * a / denom
        if 0.0 < a_q:
            f_q, g_q = yield x + a_q * d
            if not math.isinf(f_q) and f_q < f_try:
                a, f_try, g_try = a_q, f_q, g_q
    return a, x + a * d, f_try, g_try


def _cg_minimize(x0, max_iter, gtol):
    """Polak-Ribiere CG with interpolating line search; +inf is a hard wall.

    A generator like _line_search: it yields every point it needs evaluated
    and is sent back (value, gradient); _lockstep drives it.  Returns
    (x, f), or None when x0 itself is infeasible.
    """
    x = np.array(x0, dtype=float)
    f, g = yield x
    if math.isinf(f):
        return None
    d = -g
    n = len(x)
    f_prev = None
    alpha = None
    stall = 0
    restarted = False
    for it in range(max_iter):
        gTd = float(g @ d)
        if gTd >= 0.0:
            d = -g
            gTd = float(g @ d)
            if gTd >= 0.0:
                break
        if f_prev is not None and gTd < 0:
            a0 = min(1.0, 2.02 * (f_prev - f) / (-gTd)) if f_prev > f else (alpha or 1.0)
            a0 = a0 if a0 > 0 else 1.0
        else:
            a0 = 1.0 / (1.0 + float(np.abs(g).max()))
        ls = yield from _line_search(x, f, g, d, gTd, a0)
        if ls is None:
            if restarted:
                break
            d = -g
            restarted = True
            continue
        alpha, x_new, f_new, g_new = ls
        beta = max(0.0, float(g_new @ (g_new - g)) / max(float(g @ g), 1e-300))
        if (it + 1) % max(n, 10) == 0:
            beta = 0.0
        d = -g_new + beta * d
        progress = f - f_new
        f_prev = f
        x, f, g = x_new, f_new, g_new
        if float(np.abs(g).max()) <= gtol:
            break
        if progress <= _FTOL * (1.0 + abs(f)):
            stall += 1
            if stall >= 3:
                if restarted:
                    break
                d = -g
                restarted = True
                stall = 0
        else:
            stall = 0
            restarted = False
    return x, f


def _lockstep(fun_grad, starts, max_iter, gtol):
    """One _cg_minimize per row of starts, all advanced in lockstep.

    Each round stacks the pending point of every live solver into one
    (rows x nodes) array, makes one fun_grad(points) call and sends
    each solver its row.  A solver's arithmetic only ever sees its own rows,
    so every result equals the solve of that row alone.  Returns the
    _cg_minimize results in row order.
    """
    solvers = [_cg_minimize(z, max_iter, gtol) for z in starts]
    points = [next(s) for s in solvers]
    results = [None] * len(solvers)
    live = list(range(len(solvers)))
    while live:
        values, grads = fun_grad(np.array([points[i] for i in live]))
        still = []
        for i, f, g in zip(live, values, grads):
            try:
                points[i] = solvers[i].send((f, g))
                still.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        live = still
    return results


def _clip_domain(vals, domain):
    lo, hi = domain
    lo = lo + _DOMAIN_MARGIN if math.isfinite(lo) else lo
    hi = hi - _DOMAIN_MARGIN if math.isfinite(hi) else hi
    return np.clip(vals, lo, hi)


def _pinned(profile, domain, start, end):
    """The profile clipped into the domain, with its end nodes set to start and end."""
    p = _clip_domain(np.asarray(profile, float), domain)
    p[0], p[-1] = start, end
    return p


def _jitter(base, domain, rng):
    """base plus a smooth random bump that vanishes at both ends.

    The bump peaks at 5% of the domain span (0.05 on an unbounded domain).
    """
    lo, hi = domain
    span = hi - lo if math.isfinite(lo) and math.isfinite(hi) else 1.0
    noise = np.cumsum(rng.standard_normal(len(base)))
    noise -= np.linspace(noise[0], noise[-1], len(base))
    peak = np.max(np.abs(noise))
    return base + (noise * (0.05 * span / peak) if peak > 0 else noise)


def _drift_then_steer(model, start, end, t, T):
    """Ride the zero-cost flow from start for 70% of the horizon, then ramp into end."""
    switch = 0.7 * T
    drift_part = np.asarray(model.flow(start, np.minimum(t, switch)))
    ramp = np.where(t > switch, (t - switch) / (T - switch), 0.0)
    return drift_part * (1 - ramp) + end * ramp


def _start_profiles(model, start, mT, T, steps, rng):
    """Multi-start seeds, each clipped into the domain and pinned at both ends.

    Fixed start m0: linear, drift-then-steer, steer-then-drift, three
    jitters of the linear profile, and the closed-form extremal when the
    model has one inside the domain.  Open start: one drift-then-steer
    profile per start candidate (the minimizers of I, the zero-cost preimage
    of mT, mT itself), a linear profile for the first two, and one jitter of
    the first profile: the badness scans need the coexisting basins found,
    not an exhaustive profile sweep per basin.
    """
    t = np.linspace(0.0, T, steps + 1)
    domain = model.domain
    if isinstance(start, FixedStart):
        m0 = start.m0
        raw = [np.linspace(m0, mT, steps + 1)]
        if model.flow is not None:
            raw.append(_drift_then_steer(model, m0, mT, t, T))
            z = float(np.clip(model.flow(mT, -(0.7 * T)), *domain))
            arrive = np.asarray(model.flow(z, np.maximum(t - 0.3 * T, 0.0)))
            ramp0 = np.where(t < 0.3 * T, 1.0 - t / (0.3 * T), 0.0)
            raw.append(m0 * ramp0 + arrive * (1 - ramp0))
        raw += [_jitter(raw[0], domain, rng) for _ in range(3)]
        if model.extremal is not None:
            try:
                raw.append(model.extremal(m0, mT, T)[2](t))
            except PathLeavesDomain:
                pass
        return [_pinned(p, domain, m0, mT) for p in raw]

    rate = start.rate_function
    g0_candidates = list(getattr(rate, "minimizers", ()) or ())
    if model.flow is not None:
        g0_candidates.append(float(np.clip(model.flow(mT, -T), *domain)))
    g0_candidates.append(mT)
    starts = []
    for g in g0_candidates:
        g = float(_clip_domain(np.asarray(g), domain))
        if all(abs(g - h) > 1e-9 for h in starts):
            starts.append(g)
    out = []
    for i, g0 in enumerate(starts):
        linear = np.linspace(g0, mT, steps + 1)
        first = _drift_then_steer(model, g0, mT, t, T) if model.flow is not None else linear
        out.append(_pinned(first, domain, g0, mT))
        if i < 2:
            out.append(_pinned(linear, domain, g0, mT))
    out.append(_pinned(_jitter(out[0], domain, rng), domain, starts[0], mT))
    return out


def _objective(value_and_partials, dt, head, rate, end):
    """fun_grad(Z) -> (values, gradients) over a batch of paths.

    Row i is the path head + Z[i] + [end], and its value and gradient
    over the free nodes Z[i] are those of that path alone.  A fixed start
    passes head = [m0], a pinned first node, and rate = None.  An open start
    passes an empty head, so each row starts with its free first node, whose
    static cost rate.evaluator is added to the action.  Any infinite or NaN
    integrand, or an infinite static cost, makes the row's value +inf (the
    solver then never reads its gradient).  values is a list of floats,
    gradients a (rows x free nodes) array.

    value_and_partials is called once on the (rows x nodes) batch; it must
    be elementwise, so row i equals the 1-d call on row i bit for bit.
    rate.evaluator and rate.derivative are called with one Python float per
    row, the first node, and must return a float (or a NumPy scalar); the
    built-in rate functions are defined on that float.
    """
    head = np.asarray(head, dtype=float)
    h = len(head)

    def fun_grad(Z):
        rows = len(Z)
        full = np.empty((rows, h + Z.shape[1] + 1))
        full[:, :h] = head
        full[:, h:-1] = Z
        full[:, -1] = end
        x = full[:, :-1]
        integ, gx, gv = value_and_partials(x, (full[:, 1:] - x) / dt)
        ok = np.isfinite(integ).all(axis=1)
        if not ok.all():
            # zero the infeasible rows so no inf - inf reaches the arithmetic
            keep = ok[:, None]
            integ, gx, gv = (np.where(keep, a, 0.0) for a in (integ, gx, gv))
        actions = (dt * integ.sum(axis=1)).tolist()
        # node i >= 1: dt * L_x(i) + L_v(i-1) - L_v(i), in that order
        grad = dt * gx
        grad[:, 1:] += gv[:, :-1]
        grad -= gv
        if rate is None:
            return [a if k else math.inf for a, k in zip(actions, ok)], grad[:, 1:]
        values, first = [], []
        for x0, a, k, gx0, gv0 in zip(full[:, 0].tolist(), actions, ok.tolist(),
                                      gx[:, 0].tolist(), gv[:, 0].tolist()):
            i0 = float(rate.evaluator(x0))
            if k and not math.isinf(i0):
                values.append(i0 + a)
                first.append(float(rate.derivative(x0)) + dt * gx0 - gv0)
            else:
                values.append(math.inf)
                first.append(0.0)
        grad[:, 0] = first
        return values, grad

    return fun_grad


def _newton_direction(value_and_partials, path, dt, g):
    """The Newton step -H^{-1} g on the free nodes of a pinned path, or None.

    H is the tridiagonal Hessian of A = dt * sum_i L(x_i, (x_{i+1} - x_i)/dt):
    H_kk = dt L_xx(k) - 2 L_xv(k) + (L_vv(k) + L_vv(k-1))/dt and
    H_k,k+1 = L_xv(k) - L_vv(k)/dt.  The second partials are central
    differences of the model's analytic partials, with
    euler_lagrange_residual's steps, from one evaluator call on a
    (4 x nodes) stack; L_xv averages the two mixed differences.  A Thomas
    (LDL^T) sweep in Python floats solves H; None when some pivot is not a
    finite positive number, which is also where some entry of H is not
    finite (a stencil that left the domain).
    """
    x = path[:-1]
    v = (path[1:] - x) / dt
    hx = 1e-6 * (1.0 + np.abs(x))
    hv = 1e-6 * (1.0 + np.abs(v))
    _, lx, lv = value_and_partials(np.stack([x + hx, x - hx, x, x]),
                                   np.stack([v, v, v + hv, v - hv]))
    with np.errstate(invalid="ignore", over="ignore"):
        lxx = (lx[0] - lx[1]) / (2.0 * hx)
        lvv = (lv[2] - lv[3]) / (2.0 * hv)
        lxv = 0.5 * ((lx[2] - lx[3]) / (2.0 * hv) + (lv[0] - lv[1]) / (2.0 * hx))
        diag = (dt * lxx[1:] - 2.0 * lxv[1:] + (lvv[1:] + lvv[:-1]) / dt).tolist()
        off = (lxv[1:-1] - lvv[1:-1] / dt).tolist()
    y = (-g).tolist()
    ratio = [0.0] * len(off)
    piv = diag[0]
    if not 0.0 < piv < math.inf:
        return None
    y[0] /= piv
    for k, (b, e) in enumerate(zip(off, diag[1:])):
        ratio[k] = b / piv
        piv = e - b * ratio[k]
        if not 0.0 < piv < math.inf:
            return None
        y[k + 1] = (y[k + 1] - b * y[k]) / piv
    for k in range(len(off) - 1, -1, -1):
        y[k] -= ratio[k] * y[k + 1]
    return np.array(y)


@dataclass(frozen=True)
class _NewtonRun:
    path: np.ndarray
    value: float
    stop: str
    iterations: int
    gmax: float


def _newton_minimize(value_and_partials, fun_grad, dt, path, max_iter, gtol):
    """Damped Newton on the free nodes of one pinned path; None if its action is infinite.

    Each iteration takes the tridiagonal Newton step, or the steepest-descent
    step where H is not positive definite (or not finite), and backtracks
    until Armijo holds; an infinite trial value shrinks the step.  Once the
    predicted decrease -g.d is at most _FTOL * (1 + |f|), f can no longer
    rank trial points, so the untried step is kept only if it shrinks max|g|.
    The run stops on gtol (max|g| <= gtol), on round-off (such a step did
    not shrink max|g|), on line_search (_LS_TRIES trials all failed Armijo)
    or on max_iter iterations.
    """
    def at(trial):
        values, grads = fun_grad(trial[None, 1:-1])
        return trial, values[0], grads[0]

    path, f, g = at(np.array(path, dtype=float))
    if math.isinf(f):
        return None
    it = 0
    while True:
        gmax = float(np.abs(g).max(initial=0.0))
        if gmax <= gtol:
            stop = "gtol"
            break
        if it == max_iter:
            stop = "max_iter"
            break
        d = _newton_direction(value_and_partials, path, dt, g)
        a = 1.0
        if d is None or not float(g @ d) < 0.0:
            d, a = -g, 1.0 / (1.0 + gmax)
        gTd = float(g @ d)
        noise = _FTOL * (1.0 + abs(f))
        step = np.zeros_like(path)
        step[1:-1] = d
        if -gTd <= noise:
            # f can no longer rank trial points: keep the step only if it shrinks max|g|
            trial, f_try, g_try = at(path + a * step)
            if not (f_try <= f + noise and float(np.abs(g_try).max()) < gmax):
                stop = "round-off"
                break
        else:
            for _ in range(_LS_TRIES):
                trial, f_try, g_try = at(path + a * step)
                if f_try <= f + 1e-4 * a * gTd:
                    break
                if math.isinf(f_try):
                    a *= 0.5
                else:
                    # vertex of the parabola through f(0), f'(0), f(a)
                    denom = 2.0 * (f_try - f - gTd * a)
                    a = min(max(-gTd * a * a / denom if denom > 0 else 0.5 * a, 0.1 * a), 0.5 * a)
            else:
                stop = "line_search"
                break
        path, f, g = trial, f_try, g_try
        it += 1
    return _NewtonRun(path, f, stop, it, gmax)


def _minimize(problem, steps, seed, max_iter, gtol):
    """Multi-start open-start CG solve: every start profile is one row of one _lockstep batch.

    Returns [(path values, value)] for every start profile with finite
    action, in profile order.
    """
    model, mT, T = problem.model, problem.end, problem.horizon
    profiles = _start_profiles(model, problem.start, mT, T, steps, rng_from(seed))
    fun_grad = _objective(model.value_and_partials, T / steps, [], problem.start.rate_function, float(mT))
    results = _lockstep(fun_grad, [cand[:-1] for cand in profiles], max_iter, gtol)
    found = [(np.concatenate([res[0], [mT]]), res[1]) for res in results if res is not None]
    if not found:
        raise NoFeasiblePath("every start profile has infinite action")
    return found


def minimize_action_fixed(
    problem: ActionProblem,
    steps: int = 400,
    seed: int = 0,
    max_iter: int = 2000,
    gtol: float = 1e-9,
):
    """Local minimization over interior grid values with fixed endpoints.

    Runs _newton_minimize (at most max_iter Newton iterations) from every
    start profile.  Returns (TrajectoryGrid, value); value is the least
    finite action over the runs, whose starts include the model's closed-form
    extremal when one exists.  Raises NoFeasiblePath when every start has
    infinite action, and SolverNotConverged when no finite run stopped on
    gtol or on round-off.
    """
    if not isinstance(problem.start, FixedStart):
        raise ValueError("minimize_action_fixed needs a FixedStart problem")
    model, mT, T = problem.model, float(problem.end), problem.horizon
    dt = T / steps
    fun_grad = _objective(model.value_and_partials, dt, [problem.start.m0], None, mT)
    runs = [_newton_minimize(model.value_and_partials, fun_grad, dt, p, max_iter, gtol)
            for p in _start_profiles(model, problem.start, mT, T, steps, rng_from(seed))]
    runs = [r for r in runs if r is not None]
    if not runs:
        raise NoFeasiblePath("every start profile has infinite action")
    best = min(runs, key=lambda r: r.value)
    if not any(r.stop in ("gtol", "round-off") for r in runs):
        raise SolverNotConverged(
            f"fixed-start Newton: no start profile reached gtol {gtol:g} or round-off; the best "
            f"stopped on {best.stop} after {best.iterations} iterations with max|g| {best.gmax:.3e}")
    return TrajectoryGrid(T=T, steps=steps, values=best.path), best.value


@dataclass(frozen=True)
class OpenMinimizer:
    gamma0: float
    value: float
    traj: TrajectoryGrid
    p0: float
    transversality_residual: float


def _initial_momentum(model, traj):
    """Discrete initial momentum dL/dv at the first node.

    This is the quantity the free-start stationarity pins to I'(gamma_0);
    the match is exact up to dt*L_x (zero along drift segments) plus the
    solver's gradient tolerance.
    """
    g = traj.values
    return float(model.value_and_partials(g[0], (g[1] - g[0]) / traj.dt)[2])


def minimize_action_open_start(problem: ActionProblem, steps: int, seed, max_iter: int, gtol: float):
    """Minimize I(gamma_0) + action over the start point and interior values.

    Returns (best trajectory, best value, minimizers) where minimizers is
    the cluster set of distinct local minimizers within _CLUSTER_VALUE of the
    global minimum, with starts more than _CLUSTER_GAMMA0 apart.  Each
    reported minimizer carries its extrapolated initial momentum and the
    transversality residual |p(0) - I'(gamma_0)|, the stationarity
    condition of the free-start variation.  The seed and the CG budget
    (max_iter, gtol) are the caller's: optimal_initials passes SolverOpts'.
    """
    if not isinstance(problem.start, OpenStart):
        raise ValueError("minimize_action_open_start needs an OpenStart problem")
    T = problem.horizon
    rate = problem.start.rate_function
    mins = []
    for path, value in _minimize(problem, steps, seed, max_iter, gtol):
        traj = TrajectoryGrid(T=T, steps=steps, values=path)
        p0 = _initial_momentum(problem.model, traj)
        resid = abs(p0 - float(rate.derivative(path[0])))
        mins.append(OpenMinimizer(float(path[0]), value, traj, p0, resid))

    mins.sort(key=lambda r: r.value)
    best = mins[0]
    cluster: list[OpenMinimizer] = []
    for r in mins:
        if r.value > best.value + _CLUSTER_VALUE:
            break
        if all(abs(r.gamma0 - c.gamma0) > _CLUSTER_GAMMA0 for c in cluster):
            cluster.append(r)
    return best.traj, best.value, cluster


def euler_lagrange_residual(model: LagrangianModel, traj: TrajectoryGrid) -> float:
    """max_i |d/dt dL/dv - dL/dx| at interior nodes, all numerically.

    Velocities are centered differences; the L-derivatives are central
    finite differences of the model's values (independent of its analytic
    partials); d/dt is a centered difference of the nodewise dL/dv values.
    """

    def lag(x, v):
        return model.value_and_partials(x, v)[0]

    g = traj.values
    dt = traj.dt
    x = g[1:-1]
    v = (g[2:] - g[:-2]) / (2.0 * dt)
    hx = 1e-6 * (1.0 + np.abs(x))
    hv = 1e-6 * (1.0 + np.abs(v))
    lv = (np.asarray(lag(x, v + hv)) - np.asarray(lag(x, v - hv))) / (2.0 * hv)
    lx = (np.asarray(lag(x + hx, v)) - np.asarray(lag(x - hx, v))) / (2.0 * hx)
    dlv_dt = (lv[2:] - lv[:-2]) / (2.0 * dt)
    resid = np.abs(dlv_dt - lx[1:-1])
    resid = resid[np.isfinite(resid)]
    return float(np.max(resid)) if len(resid) else math.inf


@dataclass(frozen=True)
class FlowResult:
    times: np.ndarray
    m: np.ndarray
    p: np.ndarray
    energy_drift: float


def hamilton_flow_integrate(
    hamilton_rhs: Callable,
    m0: float,
    p0: float,
    T: float,
    dt: float,
    hamiltonian: Callable,
) -> FlowResult:
    """Classic fourth-order explicit integration of the Hamilton equations.

    Raises DomainExit when the state leaves _FLOW_DOMAIN.  The result
    carries the max |H(t) - H(0)| drift of hamiltonian along the computed
    states.
    """
    if dt > T / 100.0:
        raise ValueError("dt must be <= T/100")
    n = int(round(T / dt))
    times = np.linspace(0.0, n * dt, n + 1)
    ms = np.empty(n + 1)
    ps = np.empty(n + 1)
    ms[0], ps[0] = m0, p0
    m, p = float(m0), float(p0)
    h0 = hamiltonian(m, p)
    drift = 0.0
    for i in range(1, n + 1):
        k1m, k1p = hamilton_rhs(m, p)
        k2m, k2p = hamilton_rhs(m + 0.5 * dt * k1m, p + 0.5 * dt * k1p)
        k3m, k3p = hamilton_rhs(m + 0.5 * dt * k2m, p + 0.5 * dt * k2p)
        k4m, k4p = hamilton_rhs(m + dt * k3m, p + dt * k3p)
        m += dt * (k1m + 2 * k2m + 2 * k3m + k4m) / 6.0
        p += dt * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        if not (_FLOW_DOMAIN[0] - 1e-12 <= m <= _FLOW_DOMAIN[1] + 1e-12):
            raise DomainExit(f"state {m:.6g} left {_FLOW_DOMAIN} at t={times[i]:.6g}")
        ms[i], ps[i] = m, p
        drift = max(drift, abs(hamiltonian(m, p) - h0))
    return FlowResult(times=times, m=ms, p=ps, energy_drift=drift)
