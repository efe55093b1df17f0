"""Bad endpoints: optimal histories that jump with the conditioning.

Given a static initial rate function I and an endpoint (mT, T), the total
cost of a history starting at m' is I(m') + K_T(m', mT) with K_T the
fixed-endpoint action infimum.  An endpoint is bad when the optimal start,
given the end, is discontinuous there: the selections at mT + delta 2^-n
and mT - delta 2^-n stay apart as n grows instead of closing in.  is_bad
reads the selections off K_T's closed form (mag_endpoint_rate) on a grid
of starts and decides from them alone.  M*, the set of minimizing starts
at mT itself, comes from one open-start CG solve of the discretized action
(optimal_initials); it is evidence for the scan's CSV and the input of
nature_nurture_classify, never of a verdict.

Nature/nurture: a minimizer is "nature" when its start is closer to the
zero-cost preimage of the endpoint (pay the static cost, ride the drift)
than to the typical set argmin I, and "nurture" in the opposite case; a
10% dead band relative to the anchor separation avoids label flapping near
the crossover.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import SpinLDPError
from .magnetization import mag_endpoint_rate, mag_model
from .rate_functions import RateFunctionSpec, bernoulli_rate, double_well_rate, tabulated_rate
from .seeding import child_seed, ordered_map
from .trajectory import (
    ActionProblem,
    FixedStart,
    OpenStart,
    minimize_action_fixed,
    minimize_action_open_start,
)

__all__ = [
    "SolverOpts",
    "transition_cost",
    "optimal_initials",
    "is_bad",
    "nature_nurture_classify",
    "badness_scan",
    "rate_function_from_descriptor",
]

# is_bad selects a branch at each perturbed endpoint mT +- delta 2^-n, n < _N_LEVELS,
# as the argmin of I + K_T over the starts _M_GRID.
_N_LEVELS = 5
_M_GRID = np.linspace(-1.0, 1.0, 4001)
# is_bad's gap g_n between its two selections shrinks by a factor 1/2 per level
# where the selection is continuous, and by 2^(-1/5) = 0.871 where it is steepest
# (it grows like mT^(1/5) at beta = 3/2, T = log(3)/4); across a jump it stays.
_JUMP_RATIO = 0.9
# nature_nurture_classify's tie band, relative to the anchor separation.
_DEAD_BAND = 0.10


@dataclass(frozen=True)
class SolverOpts:
    """Resolution/budget bundle passed through to the trajectory solvers; its
    defaults are scan-bad's, and criterion 10 reads them from here too."""

    dt_target: float = 0.02
    min_steps: int = 100
    max_iter: int = 800
    gtol: float = 1e-8
    seed: object = 0

    def steps_for(self, T: float) -> int:
        return max(self.min_steps, int(math.ceil(T / self.dt_target)))


def _real(x) -> float:
    """x as a float; float() and np.asarray would run "0.5" as 0.5 and true as 1.0."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"expected a number, got {x!r}")
    return float(x)


def rate_function_from_descriptor(kind: str, params) -> RateFunctionSpec:
    """The rate function of a (kind, params) descriptor; ValueError, its
    message led by the field at fault ("kind:" or "params:"), for an unknown
    kind, a params list of the wrong length, or params the kind's
    constructor rejects (non-numeric entries included)."""
    n_params = {"bernoulli": 1, "double_well": 1, "tabulated": 2}.get(kind)
    if n_params is None:
        raise ValueError(f"kind: unknown rate function kind {kind!r}")
    if len(params) != n_params:
        raise ValueError(f"params: {kind} needs a list of {n_params}, got {len(params)}")
    try:
        if kind == "bernoulli":
            return bernoulli_rate(_real(params[0]))
        if kind == "double_well":
            return double_well_rate(_real(params[0]))
        return tabulated_rate([_real(x) for x in params[0]], [_real(x) for x in params[1]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"params: {kind}: {exc}") from exc


def transition_cost(model, m_start: float, m_end: float, T: float, opts: SolverOpts = SolverOpts()) -> float:
    """K_T(m_start, m_end): fixed-endpoint action infimum."""
    problem = ActionProblem(model, FixedStart(m_start), m_end, T)
    _, value = minimize_action_fixed(
        problem, steps=opts.steps_for(T), seed=opts.seed,
        max_iter=opts.max_iter, gtol=opts.gtol,
    )
    return value


def optimal_initials(I: RateFunctionSpec, mT: float, T: float, opts: SolverOpts = SolverOpts()):
    """The cluster set M* of minimizers of m' -> I(m') + K_T(m', mT).

    Returns minimize_action_open_start's list of OpenMinimizer records,
    sorted by value (global minimum first).
    """
    problem = ActionProblem(mag_model(), OpenStart(I), mT, T)
    _, _, cluster = minimize_action_open_start(
        problem, steps=opts.steps_for(T), seed=opts.seed,
        max_iter=opts.max_iter, gtol=opts.gtol,
    )
    return cluster


def _branch_start(total: np.ndarray) -> float:
    """The start on _M_GRID minimizing total, refined by the parabola
    through the grid minimum and its two neighbours."""
    i = int(np.argmin(total))
    if 0 < i < len(total) - 1:
        lo, mid, hi = total[i - 1], total[i], total[i + 1]
        curv = lo - 2.0 * mid + hi
        if curv > 0:
            h = _M_GRID[1] - _M_GRID[0]
            return float(_M_GRID[i] + 0.5 * h * (lo - hi) / curv)
    return float(_M_GRID[i])


def is_bad(I: RateFunctionSpec, mT: float, T: float, epsilon: float, delta: float):
    """Refinement-ladder detector of a jump in the optimal start.

    At the perturbed endpoints e = mT + delta 2^-n and mT - delta 2^-n,
    n = 0.._N_LEVELS-1, the selected start is the global minimizer of
    m' -> I(m') + K_T(m', e), with K_T the closed-form continuum endpoint
    rate mag_endpoint_rate: the argmin over the fixed grid _M_GRID, refined
    by a three-point parabola.  I is evaluated once, on that grid.  The
    selections are recorded in diagnostics["plus_branch"] and
    ["minus_branch"], and their gaps g_n = |plus_n - minus_n| in ["gaps"].
    A continuous selection halves g_n at each level; a jump keeps it.  So
    the endpoint is bad iff the last gap exceeds epsilon and shrank by less
    than _JUMP_RATIO over the last level.  An endpoint outside [-1, 1]
    raises PathLeavesDomain.  Returns (flag, diagnostics).
    """
    static = np.asarray(I.evaluator(_M_GRID), dtype=float)
    diag = {"plus_branch": [], "minus_branch": []}
    for n in range(_N_LEVELS):
        for sign, key in ((+1.0, "plus_branch"), (-1.0, "minus_branch")):
            end = mT + sign * (delta * 2.0**-n)
            diag[key].append(_branch_start(static + mag_endpoint_rate(_M_GRID, end, T)))
    gaps = [abs(p - m) for p, m in zip(diag["plus_branch"], diag["minus_branch"])]
    diag["gaps"] = gaps
    return bool(gaps[-1] > epsilon and gaps[-1] > _JUMP_RATIO * gaps[-2]), diag


def nature_nurture_classify(I: RateFunctionSpec, mT: float, T: float, minimizers):
    """Per-minimizer nature/nurture labels plus an aggregate, for the
    caller's M*(mT) (optimal_initials' cluster set).

    nature: the start serves the conditioning (close to the zero-cost
    preimage flow(mT, -T)); nurture: the start is typical for I (close to
    argmin I).  Ties within _DEAD_BAND * anchor separation are 'mixed'.
    Returns (label, records) with records of
    (gamma0, label, d_nature, d_nurture).
    """
    anchor = float(mag_model().flow(mT, -T))
    wells = I.minimizers
    records = []
    for m in minimizers:
        d_nat = abs(m.gamma0 - anchor)
        d_nur = min(abs(m.gamma0 - w) for w in wells)
        ref = max(abs(anchor - min(wells, key=lambda w: abs(w - anchor))), 1e-6)
        if abs(d_nat - d_nur) <= _DEAD_BAND * ref:
            label = "mixed"
        elif d_nat < d_nur:
            label = "nature"
        else:
            label = "nurture"
        records.append((m.gamma0, label, d_nat, d_nur))
    labels = {r[1] for r in records}
    aggregate = labels.pop() if len(labels) == 1 else "mixed"
    return aggregate, records


@dataclass(frozen=True)
class ScanCell:
    T: float
    mT: float
    n_minimizers: int
    gamma0_list: tuple
    cost: float
    bad: bool
    label: str
    d_nature: float
    d_nurture: float
    branch_selection: tuple = ()  # is_bad's last (plus, minus) selections; () in an error cell
    error: str = ""


def _scan_cell(args):
    (kind, params, T, mT, epsilon, delta, opts, master_seed, index) = args
    I = rate_function_from_descriptor(kind, params)
    opts = replace(opts, seed=child_seed(master_seed, index))
    try:
        bad, diag = is_bad(I, mT, T, epsilon, delta)
        mins = optimal_initials(I, mT, T, opts=opts)
        label, records = nature_nurture_classify(I, mT, T, mins)
        best = records[0]
        cell = ScanCell(
            T=T, mT=mT, n_minimizers=len(mins),
            gamma0_list=tuple(m.gamma0 for m in mins),
            cost=mins[0].value, bad=bad, label=label,
            d_nature=best[2], d_nurture=best[3],
            branch_selection=(diag["plus_branch"][-1], diag["minus_branch"][-1]),
        )
    except SpinLDPError as exc:
        cell = ScanCell(
            T=T, mT=mT, n_minimizers=0, gamma0_list=(), cost=math.nan,
            bad=False, label="", d_nature=math.nan, d_nurture=math.nan,
            error=type(exc).__name__,
        )
    return cell


def badness_scan(
    I_kind: str,
    I_params,
    T_grid: Sequence[float],
    mT_grid: Sequence[float],
    epsilon: float,
    delta: float,
    opts: SolverOpts = SolverOpts(),
    master_seed: int = 0,
    workers: int = 1,
) -> tuple:
    """Phase-diagram harness: the ScanCell of every (T, mT), T-major.

    Cells are seeded by (master_seed, cell index) and assembled in index
    order, so the result is identical for any worker count.  Per-cell
    errors are recorded in the cell, never aborting the scan.  epsilon and
    delta go to is_bad; scan-bad's config supplies their defaults.
    """
    jobs = []
    idx = 0
    for T in T_grid:
        for mT in mT_grid:
            jobs.append((I_kind, tuple(I_params), float(T), float(mT),
                         epsilon, delta, opts, master_seed, idx))
            idx += 1
    return tuple(ordered_map(_scan_cell, jobs, workers))
