"""One-dimensional convex conjugation and duality-gap checking.

The conjugate sup_p [slope*p - f(p)] is computed by bracket expansion,
golden-section search, and a Newton polish when a derivative evaluator is
available.  All Hamiltonian/Lagrangian pairs in this package are smooth and
strictly convex in the momentum variable, so the concave objective is
unimodal and the scheme converges to machine-level accuracy.

One kernel, _lockstep, runs the scheme for a whole batch of (state, slope)
pairs at once: every stage advances all unfinished pairs together as NumPy
arrays, each pair taking the branches and float operations it would take
alone, and a finished pair drops out.  duality_gap conjugates its whole
grid in one batch, so its families must broadcast over arrays of states and
momenta, mapping overflow to +inf.  conjugate is a batch of one, with its
scalar fn mapped over the evaluation points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonCoercive, NotConvex

# Golden-section stops when the bracket is at most ARGMAX_TOL (1 + |a| + |b|).
ARGMAX_TOL = 1e-8
# conjugate declares NonCoercive after this many bracket doublings on a side.
_MAX_DOUBLINGS = 60
# conjugate's default starting bracket, and the one duality_gap always uses.
_BRACKET = (-50.0, 50.0)
# The convexity probe's points on the bracket, and the Newton polish's step budget.
_PROBE_POINTS = 17
_NEWTON_STEPS = 40

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _safe_eval(fn, p):
    """Evaluate, mapping overflow to +inf (exponential tails are expected)."""
    try:
        v = fn(p)
    except OverflowError:
        return math.inf
    v = float(v)
    if math.isnan(v):
        return math.inf
    return v


def _mapped(fn):
    """A batch evaluator (idx, q) -> values of a scalar fn, _safe_eval
    mapped over the points q."""
    return lambda idx, q: np.array([_safe_eval(fn, v) for v in q.tolist()], dtype=float)


def _broadcast(family, states):
    """A batch evaluator (idx, q) -> family(states[idx], q) of a broadcasting
    family, NaN read as +inf like _safe_eval."""

    def ev(idx, q):
        v = np.broadcast_to(np.asarray(family(states[idx], q), dtype=float), q.shape)
        return np.where(np.isnan(v), np.inf, v)

    return ev


def _convexity_probe(f, n_states, lo, hi, where):
    """Midpoint convexity of q -> f(i, q) on _PROBE_POINTS points of [lo, hi]
    for every element i < n_states, in one evaluation; raises NotConvex
    naming where(i, q) of the first element and point at fault."""
    n = _PROBE_POINTS
    xs = lo + (hi - lo) * np.arange(n) / (n - 1)
    vals = f(np.repeat(np.arange(n_states), n), np.tile(xs, n_states)).reshape(n_states, n)
    left, mid, right = vals[:, :-2], vals[:, 1:-1], vals[:, 2:]
    with np.errstate(invalid="ignore"):
        avg = 0.5 * (left + right)
        slack = 1e-9 * (1.0 + np.abs(left) + np.abs(right))
        bad = ~(np.isinf(left) | np.isinf(right)) & (mid > avg + slack)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise NotConvex(f"midpoint convexity violated {where(i, xs[k + 1])} "
                        f"(f={mid[i, k]:.6g} > {avg[i, k]:.6g})")


def _lockstep(f, slopes, deriv, bracket, where):
    """(value, argmax) arrays of sup_p [slopes[i]*p - f(i, p)] for every i.

    f(idx, q) returns f at the elements idx and points q (arrays of one
    shape), NaN and overflow read as +inf; deriv(idx, q), when given, is its
    derivative in q, NaN read as +inf.  Every element runs conjugate's
    scheme -- bracket doublings, golden section, Newton polish -- with
    exactly the branches and float operations it would take alone; each
    stage advances all unfinished elements together and a finished element
    drops out.  Raises NonCoercive naming where(i) of the first element
    still growing after _MAX_DOUBLINGS doublings on a side.
    """
    slopes = np.asarray(slopes, dtype=float)
    n = slopes.size
    every = np.arange(n)

    def g(idx, p):
        v = f(idx, p)
        return np.where(np.isinf(v), -np.inf, slopes[idx] * p - v)

    a0, b0 = float(bracket[0]), float(bracket[1])
    a, b = np.full(n, a0), np.full(n, b0)
    m = 0.5 * (a + b)
    ga, gb, gm = np.split(g(np.tile(every, 3), np.concatenate([a, b, m])), 3)

    # Slide the bracket outward while an endpoint beats the interior point:
    # leftward first (moving end a), then rightward (moving end b), the step
    # doubling throughout; the other end takes the interior point's place.
    step = np.full(n, b0 - a0)
    ends, vals = (a, b), (ga, gb)
    for e, sign, side in ((0, -1.0, "leftward"), (1, 1.0, "rightward")):
        end, other, g_end, g_other = ends[e], ends[1 - e], vals[e], vals[1 - e]
        act = every[gm < g_end]
        doublings = 0
        while act.size:
            doublings += 1
            if doublings > _MAX_DOUBLINGS:
                raise NonCoercive(f"objective still increasing {side} after "
                                  f"{_MAX_DOUBLINGS} expansions {where(act[0])}")
            other[act], g_other[act] = m[act], gm[act]
            m[act], gm[act] = end[act], g_end[act]
            step[act] *= 2.0
            end[act] = end[act] + sign * step[act]
            g_end[act] = g(act, end[act])
            act = act[gm[act] < g_end[act]]

    # Golden section on the concave objective over [a, b].  The live
    # elements are kept compact; one that ends writes its final bracket and
    # its better probe point back by index.
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    g1, g2 = np.split(g(np.tile(every, 2), np.concatenate([x1, x2])), 2)
    lo, hi, p_star, g_star = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    live = every
    while live.size:
        going = b - a > ARGMAX_TOL * (1.0 + np.abs(a) + np.abs(b))
        if not going.all():
            stop = ~going
            ended, first = live[stop], (g1 >= g2)[stop]
            lo[ended], hi[ended] = a[stop], b[stop]
            p_star[ended] = np.where(first, x1[stop], x2[stop])
            g_star[ended] = np.where(first, g1[stop], g2[stop])
            live = live[going]
            a, b, x1, x2, g1, g2 = (arr[going] for arr in (a, b, x1, x2, g1, g2))
            continue
        up = g1 < g2
        a = np.where(up, x1, a)
        b = np.where(up, b, x2)
        w = _GOLDEN * (b - a)
        xn = np.where(up, a + w, b - w)
        gn = g(live, xn)
        x1, x2 = np.where(up, x2, xn), np.where(up, xn, x1)
        g1, g2 = np.where(up, g2, gn), np.where(up, gn, g1)
    if deriv is None:
        return g_star, p_star

    # Newton on h(p) = f'(p) - slope with a central-difference h'.  An
    # element stops at a non-positive or infinite h', at a step leaving
    # [lo - 1, hi + 1], or after a step below 1e-15 (1 + |p|); the polished
    # point replaces p_star where it scores at least as well.
    p = p_star.copy()
    live = every
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            if not live.size:
                break
            q = p[live]
            dp = 1e-6 * (1.0 + np.abs(q))
            d0, d_up, d_dn = np.split(
                deriv(np.tile(live, 3), np.concatenate([q, q + dp, q - dp])), 3)
            h = d0 - slopes[live]
            hp = (d_up - d_dn) / (2.0 * dp)
            q_new = q - h / hp
            moved = ((hp > 0.0) & ~np.isinf(hp) & ~np.isnan(q_new)
                     & (lo[live] - 1.0 <= q_new) & (q_new <= hi[live] + 1.0))
            done = np.abs(q_new - q) < 1e-15 * (1.0 + np.abs(q))
            p[live[moved]] = q_new[moved]
            live = live[moved & ~done]
    gp = g(every, p)
    take = gp >= g_star
    return np.where(take, gp, g_star), np.where(take, p, p_star)


@dataclass(frozen=True)
class ConjugateResult:
    value: float
    argmax: float


def conjugate(
    fn: Callable[[float], float],
    slope: float,
    deriv: Optional[Callable[[float], float]] = None,
    bracket: tuple[float, float] = _BRACKET,
    convexity_check: bool = True,
) -> ConjugateResult:
    """sup_p [slope*p - fn(p)] for convex fn on all of R.

    The bracket slides outward (doubling its step) on a side while the
    endpoint there still beats the interior; coercive objectives turn around
    quickly, and an objective that is still growing after _MAX_DOUBLINGS
    expansions is declared NonCoercive (supremum +inf).  Golden-section
    search then localizes the maximizer of the concave objective, followed
    by a Newton polish on fn'(p) = slope when deriv, the derivative of fn,
    is given.  This is _lockstep on a batch of one, with fn and deriv
    mapped over the points each stage evaluates.
    """
    a, b = bracket
    if not a < b:
        raise ValueError("empty bracket")
    f = _mapped(fn)
    if convexity_check:
        _convexity_probe(f, 1, a, b, lambda i, p: f"near p={p:.6g}")
    value, argmax = _lockstep(f, [slope], None if deriv is None else _mapped(deriv), bracket,
                              lambda i: f"at slope {slope:.6g}")
    return ConjugateResult(value=float(value[0]), argmax=float(argmax[0]))


def duality_gap(
    h_family: Callable,
    l_family: Callable,
    state_grid: Sequence[float],
    slope_grid: Sequence[float],
    l_deriv: Optional[Callable] = None,
) -> float:
    """max over the grid of |H(x,p) - sup_q [p q - L(x,q)]|.

    Verifies one direction of a conjugate pair; call again with the families
    swapped for the reverse direction.  l_deriv, when given, is dL/dq and
    enables the Newton polish.  Every (x, p) pair of the grid is conjugated
    in one _lockstep batch, so each family is called with two arrays of one
    shape (states, momenta) and must broadcast over them, returning +inf
    where it overflows.  L(x, .) is probed for convexity at every state
    first; NotConvex names the state and the point, and NonCoercive the
    state x and the slope p.  A NaN difference makes the gap NaN.
    """
    states = np.asarray(state_grid, dtype=float).ravel()
    slopes = np.asarray(slope_grid, dtype=float).ravel()
    f = _broadcast(l_family, states)
    _convexity_probe(f, states.size, *_BRACKET, lambda i, q: f"at x={states[i]:.6g} near q={q:.6g}")
    xs = np.repeat(states, slopes.size)
    ps = np.tile(slopes, states.size)
    pair = _broadcast(l_family, xs)
    deriv = None if l_deriv is None else _broadcast(l_deriv, xs)
    value, _ = _lockstep(pair, ps, deriv, _BRACKET,
                         lambda i: f"at x={xs[i]:.6g}, p={ps[i]:.6g}")
    h = np.broadcast_to(np.asarray(h_family(xs, ps), dtype=float), ps.shape)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(h - value), initial=0.0))
