"""Static initial rate functions I(m) on [-1, 1], normalized to min 0.

Built-ins:
  * bernoulli(y): the product-measure relative entropy, strictly convex
    with its unique zero at y.  bernoulli_rate(y).evaluator(x) is the
    package's one Bernoulli KL: per site, between spin marginals with
    means x and y, +inf for |x| > 1;
  * double_well(beta), beta > 1: the symmetric entropy minus a quadratic,
    shifted so the two wells +-m_beta (solving arctanh(m) = beta m) sit at
    height 0.  A mean-field stand-in for a low-temperature starting phase.
    beta is at most 14.162095, where m_beta reaches 1 - 1e-12.
    m_beta comes from Newton on m = tanh(beta m), exact to round-off
    (|m_beta - tanh(beta m_beta)| <= 3 ulp).
  * tabulated(grid, values): linear interpolation.

bernoulli and double_well are defined once, on one float: float + - * /,
NumPy's log and arctanh, and m ** 2 through C pow.  An array (or anything
else) is answered by mapping that same function over its entries, so every
entry equals the float call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SolverNotConverged

__all__ = ["RateFunctionSpec", "bernoulli_rate", "double_well_rate", "tabulated_rate"]


@dataclass(frozen=True)
class RateFunctionSpec:
    kind: str
    evaluator: Callable
    derivative: Optional[Callable]
    minimizers: tuple[float, ...]


# _well's step budget; beta = nextafter(1, 2) takes 44 steps, beta >= 1.0045 at most 10
_WELL_MAX_ITER = 100


def _well(beta: float) -> float:
    """The root m_beta > 0 of g(m) = m - tanh(beta m), beta > 1, by Newton
    from m = 1.  g is increasing and convex on [m_beta, 1], so the iterates
    fall monotonically onto m_beta; the first step that does not decrease m
    marks the round-off fixed point."""
    m = 1.0
    for _ in range(_WELL_MAX_ITER):
        t = math.tanh(beta * m)
        # g'(m) = 1 - beta sech^2(beta m), summed so it stays accurate as beta -> 1
        step = (m - t) / (1.0 - beta + beta * t * t)
        if not m - step < m:
            return m
        m -= step
    raise SolverNotConverged(f"double-well Newton still moving after {_WELL_MAX_ITER} steps")


def _elementwise(f, x):
    """f, a function of one float, mapped over the entries of x: a float for
    a 0-d x, else a float array of x's shape, each entry f(float(entry))."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return f(float(x))
    return np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _kl_scalar(x: float, yp: float, ym: float) -> float:
    """KL between spin marginals with means x and y, yp = (1+y)/2 and
    ym = (1-y)/2, for one float x in [-1, 1].  0 log 0 = 0; a NaN x gives NaN."""
    xp, xm = 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    # the NaN test runs off the log branch only
    tp = xp * float(np.log(xp / yp)) if xp > 0 else (math.nan if math.isnan(xp) else 0.0)
    tm = xm * float(np.log(xm / ym)) if xm > 0 else (math.nan if math.isnan(xm) else 0.0)
    return tp + tm


def _arctanh_clipped(x: float) -> float:
    """arctanh(clip(x, -1, 1)) for one float, +-inf at the ends without a warning."""
    if x >= 1.0:
        return math.inf
    if x <= -1.0:
        return -math.inf
    return float(np.arctanh(x))


def bernoulli_rate(y: float) -> RateFunctionSpec:
    if not -1.0 < y < 1.0:
        raise ValueError("|y| must be < 1")
    yp, ym = 0.5 * (1.0 + y), 0.5 * (1.0 - y)
    ath_y = math.atanh(y)

    def ev(m):
        if not isinstance(m, float):
            return _elementwise(ev, m)
        m = float(m)
        return math.inf if abs(m) > 1.0 else _kl_scalar(m, yp, ym)

    def dv(m):
        if not isinstance(m, float):
            return _elementwise(dv, m)
        return _arctanh_clipped(float(m)) - ath_y

    return RateFunctionSpec("bernoulli", ev, dv, (y,))


def double_well_rate(beta: float) -> RateFunctionSpec:
    """Wells +-m_beta from _well: Newton on m = tanh(beta m), exact to round-off."""
    if not beta > 1.0:
        raise ValueError("double well needs beta > 1")
    # past beta = atanh(1 - 1e-12) / (1 - 1e-12) the wells lie within 1e-12
    # of +-1, where 1 - m keeps about four significant digits in a float
    if math.atanh(1.0 - 1e-12) < beta * (1.0 - 1e-12):
        raise ValueError(f"double well needs 1 < beta <= "
                         f"{math.atanh(1.0 - 1e-12) / (1.0 - 1e-12):.6f}, got {beta}")
    m_beta = _well(beta)
    shift = _kl_scalar(m_beta, 0.5, 0.5) - 0.5 * beta * m_beta * m_beta

    def ev(m):
        if not isinstance(m, float):
            return _elementwise(ev, m)
        m = float(m)
        if abs(m) > 1.0:
            return math.inf
        return _kl_scalar(m, 0.5, 0.5) - 0.5 * beta * m ** 2 - shift

    def dv(m):
        if not isinstance(m, float):
            return _elementwise(dv, m)
        m = float(m)
        return _arctanh_clipped(m) - beta * m

    return RateFunctionSpec("double_well", ev, dv, (-m_beta, m_beta))


def tabulated_rate(grid, values) -> RateFunctionSpec:
    grid = np.asarray(grid, float)
    values = np.asarray(values, float)
    if grid.ndim != 1 or values.shape != grid.shape:
        raise ValueError(f"grid and values must be 1-d lists of one length, got shapes "
                         f"{grid.shape} and {values.shape}")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise ValueError("grid and values must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    values = values - np.min(values)

    def ev(m):
        return np.interp(np.asarray(m, float), grid, values)

    def dv(m):
        m = np.asarray(m, float)
        h = 1e-6
        return (ev(m + h) - ev(m - h)) / (2.0 * h)

    mins = tuple(float(g) for g, v in zip(grid, values) if v <= np.min(values) + 1e-12)
    return RateFunctionSpec("tabulated", ev, dv, mins)
