"""Static initial rate functions I(m) on [-1, 1], normalized to min 0.

Built-ins:
  * bernoulli(y): the product-measure relative entropy, strictly convex
    with its unique zero at y;
  * double_well(beta), beta > 1: the symmetric entropy minus a quadratic,
    shifted so the two wells +-m_beta (solving arctanh(m) = beta m) sit at
    height 0.  A mean-field stand-in for a low-temperature starting phase.
  * tabulated(grid, values): linear interpolation.

bernoulli and double_well answer a plain float (or np.float64) on a scalar
branch equal bit for bit to their 0-d array path: float + - * /, NumPy's log
and arctanh, and m ** 2 through C pow as on a NumPy scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .finite_jump import bernoulli_kl_vec

__all__ = ["RateFunctionSpec", "bernoulli_rate", "double_well_rate", "tabulated_rate"]


@dataclass(frozen=True)
class RateFunctionSpec:
    kind: str
    evaluator: Callable
    derivative: Optional[Callable]
    minimizers: tuple[float, ...]
    params: tuple = ()

    def __call__(self, m):
        return self.evaluator(m)


def _kl_scalar(x: float, yp: float, ym: float) -> float:
    """bernoulli_kl_vec(x, y) for one float x in [-1, 1] (or NaN), bit for bit."""
    xp, xm = 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    # 0 log 0 = 0 and NaN stays NaN; the NaN test runs off the log branch only
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

    def ev(m):
        if isinstance(m, float):
            m = float(m)
            return math.inf if abs(m) > 1.0 else _kl_scalar(m, yp, ym)
        m = np.asarray(m, float)
        out = bernoulli_kl_vec(np.clip(m, -1.0, 1.0), y)
        return np.where(np.abs(m) > 1.0, np.inf, out) if np.ndim(out) else (math.inf if abs(float(m)) > 1 else out)

    ath_y = math.atanh(y)

    def dv(m):
        if isinstance(m, float):
            return _arctanh_clipped(float(m)) - ath_y
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.arctanh(np.clip(np.asarray(m, float), -1.0, 1.0)) - ath_y

    return RateFunctionSpec("bernoulli", ev, dv, (y,), params=(y,))


def _entropy0(m):
    """bernoulli(0) rate, with the 0 log 0 = 0 endpoint convention."""
    return bernoulli_kl_vec(m, 0.0)


def double_well_rate(beta: float) -> RateFunctionSpec:
    if not beta > 1.0:
        raise ValueError("double well needs beta > 1")
    m_beta = brentq(lambda m: math.atanh(m) - beta * m, 1e-12, 1.0 - 1e-12)
    shift = float(_entropy0(m_beta) - 0.5 * beta * m_beta * m_beta)

    def ev(m):
        if isinstance(m, float):
            m = float(m)
            if abs(m) > 1.0:
                return math.inf
            return _kl_scalar(m, 0.5, 0.5) - 0.5 * beta * m ** 2 - shift
        m = np.asarray(m, float)
        inner = _entropy0(np.clip(m, -1.0, 1.0)) - 0.5 * beta * np.clip(m, -1.0, 1.0) ** 2 - shift
        out = np.where(np.abs(m) > 1.0, np.inf, inner)
        return out if out.ndim else float(out)

    def dv(m):
        if isinstance(m, float):
            m = float(m)
            return _arctanh_clipped(m) - beta * m
        m = np.asarray(m, float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.arctanh(np.clip(m, -1.0, 1.0)) - beta * m

    return RateFunctionSpec("double_well", ev, dv, (-m_beta, m_beta), params=(beta,))


def tabulated_rate(grid, values) -> RateFunctionSpec:
    grid = np.asarray(grid, float)
    values = np.asarray(values, float)
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
