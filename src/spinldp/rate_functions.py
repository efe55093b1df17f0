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
    m_beta comes from _brentq, a transcription of SciPy's brentq at its
    default tolerances that returns the same float bit for bit, so the
    module needs no SciPy import.
  * tabulated(grid, values): linear interpolation.

bernoulli and double_well are defined once, on one float: float + - * /,
NumPy's log and arctanh, and m ** 2 through C pow.  An array (or anything
else) is answered by mapping that same function over its entries, so every
entry equals the float call bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["RateFunctionSpec", "bernoulli_rate", "double_well_rate", "tabulated_rate"]


@dataclass(frozen=True)
class RateFunctionSpec:
    kind: str
    evaluator: Callable
    derivative: Optional[Callable]
    minimizers: tuple[float, ...]


# scipy.optimize.brentq's defaults: the step tolerance is
# (_BRENT_XTOL + _BRENT_RTOL * |x|) / 2, within _BRENT_MAXITER iterations.
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float) -> float:
    """A root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line transcription of SciPy's C brentq
    (scipy/optimize/Zeros/brentq.c) with its NaN check, so it returns
    scipy.optimize.brentq(f, xa, xb) bit for bit.  Raises ValueError on a
    NaN value or a bracket without a sign change, RuntimeError when
    _BRENT_MAXITER iterations do not converge.
    """

    def fx(x):
        v = f(x)
        if math.isnan(v):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return v

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C's x/0 is inf or NaN, and either fails the step test: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


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
    if not beta > 1.0:
        raise ValueError("double well needs beta > 1")
    well = lambda m: math.atanh(m) - beta * m
    # past beta = atanh(1 - 1e-12) / (1 - 1e-12) the wells lie within 1e-12
    # of +-1, outside Brent's bracket
    if well(1.0 - 1e-12) < 0:
        raise ValueError(f"double well needs 1 < beta <= "
                         f"{math.atanh(1.0 - 1e-12) / (1.0 - 1e-12):.6f}, got {beta}")
    m_beta = _brentq(well, 1e-12, 1.0 - 1e-12)
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
