"""One-dimensional convex conjugation and duality-gap checking.

The conjugate sup_p [slope*p - f(p)] is computed by bracket expansion,
golden-section search, and a Newton polish when a derivative evaluator is
available.  All Hamiltonian/Lagrangian pairs in this package are smooth and
strictly convex in the momentum variable, so the concave objective is
unimodal and the scheme converges to machine-level accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import NonCoercive, NotConvex

# Golden-section stops when the bracket is at most ARGMAX_TOL (1 + |a| + |b|).
ARGMAX_TOL = 1e-8
# conjugate declares NonCoercive after this many bracket doublings on a side.
_MAX_DOUBLINGS = 60
# conjugate's default starting bracket, and the one duality_gap always uses.
_BRACKET = (-50.0, 50.0)

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


def _convexity_probe(fn, lo, hi, n=17):
    """Check midpoint convexity of fn on [lo, hi]; raises NotConvex."""
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    vals = [_safe_eval(fn, x) for x in xs]
    for i in range(1, n - 1):
        left, mid, right = vals[i - 1], vals[i], vals[i + 1]
        if math.isinf(left) or math.isinf(right):
            continue
        slack = 1e-9 * (1.0 + abs(left) + abs(right))
        if mid > 0.5 * (left + right) + slack:
            raise NotConvex(
                f"midpoint convexity violated near p={xs[i]:.6g} "
                f"(f={mid:.6g} > {0.5 * (left + right):.6g})"
            )


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
    is given.
    """

    def g(p):
        v = _safe_eval(fn, p)
        return -math.inf if math.isinf(v) else slope * p - v

    a, b = bracket
    if not a < b:
        raise ValueError("empty bracket")

    if convexity_check:
        _convexity_probe(fn, a, b)

    ga, gb = g(a), g(b)
    m = 0.5 * (a + b)
    gm = g(m)

    step = b - a
    n = 0
    while gm < ga:
        n += 1
        if n > _MAX_DOUBLINGS:
            raise NonCoercive(
                f"objective still increasing leftward after {_MAX_DOUBLINGS} expansions"
            )
        b, gb = m, gm
        m, gm = a, ga
        step *= 2.0
        a = a - step
        ga = g(a)
    n = 0
    while gm < gb:
        n += 1
        if n > _MAX_DOUBLINGS:
            raise NonCoercive(
                f"objective still increasing rightward after {_MAX_DOUBLINGS} expansions"
            )
        a, ga = m, gm
        m, gm = b, gb
        step *= 2.0
        b = b + step
        gb = g(b)

    # Golden-section on the concave objective over [a, b].
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > ARGMAX_TOL * (1.0 + abs(a) + abs(b)):
        if g1 < g2:
            a, x1, g1 = x1, x2, g2
            x2 = a + _GOLDEN * (b - a)
            g2 = g(x2)
        else:
            b, x2, g2 = x2, x1, g1
            x1 = b - _GOLDEN * (b - a)
            g1 = g(x1)
    p_star = x1 if g1 >= g2 else x2

    if deriv is not None:
        # Newton on h(p) = f'(p) - slope with finite-difference h'.
        p = p_star
        for _ in range(40):
            h = _safe_eval(deriv, p) - slope
            dp = 1e-6 * (1.0 + abs(p))
            hp = (_safe_eval(deriv, p + dp) - _safe_eval(deriv, p - dp)) / (2.0 * dp)
            if not (hp > 0.0) or math.isinf(hp):
                break
            p_new = p - h / hp
            if math.isnan(p_new) or not (a - 1.0 <= p_new <= b + 1.0):
                break
            done = abs(p_new - p) < 1e-15 * (1.0 + abs(p))
            p = p_new
            if done:
                break
        if g(p) >= g(p_star):
            p_star = p

    return ConjugateResult(value=g(p_star), argmax=p_star)


def duality_gap(
    h_family: Callable[[float, float], float],
    l_family: Callable[[float, float], float],
    state_grid: Sequence[float],
    slope_grid: Sequence[float],
    l_deriv: Optional[Callable[[float, float], float]] = None,
) -> float:
    """max over the grid of |H(x,p) - sup_q [p q - L(x,q)]|.

    Verifies one direction of a conjugate pair; call again with the families
    swapped for the reverse direction.  l_deriv, when given, is dL/dq and
    enables the Newton polish.
    """
    gap = 0.0
    for x in state_grid:
        fn = lambda q, _x=x: l_family(_x, q)
        deriv = None if l_deriv is None else (lambda q, _x=x: l_deriv(_x, q))
        _convexity_probe(fn, *_BRACKET)
        for p in slope_grid:
            res = conjugate(fn, p, deriv=deriv, convexity_check=False)
            gap = max(gap, abs(h_family(x, p) - res.value))
    return gap
