"""Rate-calibration model: a random walk with small increments.

X jumps +1/N at rate b*N and -1/N at rate d*N.  Everything here has either
a closed form or an exact combinatorial oracle (two-Poisson convolution),
which makes this the calibration ground for the trajectory machinery: the
cumulant generator, its conjugate, exact path probabilities, and the rate
convergence table all cross-check each other.

Sign convention: the cumulant generator is b(e^l - 1) + d(e^-l - 1), the
form consistent with the jump generator and with Cramer's theorem (the "+"
form; both signs appear in the literature for the backward term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SeriesNotConverged

__all__ = [
    "PoissonWalkParams",
    "pw_hamiltonian",
    "pw_lagrangian",
    "pw_exact_log_prob",
    "pw_rate_convergence",
    "pw_model",
]


@dataclass(frozen=True)
class PoissonWalkParams:
    b: float
    d: float
    N: int

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise ValueError("forward rate b must be finite and > 0")
        if not 0 <= self.d < math.inf:
            raise ValueError("backward rate d must be finite and >= 0")
        if self.N < 1:
            raise ValueError("scale N must be >= 1")


def pw_hamiltonian(lam: float, params: PoissonWalkParams) -> float:
    """b(e^lam - 1) + d(e^-lam - 1); overflow saturates to +inf."""
    try:
        return params.b * math.expm1(lam) + params.d * math.expm1(-lam)
    except OverflowError:
        return math.inf


def pw_lagrangian(a, params: PoissonWalkParams):
    """sup_lam [a lam - H(lam)], closed form; +inf when d=0 and a<0.

    A float for 0-d input, an array of a's shape otherwise.
    """
    val = _pw_value_and_log_u(a, params.b, params.d)[0]
    return float(val) if val.ndim == 0 else val


_MAX_TERMS = 10_000_000  # summation budget of pw_exact_log_prob


def pw_exact_log_prob(params: PoissonWalkParams, t: float, k: int) -> float:
    """log P(X_N(t) = k/N) by exact two-Poisson convolution in log space.

    Sums e^-lp lp^j / j! * e^-lm lm^(j-k) / (j-k)! over j >= max(0, k),
    truncated once the bounded tail is below 1e-14 of the partial sum.
    """
    if not t > 0:
        raise ValueError("t must be > 0")
    lp = params.N * params.b * t
    lm = params.N * params.d * t
    if lm == 0.0:
        if k < 0:
            return -math.inf
        return -lp + k * math.log(lp) - math.lgamma(k + 1)
    j0 = max(0, k)
    j = j0
    log_sum = -math.inf
    llp, llm = math.log(lp), math.log(lm)
    while True:
        lt = -lp - lm + j * llp - math.lgamma(j + 1) + (j - k) * llm - math.lgamma(j - k + 1)
        log_sum = max(log_sum, lt) + math.log1p(math.exp(min(log_sum, lt) - max(log_sum, lt)))
        # term ratio: lp*lm / ((j+1)(j+1-k)); once < 1/2 the tail is < 2*next term
        ratio = lp * lm / ((j + 1.0) * (j + 1.0 - k))
        if ratio < 0.5:
            log_next = lt + math.log(ratio)
            if log_next + math.log(2.0) < log_sum + math.log(1e-14):
                break
        j += 1
        if j - j0 > _MAX_TERMS:
            raise SeriesNotConverged(
                f"two-Poisson summation not converged after {_MAX_TERMS} terms (lp={lp:.6g}, lm={lm:.6g})")
    return log_sum


def pw_rate_convergence(
    params_template: PoissonWalkParams,
    N_list: Sequence[int],
    t: float,
    a: float,
) -> list[dict]:
    """Table of empirical vs analytic decay rates.

    The empirical rate is -(1/N) log P(X_N(t) = k/N) with k the nearest
    integer to a*t*N; the analytic rate is t*L(a).
    """
    analytic = t * pw_lagrangian(a, params_template)
    rows = []
    for N in N_list:
        p = PoissonWalkParams(b=params_template.b, d=params_template.d, N=int(N))
        k = round(a * t * N)
        emp = -pw_exact_log_prob(p, t, k) / N
        rows.append(
            {
                "N": int(N),
                "t": t,
                "a": a,
                "empirical_rate": emp,
                "analytic_rate": analytic,
                "gap": emp - analytic,
            }
        )
    return rows


def _pw_value_and_log_u(v, b, d):
    """Vectorized (L(v), log u) with log u = dL/dv, the optimal tilt.

    For d = 0 the cost is +inf below zero velocity and dL/dv is -inf at and
    below it.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 0.0:
            log_u = np.where(v > 0, np.log(np.where(v > 0, v / b, 1.0)), -np.inf)
            return np.where(v < 0, np.inf, np.where(v == 0, b, v * log_u - v + b)), log_u
        r = np.sqrt(v * v + 4.0 * b * d)
        log_u = np.where(v >= 0, np.log((np.abs(v) + r) / (2.0 * b)), -np.log((np.abs(v) + r) / (2.0 * d)))
        return v * log_u - r + b + d, log_u


def pw_model(params: PoissonWalkParams):
    """LagrangianModel view for the trajectory machinery (velocity-only cost)."""
    from .trajectory import LagrangianModel

    b, d = params.b, params.d

    def value_and_partials(x, v):
        x, v = np.broadcast_arrays(np.asarray(x, float), np.asarray(v, float))
        val, log_u = _pw_value_and_log_u(v, b, d)
        return val, np.zeros_like(val), log_u

    return LagrangianModel(
        value_and_partials=value_and_partials,
        domain=(-math.inf, math.inf),
        flow=lambda x, dt: x + (b - d) * dt,
        drift=lambda x: np.full_like(np.asarray(x, float), b - d),
        extremal=None,
    )
