"""Magnetization trajectories under independent rate-1 spin flips.

State m in [-1, 1]; momentum p real.  The Hamiltonian

    H(m, p) = (1+m)/2 (e^{-2p} - 1) + (1-m)/2 (e^{2p} - 1)

comes out of the exponentially tilted generator.  Its velocity conjugate has
the closed form (R = sqrt(q^2 + 4(1-m^2)))

    L(m, q) = (q/2) log((q+R) / (2(1-m))) - R/2 + 1,

extended by one-sided limits at m = +-1 and by +inf for infeasible
velocities (m = 1 cannot move up).  The denominator 2(1-m) is the one
produced by the conjugation itself; it is the unique choice with
L(m, -2m) = 0 along the deterministic drift.

The module also carries the exact finite-N oracle (binomial convolution for
the time-T magnetization), the time-t constrained pressure for a tilt on
a single spin, whose t-derivative at 0 reproduces H, and its Legendre
transform, the closed-form endpoint rate K_T(m0, mT).
"""

from __future__ import annotations

import math
import numpy as np

from .errors import PathLeavesDomain

__all__ = [
    "mag_hamiltonian",
    "mag_lagrangian",
    "mag_hamilton_rhs",
    "mag_extremal",
    "mag_exact_log_prob",
    "mag_constrained_pressure",
    "mag_endpoint_rate",
    "mag_model",
]

_LOG_FACT_CACHE = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """Immutable cumulative log-factorial table, grown on demand."""
    global _LOG_FACT_CACHE
    if len(_LOG_FACT_CACHE) <= n:
        m = max(n + 1, 2 * len(_LOG_FACT_CACHE))
        tab = np.zeros(m)
        tab[1:] = np.cumsum(np.log(np.arange(1, m)))
        _LOG_FACT_CACHE = tab
    return _LOG_FACT_CACHE


def _is_array(x) -> bool:
    """x is a NumPy array of one or more dimensions (cheaper than np.ndim on
    a float, which the Hamilton flow's energy check calls 10^4 times)."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def mag_hamiltonian(m, p):
    """H(m, p) = (1/2)(1+m)(e^{-2p} - 1) + (1/2)(1-m)(e^{2p} - 1); +inf where
    an exponential overflows.  Floats, NumPy scalars and 0-d arrays give a
    float through math.expm1; when either input is an array of one or more
    dimensions they broadcast to an array through np.expm1, which can differ
    from math.expm1 in the last bit."""
    if not (_is_array(m) or _is_array(p)):
        if abs(m) > 1 + 1e-12:
            raise ValueError("|m| must be <= 1")
        try:
            return 0.5 * (m + 1.0) * math.expm1(-2.0 * p) + 0.5 * (1.0 - m) * math.expm1(2.0 * p)
        except OverflowError:
            return math.inf
    m, p = np.broadcast_arrays(np.asarray(m, dtype=float), np.asarray(p, dtype=float))
    if np.any(np.abs(m) > 1 + 1e-12):
        raise ValueError("|m| must be <= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        down, up = np.expm1(-2.0 * p), np.expm1(2.0 * p)
        val = 0.5 * (m + 1.0) * down + 0.5 * (1.0 - m) * up
    return np.where(np.isinf(down) | np.isinf(up), np.inf, val)


def mag_hamiltonian_dp(m, p):
    """dH/dp; equals -2m at p = 0.  On overflow it is +inf for p > 0 and -inf
    otherwise.  Scalars and arrays as in mag_hamiltonian (math.exp, np.exp)."""
    if not (_is_array(m) or _is_array(p)):
        try:
            return -(1.0 + m) * math.exp(-2.0 * p) + (1.0 - m) * math.exp(2.0 * p)
        except OverflowError:
            return math.inf if p > 0 else -math.inf
    m, p = np.broadcast_arrays(np.asarray(m, dtype=float), np.asarray(p, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        down, up = np.exp(-2.0 * p), np.exp(2.0 * p)
        val = -(1.0 + m) * down + (1.0 - m) * up
    return np.where(np.isinf(down) | np.isinf(up), np.where(p > 0, np.inf, -np.inf), val)


def mag_lagrangian(m, q):
    """sup_p [p q - H(m, p)]; +inf for infeasible boundary velocities.

    Two plain floats (or np.float64) with |m| < 1 and a finite result take a
    scalar branch equal bit for bit to the 0-d path of
    mag_value_and_partials: the same float operations in the same order,
    math.sqrt (correctly rounded, like np.sqrt), NumPy's log, and
    _ratio_log's choice of ratio by the sign test q >= 0.  Every other
    input, and a non-finite ratio or value, goes through
    mag_value_and_partials: a float for 0-d input, an array otherwise.
    """
    if isinstance(m, float) and isinstance(q, float) and -1.0 < m < 1.0:
        m, q = float(m), float(q)
        r, u = _ratio_scalar(m, q)
        if 0.0 < u < math.inf:
            val = 0.5 * q * float(np.log(u)) - 0.5 * r + 1.0
            if math.isfinite(val):
                return val
    val = mag_value_and_partials(m, q)[0]
    return float(val) if val.ndim == 0 else val


def _ratio_scalar(m: float, q: float):
    """(R, u) of _ratio_log for one float pair: the same float operations in
    the same order, math.sqrt (correctly rounded, like np.sqrt) and the same
    choice of ratio by the sign test q >= 0.  q * q may overflow to inf."""
    r = math.sqrt(q * q + 4.0 * (1.0 - m * m))
    return r, (q + r) / (2.0 * (1.0 - m)) if q >= 0 else (2.0 * (1.0 + m)) / (r - q)


def _ratio_log(m, q):
    """Broadcast (m, q), R = sqrt(q^2 + 4(1-m^2)), the ratio u = e^{2 p*}
    and log u, the one branch shared by the value and both partials.

    For q >= 0 the direct ratio (q+R)/(2(1-m)) is cancellation-free; for
    q < 0 the equivalent ratio 2(1+m)/(R-q) is used, which also produces the
    correct one-sided limits at m = +-1.  Call it under
    np.errstate(divide="ignore", invalid="ignore", over="ignore"): for
    |q| above about 1.34e154, q * q overflows and R is +inf, which
    _boundary_cases repairs.
    """
    m, q = np.asarray(m, dtype=float), np.asarray(q, dtype=float)
    if m.shape != q.shape:
        m, q = np.broadcast_arrays(m, q)
    r = np.sqrt(q * q + 4.0 * (1.0 - m * m))
    u = np.where(q >= 0, (q + r) / (2.0 * (1.0 - m)), (2.0 * (1.0 + m)) / (r - q))
    return m, q, r, u, np.log(u)


def _lagrangian_value(m, q, r, u, log_u):
    """(L, u, log u): the closed form, with the boundary chain only where
    some node needs it.

    The chain changes no entry unless some node has |m| >= 1 or a
    non-finite value, so otherwise it is skipped.  A node with q = 0 and
    |m| < 1 needs no check of its own: there r/2 = sqrt(4(1-m^2))/2 is
    sqrt(1-m^2) exactly (scaling by 4 commutes with rounding), so the
    closed form already equals the chain's 1 - sqrt(1-m^2) bit for bit.
    """
    val = 0.5 * q * log_u - 0.5 * r + 1.0
    if (np.abs(m) < 1.0).all() and np.isfinite(val).all():
        return val, u, log_u
    return _boundary_cases(m, q, r, u, log_u)


def _boundary_cases(m, q, r, u, log_u):
    """(L, u, log u) with overflow repaired, then the limits and infeasibility.

    Where q * q overflows, R and u are recomputed scaled by |q| and log u is
    split as log|q| + log(u / |q|) (q >= 0) or log(u |q|) - log|q| (q < 0);
    the value and both partials then come from the one closed form.  L is
    finite there, about (|q|/2)(log(|q|/(1 -+ m)) - 1) + 1 for q >< 0.
    After that come the q = 0, |m| >= 1 and NaN corrections of the value.
    """
    overflow = np.isinf(q * q)
    if overflow.any():
        s = np.abs(q)
        rs = np.sqrt(1.0 + (4.0 * (1.0 - m * m) / s) / s)
        up = (1.0 + rs) / (2.0 * (1.0 - m))  # u / |q| for q >= 0
        down = 2.0 * (1.0 + m) / (1.0 + rs)  # u |q| for q < 0
        r = np.where(overflow, s * rs, r)
        u = np.where(overflow, np.where(q >= 0, s * up, down / s), u)
        log_u = np.where(overflow, np.where(q >= 0, np.log(s) + np.log(up),
                                            np.log(down) - np.log(s)), log_u)
    val = 0.5 * q * log_u - 0.5 * r + 1.0
    # q = 0 and boundary corner cases: vanishing velocity costs 1 - sqrt(1-m^2)
    val = np.where(q == 0, 1.0 - np.sqrt(np.maximum(1.0 - m * m, 0.0)), val)
    # infeasible: moving up at m=1 or down at m=-1 (log ratio diverges with q*log -> +inf)
    val = np.where((m >= 1.0) & (q > 0), np.inf, val)
    val = np.where((m <= -1.0) & (q < 0), np.inf, val)
    # outside the state interval there is no process at all
    val = np.where(np.abs(m) > 1.0, np.inf, val)
    return np.where(np.isnan(val), np.inf, val), u, log_u


def mag_momentum(m, q):
    """dL/dq: the optimal conjugate momentum p*(m, q) = (1/2) log ratio.

    Two plain floats (or np.float64) with |m| < 1 and a finite positive
    ratio take the scalar branch of mag_lagrangian (_ratio_scalar), bit for
    bit equal to the 0-d array path; every other input takes
    mag_value_and_partials.
    """
    if isinstance(m, float) and isinstance(q, float) and -1.0 < m < 1.0:
        _, u = _ratio_scalar(float(m), float(q))
        if 0.0 < u < math.inf:
            return 0.5 * float(np.log(u))
    return mag_value_and_partials(m, q)[2]


def mag_hamilton_rhs(m: float, p: float) -> tuple[float, float]:
    """Hamilton equations: (dm/dt, dp/dt).

    The flow blows up in finite time once tanh(p) e^{2t} reaches 1 (the
    state hits the boundary with diverging momentum); overflow saturates to
    inf so the integrator can convert it into a DomainExit.
    """
    try:
        e2p = math.exp(2.0 * p)
        em2p = math.exp(-2.0 * p)
    except OverflowError:
        s = math.inf if p > 0 else -math.inf
        return (s, s)
    return (-m * (e2p + em2p) + (e2p - em2p), 0.5 * (e2p - em2p))


def mag_extremal(m0: float, mT: float, T: float):
    """Two-exponential extremal m(t) = C1 e^{2t} + C2 e^{-2t} through (m0, mT).

    Returns (C1, C2, evaluator).  Raises PathLeavesDomain if an endpoint lies
    outside [-1, 1].  Between in-range endpoints the path never leaves the
    domain: m'' = 4m, so an interior extremum of m is a minimum of |m|, and
    |m(t)| <= max(|m0|, |mT|) on [0, T].
    """
    if not T > 0:
        raise ValueError("T must be > 0")
    worst = max(abs(m0), abs(mT))
    if worst > 1.0 + 1e-12:
        raise PathLeavesDomain(f"extremal reaches |m| = {worst:.6g} > 1")
    e2t, em2t = math.exp(2.0 * T), math.exp(-2.0 * T)
    c1 = (mT - m0 * em2t) / (e2t - em2t)
    c2 = m0 - c1

    def path(t):
        t = np.asarray(t, dtype=float)
        return c1 * np.exp(2.0 * t) + c2 * np.exp(-2.0 * t)

    return c1, c2, path


def mag_exact_log_prob(N: int, m0: float, T: float, mT: float) -> float:
    """Exact log P(m_N(T) = mT) from a fixed configuration at magnetization m0.

    Each spin independently flips an odd number of times with probability
    q = (1 - e^{-2T})/2; the final up-count is a convolution of two
    binomials (down-flips among initial ups, up-flips among initial downs),
    summed in log space with the cached log-factorial table.
    """
    if not T > 0:
        raise ValueError("T must be > 0")
    n_up = (1.0 + m0) * N / 2.0
    u_target = (1.0 + mT) * N / 2.0
    if abs(n_up - round(n_up)) > 1e-9 or abs(u_target - round(u_target)) > 1e-9:
        raise ValueError("N(1+m0)/2 and N(1+mT)/2 must be integers")
    n_up = int(round(n_up))
    n_dn = N - n_up
    u_target = int(round(u_target))

    qflip = 0.5 * (1.0 - math.exp(-2.0 * T))
    if qflip == 0.0:
        return 0.0 if u_target == n_up else -math.inf
    lf = _log_factorials(N + 1)
    log_q = math.log(qflip)
    log_1mq = math.log1p(-qflip)

    # k_dn = flips among ups, k_up = flips among downs; n_up - k_dn + k_up = u_target
    k_lo = max(0, n_up - u_target)
    k_hi = min(n_up, N - u_target)
    if k_lo > k_hi:
        return -math.inf
    k_dn = np.arange(k_lo, k_hi + 1)
    k_up = u_target - n_up + k_dn
    log_terms = (
        lf[n_up] - lf[k_dn] - lf[n_up - k_dn]
        + k_dn * log_q + (n_up - k_dn) * log_1mq
        + lf[n_dn] - lf[k_up] - lf[n_dn - k_up]
        + k_up * log_q + (n_dn - k_up) * log_1mq
    )
    top = np.max(log_terms)
    return float(top + math.log(np.sum(np.exp(log_terms - top))))


def mag_constrained_pressure(lam: float, m: float, t: float) -> float:
    """Time-t pressure of a single-spin tilt given initial magnetization m.

    (1+m)/2 log(cosh lam + e^{-2t} sinh lam)
      + (1-m)/2 log(cosh lam - e^{-2t} sinh lam),
    evaluated through logaddexp so t = 0 returns exactly lam*m.
    """
    if abs(m) > 1 + 1e-12:
        raise ValueError("|m| must be <= 1")
    if t < -0.05:
        # the closed form extends analytically a little below 0, which the
        # centered derivative stencils at t = 0 rely on
        raise ValueError("t must be >= 0 (tolerating tiny negative probes)")
    s = math.exp(-2.0 * t)
    if s <= 1.0:
        log_1ps = math.log1p(s)
        log_1ms = math.log1p(-s) if s < 1.0 else -math.inf
        # cosh l + s sinh l = [(1+s)e^l + (1-s)e^-l]/2, and the mirror for -s
        plus = float(np.logaddexp(lam + log_1ps, -lam + log_1ms)) - math.log(2.0)
        minus = float(np.logaddexp(lam + log_1ms, -lam + log_1ps)) - math.log(2.0)
    else:
        arg_plus = math.cosh(lam) + s * math.sinh(lam)
        arg_minus = math.cosh(lam) - s * math.sinh(lam)
        if arg_plus <= 0 or arg_minus <= 0:
            raise ValueError("tilt too strong for the negative-t probe")
        plus, minus = math.log(arg_plus), math.log(arg_minus)
    return float(0.5 * (1.0 + m) * plus + 0.5 * (1.0 - m) * minus)


def mag_endpoint_rate(m0, mT: float, T: float):
    """K_T(m0, mT): the continuum cost of moving magnetization m0 to mT in time T.

    The Legendre transform sup_lam [lam mT - Lambda(lam)] of
    mag_constrained_pressure's exponent Lambda.  With s = e^{-2T} and
    t = tanh(lam*) its stationarity equation loses the cubic term; the root
    is t = 2(mT - s m0) / (b + sqrt(b^2 + 4 s (s mT - m0)(mT - s m0))),
    b = 1 - s^2, and K = mT atanh(t) + log(1 - t^2)/2
    - (1+m0)/2 log(1 + s t) - (1-m0)/2 log(1 - s t), exactly 0 on the
    drift mT = m0 e^{-2T}.  At |mT| = 1, where t = +-1, the limit
    -(1 + m0 sgn mT)/2 log((1+s)/2) - (1 - m0 sgn mT)/2 log((1-s)/2) is used.

    Vectorized over m0 (a float for a scalar m0).  Raises PathLeavesDomain
    when mT or some m0 lies outside [-1, 1].
    """
    if not T > 0:
        raise ValueError("T must be > 0")
    m0 = np.asarray(m0, dtype=float)
    if not (-1.0 <= mT <= 1.0 and np.all(np.abs(m0) <= 1.0)):
        raise PathLeavesDomain(f"endpoint rate needs m0 and mT in [-1, 1], got mT = {mT!r}")
    s = math.exp(-2.0 * T)
    b = -math.expm1(-4.0 * T)
    c = mT - s * m0
    t = 2.0 * c / (b + np.sqrt(np.maximum(b * b + 4.0 * s * (s * mT - m0) * c, 0.0)))
    # t rounds to +-1 only at (or within round-off of) |mT| = 1
    edge = np.abs(t) >= 1.0
    t = np.where(edge, 0.0, t)
    # mT atanh(t) + log(1 - t^2)/2, without the cancellation near |t| = 1
    val = (0.5 * (1.0 + mT) * np.log1p(t) + 0.5 * (1.0 - mT) * np.log1p(-t)
           - 0.5 * (1.0 + m0) * np.log1p(s * t) - 0.5 * (1.0 - m0) * np.log1p(-s * t))
    m0_along = math.copysign(1.0, mT) * m0
    limit = -0.5 * ((1.0 + m0_along) * np.log1p(s) + (1.0 - m0_along) * np.log1p(-s)) + math.log(2.0)
    val = np.where(edge | (abs(mT) == 1.0), limit, val)
    return float(val) if val.ndim == 0 else val


def mag_value_and_partials(m, q):
    """(L, dL/dm, dL/dv) in one pass, sharing the square root and the ratio.

    With u = e^{2 p*}: dL/dv = p* = log(u)/2 and dL/dm = sinh(2 p*)
    = (u - 1/u)/2 by the envelope identity.

    Two arrays of one shape, 1-d or a 2-d batch of paths, are used as
    they are; anything else is broadcast first.  Every operation is
    elementwise, so row i of a batch equals the call on row i bit for bit.
    The boundary chain (overflow of q * q, q = 0, |m| >= 1, NaN -> +inf)
    runs only when some node has |m| >= 1 or a non-finite value; on the
    other nodes, q = 0 included, it would change no bit, so the common call
    of an action solve skips it.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m, q, r, u, log_u = _ratio_log(m, q)
        val, u, log_u = _lagrangian_value(m, q, r, u, log_u)
        return val, 0.5 * (u - 1.0 / u), 0.5 * log_u


def mag_model():
    """LagrangianModel view for the trajectory machinery."""
    from .trajectory import LagrangianModel

    return LagrangianModel(
        value_and_partials=mag_value_and_partials,
        domain=(-1.0, 1.0),
        flow=lambda x, dt: x * np.exp(-2.0 * dt),
        drift=lambda x: -2.0 * np.asarray(x, float),
        extremal=mag_extremal,
    )
