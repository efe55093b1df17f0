"""Finite-dimensional Lagrangian of a rate-modified jump model.

A JumpModel is (D, c, mu): an n x n matrix with zero row sums, positive
rates, and a strictly positive probability vector.  The cost of a flux
alpha is evaluated three ways:

  * variational: sup_f [ <f, alpha> - sum_i c_i mu_i (e^{(Df)_i} - 1) ],
    the defining supremum (ground truth);
  * dual: min over nonnegative nu with D^T nu = alpha of the unnormalized
    relative entropy sum_i [nu_i log(nu_i/(c_i mu_i)) - nu_i + c_i mu_i],
    the Fenchel dual (production evaluator, also yields the minimizer);
  * mass-constrained closed form: sum_i nu_i log(nu_i/(c_i mu_i)) for the
    unique nonnegative nu with sum C_mu = sum_i c_i mu_i and D^T nu = alpha.

The first two agree by strong duality.  The third is kept as a diagnostic:
it assumes the optimizer has total mass C_mu, which fails in general (the
dual minimizer's mass is sum_i c_i mu_i e^{(Df*)_i}), so it upper-bounds the
true value and the gap is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NotInRange, NotWellDefined, SolverNotConverged

__all__ = [
    "JumpModel",
    "fj_lagrangian_variational",
    "fj_lagrangian_dual",
    "fj_paper_closed_form",
]

# Newton iteration budget and relative gradient tolerance of
# fj_lagrangian_variational and fj_lagrangian_dual.
_MAX_NEWTON_ITER = 200
_NEWTON_TOL = 1e-12
# _range_basis keeps the singular values above _RANK_TOL * max(1, s_max).
_RANK_TOL = 1e-11


@dataclass(frozen=True)
class JumpModel:
    D: np.ndarray
    c: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float)
        c = np.asarray(self.c, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "mu", mu)
        n = D.shape[0]
        if D.shape != (n, n):
            raise ValueError("D must be square")
        scale = 1.0 + np.max(np.abs(D))
        if np.max(np.abs(D.sum(axis=1))) > 1e-10 * scale:
            raise ValueError("rows of D must sum to 0")
        if c.shape != (n,) or np.any(c <= 0):
            raise ValueError("c must be a positive n-vector")
        if mu.shape != (n,) or np.any(mu <= 0) or abs(mu.sum() - 1.0) > 1e-10:
            raise ValueError("mu must be strictly positive and sum to 1")

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The c-modified measure mu_c, componentwise c*mu."""
        return self.c * self.mu

    @property
    def C_mu(self) -> float:
        return float(self.weights.sum())


def _range_basis(D: np.ndarray):
    """Orthonormal bases: columns spanning range(D^T) and ker(D^T)."""
    u, s, vt = np.linalg.svd(D)
    rank = int(np.sum(s > _RANK_TOL * max(1.0, s[0] if len(s) else 1.0)))
    range_dt = vt[:rank].T          # row space of D
    ker_dt = u[:, rank:]            # left null space: D^T u = 0 columns
    return range_dt, ker_dt


def fj_lagrangian_variational(model: JumpModel, alpha) -> float:
    """Defining supremum over f, maximized by damped Newton ascent with
    backtracking on the quotient by ker(D) (adding constants to f changes
    nothing).  Raises NotInRange when alpha is not in range(D^T), where the
    supremum is +inf.

    Newton stops when the reduced gradient norm is at most _NEWTON_TOL times
    (1 + |alpha reduced|), or when a step leaves the iterate exactly
    unchanged (round-off: every later iteration would repeat it).  After
    _MAX_NEWTON_ITER iterations still moving it raises SolverNotConverged.
    """
    alpha = np.asarray(alpha, dtype=float)
    w = model.weights
    D = model.D
    nu_ls, *_ = np.linalg.lstsq(D.T, alpha, rcond=None)
    resid = np.linalg.norm(D.T @ nu_ls - alpha)
    if resid > 1e-10 * (1.0 + np.linalg.norm(alpha)):
        raise NotInRange(f"alpha has range(D^T) residual {resid:.3e}")

    V, _ = _range_basis(D)
    if V.shape[1] == 0:
        return 0.0
    DV = D @ V
    a_red = V.T @ alpha

    z = np.zeros(V.shape[1])
    for _ in range(_MAX_NEWTON_ITER):
        e = w * np.exp(DV @ z)
        grad = a_red - DV.T @ e
        if np.linalg.norm(grad) <= _NEWTON_TOL * (1.0 + np.linalg.norm(a_red)):
            break
        H = DV.T @ (e[:, None] * DV)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = grad
        # backtracking ascent
        phi = a_red @ z - np.sum(e - w)
        t = 1.0
        for _ in range(60):
            z_new = z + t * step
            e_new = w * np.exp(np.clip(DV @ z_new, -700, 700))
            phi_new = a_red @ z_new - np.sum(e_new - w)
            if phi_new > phi + 1e-4 * t * (grad @ step):
                break
            t *= 0.5
        z_next = z + t * step
        if np.array_equal(z_next, z):
            break
        z = z_next
    else:
        raise SolverNotConverged(f"variational Newton still moving after {_MAX_NEWTON_ITER} iterations")
    return float(a_red @ z - np.sum(w * np.exp(DV @ z) - w))


def fj_lagrangian_dual(model: JumpModel, alpha):
    """Fenchel dual: entropic minimization over the flux decomposition.

    Solved independently of the variational route: a strictly feasible
    point comes from a Chebyshev-style LP, then damped Newton runs in the
    kernel coordinates of D^T with positivity enforced by line search.
    Returns (value, nu).

    Newton stops when the kernel gradient norm is at most _NEWTON_TOL times
    (1 + C_mu), or when a step, after the positivity clamp, leaves nu
    exactly unchanged (round-off: every later iteration would repeat it).
    After _MAX_NEWTON_ITER iterations still moving it raises
    SolverNotConverged.
    """
    # imported here, not at module level: this LP is spinldp's only use of
    # scipy.optimize, whose import costs most of a cold start
    from scipy.optimize import linprog

    alpha = np.asarray(alpha, dtype=float)
    w = model.weights
    n = model.n
    Dt = model.D.T

    # max t subject to D^T nu = alpha, nu_i >= t; t is capped so the LP
    # stays bounded on unbounded feasible rays (any interior point will do)
    c_lp = np.zeros(n + 1)
    c_lp[-1] = -1.0
    A_eq = np.hstack([Dt, np.zeros((n, 1))])
    A_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    cap = max(1.0, float(np.max(np.abs(alpha))))
    lp = linprog(
        c_lp,
        A_ub=A_ub,
        b_ub=np.zeros(n),
        A_eq=A_eq,
        b_eq=alpha,
        bounds=[(None, None)] * n + [(None, cap)],
        method="highs",
    )
    if not lp.success or lp.x[-1] <= 0.0:
        raise Infeasible("no strictly positive nu with D^T nu = alpha")
    nu = lp.x[:n]

    _, K = _range_basis(model.D)
    if K.shape[1] == 0:
        value = float(np.sum(nu * np.log(nu / w) - nu + w))
        return value, nu

    def objective(v):
        return float(np.sum(v * np.log(v / w) - v + w))

    for _ in range(_MAX_NEWTON_ITER):
        grad = K.T @ np.log(nu / w)
        if np.linalg.norm(grad) <= _NEWTON_TOL * (1.0 + model.C_mu):
            break
        H = K.T @ (K / nu[:, None])
        try:
            step = -np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = -grad
        t = 1.0
        f0 = objective(nu)
        for _ in range(80):
            nu_new = nu + t * (K @ step)
            if np.all(nu_new > 0) and objective(nu_new) < f0 + 1e-4 * t * (grad @ step):
                break
            t *= 0.5
        nu_next = nu + t * (K @ step)
        if np.any(nu_next <= 0):
            nu_next = np.maximum(nu_next, 1e-300)
        if np.array_equal(nu_next, nu):
            break
        nu = nu_next
    else:
        raise SolverNotConverged(f"dual Newton still moving after {_MAX_NEWTON_ITER} iterations")
    return objective(nu), nu


def fj_paper_closed_form(model: JumpModel, alpha) -> float:
    """Mass-constrained entropy: requires a unique nonnegative nu with
    sum C_mu and D^T nu = alpha; NotWellDefined otherwise."""
    alpha = np.asarray(alpha, dtype=float)
    w = model.weights
    n = model.n
    M = np.vstack([model.D.T, np.ones((1, n))])
    rhs = np.concatenate([alpha, [model.C_mu]])
    rank = np.linalg.matrix_rank(M, tol=1e-11 * max(1.0, np.max(np.abs(M))))
    if rank < n:
        raise NotWellDefined("mass-constrained solution set is affine")
    nu, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    if np.linalg.norm(M @ nu - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise NotWellDefined("no nu with the required flux and mass")
    if np.any(nu < -1e-10):
        raise NotWellDefined("mass-constrained nu has negative components")
    nu = np.maximum(nu, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(nu > 0, nu * np.log(np.where(nu > 0, nu, 1.0) / w), 0.0)
    return float(np.sum(terms))
