"""Finite-dimensional Lagrangian of a rate-modified jump model.

A JumpModel is (D, c, mu), all finite: an n x n matrix with zero row sums,
positive rates, and a strictly positive probability vector.  The cost of a flux
alpha is evaluated three ways:

  * variational: sup_f [ <f, alpha> - sum_i c_i mu_i (e^{(Df)_i} - 1) ],
    the defining supremum (ground truth), Infeasible where it is +inf;
  * dual: min over nonnegative nu with D^T nu = alpha of the unnormalized
    relative entropy sum_i [nu_i log(nu_i/(c_i mu_i)) - nu_i + c_i mu_i],
    the Fenchel dual (production evaluator, also yields the minimizer),
    solved by one infeasible-start Newton solve of its KKT system, which
    raises Infeasible only on a Farkas certificate;
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
        for name in ("D", "c", "mu"):
            x = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, x)
        D, c, mu = self.D, self.c, self.mu
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


def _range_basis(D: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning range(D^T), the row space of D."""
    _, s, vt = np.linalg.svd(D)
    rank = int(np.sum(s > _RANK_TOL * max(1.0, s[0] if len(s) else 1.0)))
    return vt[:rank].T


def fj_lagrangian_variational(model: JumpModel, alpha) -> float:
    """Defining supremum over f, maximized by damped Newton ascent with
    backtracking on the quotient by ker(D) (adding constants to f changes
    nothing).  Raises NotInRange when alpha is not in range(D^T), where the
    supremum is +inf.

    Newton stops when the reduced gradient norm is at most _NEWTON_TOL times
    (1 + |alpha reduced|), when a step leaves the iterate exactly unchanged
    (round-off: every later iteration would repeat it), or at the first
    non-finite iterate (an entry, or the norm that scales the certificate,
    overflowed or is NaN), which it never evaluates.  Stopped there, it
    raises Infeasible if -V (z_k - z_k-1), the difference of the last two
    finite iterates, passes the strict _certifies_infeasible, else
    SolverNotConverged.  Stopped short otherwise, it raises Infeasible if -V z
    or -V step (its last step) passes the strict certificate, else
    SolverNotConverged if _MAX_NEWTON_ITER ran out or the round-off stop's
    gradient norm is above the one it started from.
    """
    alpha = np.asarray(alpha, dtype=float)
    w = model.weights
    D = model.D
    nu_ls, *_ = np.linalg.lstsq(D.T, alpha, rcond=None)
    resid = np.linalg.norm(D.T @ nu_ls - alpha)
    if resid > 1e-10 * (1.0 + np.linalg.norm(alpha)):
        raise NotInRange(f"alpha has range(D^T) residual {resid:.3e}")

    V = _range_basis(D)
    if V.shape[1] == 0:
        return 0.0
    DV = D @ V
    a_red = V.T @ alpha

    z = z_prev = step = np.zeros(V.shape[1])
    g_start = np.linalg.norm(a_red - DV.T @ w)  # the gradient norm at z = 0
    stop = "spent"
    for _ in range(_MAX_NEWTON_ITER):
        e = w * np.exp(DV @ z)
        grad = a_red - DV.T @ e
        g_norm = np.linalg.norm(grad)
        if g_norm <= _NEWTON_TOL * (1.0 + np.linalg.norm(a_red)):
            return float(a_red @ z - np.sum(e - w))
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
            stop = "round-off"
            break
        with np.errstate(over="ignore"):
            if not np.isfinite(np.linalg.norm(z_next)):
                stop = "non-finite"
                break
        z_prev, z = z, z_next
    if stop == "non-finite":
        if _certifies_infeasible(D, alpha, -V @ (z - z_prev), strict=True):
            raise Infeasible("the supremum is +inf: no nonnegative nu has D^T nu = alpha")
        raise SolverNotConverged("variational Newton reached a non-finite iterate")
    if any(_certifies_infeasible(D, alpha, -V @ x, strict=True) for x in (z, step)):
        raise Infeasible("the supremum is +inf: no nonnegative nu has D^T nu = alpha")
    if stop == "spent":
        raise SolverNotConverged(f"variational Newton still moving after {_MAX_NEWTON_ITER} iterations")
    if g_norm > g_start:
        raise SolverNotConverged(f"variational Newton stopped on round-off with gradient norm "
                                 f"{g_norm:.3e}, above its start's {g_start:.3e}")
    return float(a_red @ z - np.sum(w * np.exp(DV @ z) - w))


def _certifies_infeasible(D: np.ndarray, alpha: np.ndarray, z: np.ndarray, *, strict: bool) -> bool:
    """Farkas test, up to round-off: D z >= 0 and alpha.z <= 0, not both zero
    (strict: alpha.z < 0).  Any nu > 0 with D^T nu = alpha would give alpha.z =
    nu.(D z), which is > 0 if D z >= 0 is nonzero, so such a z proves there is none; a
    strict z rules out nu >= 0 too, and the variational objective is unbounded along -z."""
    Dz, az = D @ z, float(alpha @ z)
    tol = _NEWTON_TOL * np.linalg.norm(z) * (np.max(np.abs(D)) + np.linalg.norm(alpha))
    if strict:
        return bool(Dz.min() >= -tol and az < -tol)
    return bool(Dz.min() >= -tol and az <= tol and (Dz.max() > tol or az < -tol))


def fj_lagrangian_dual(model: JumpModel, alpha):
    """Fenchel dual: entropic minimization over the flux decomposition.
    Returns (value, nu); never reads the variational maximizer.

    One infeasible-start Newton solve (Boyd-Vandenberghe, Convex
    Optimization, 10.3) of the KKT system log(nu/w) + B y = 0, B^T nu =
    V^T alpha, where V spans range(D^T) and B = D V keeps the independent
    rows of D^T.  It starts at nu = w, y = 0, and each iteration is one r x r
    solve.  Backtracking keeps nu > 0 and shrinks the KKT residual norm, its
    stationarity part weighted by nu (the inverse Hessian) until that norm
    is within tolerance and unweighted after.

    It stops when the unweighted norm is at most _NEWTON_TOL times
    (1 + |alpha|), or at round-off: a step leaves nu exactly unchanged, no
    step shrinks the norm, or the r x r matrix is singular.  Then it raises
    Infeasible if z = V y, V dy (the last multiplier step) or minus alpha's
    part outside range(D^T) passes _certifies_infeasible, else
    SolverNotConverged if |D^T nu - alpha| exceeds the tolerance or the
    _MAX_NEWTON_ITER budget was spent.
    """
    alpha = np.asarray(alpha, dtype=float)
    w, D = model.weights, model.D
    V = _range_basis(D)
    B, b = D @ V, V.T @ alpha
    tol = _NEWTON_TOL * (1.0 + np.linalg.norm(alpha))

    def residual(nu, y):
        return np.log(nu / w) + B @ y, B.T @ nu - b

    def norm(nu, y, weight):
        r_dual, r_primal = residual(nu, y)
        return np.hypot(np.linalg.norm(weight * r_dual), np.linalg.norm(r_primal))

    nu, y, dy = w.copy(), np.zeros(V.shape[1]), np.zeros(V.shape[1])
    spent = False
    for _ in range(_MAX_NEWTON_ITER):
        if norm(nu, y, 1.0) <= tol:
            break
        r_dual, r_primal = residual(nu, y)
        try:
            dy = np.linalg.solve(B.T @ (nu[:, None] * B), r_primal - B.T @ (nu * r_dual))
        except np.linalg.LinAlgError:
            break
        dnu = -nu * (r_dual + B @ dy)
        # the weight is fixed during the search, so the step is a descent direction
        weight = nu if norm(nu, y, nu) > tol else 1.0
        r0, t = norm(nu, y, weight), 1.0
        for _ in range(60):
            nu_next, y_next = nu + t * dnu, y + t * dy
            if np.all(nu_next > 0) and norm(nu_next, y_next, weight) <= (1.0 - 1e-2 * t) * r0:
                break
            t *= 0.5
        else:
            break
        if np.array_equal(nu_next, nu):
            break
        nu, y = nu_next, y_next
    else:
        spent = True
    if any(_certifies_infeasible(D, alpha, z, strict=False) for z in (V @ y, V @ dy, V @ b - alpha)):
        raise Infeasible("no strictly positive nu with D^T nu = alpha")
    if spent:
        raise SolverNotConverged(f"dual Newton still moving after {_MAX_NEWTON_ITER} iterations")
    if np.linalg.norm(D.T @ nu - alpha) > tol:
        raise SolverNotConverged("dual Newton stopped with D^T nu != alpha")
    return float(np.sum(nu * np.log(nu / w) - nu + w)), nu


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
