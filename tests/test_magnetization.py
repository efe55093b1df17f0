import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from spinldp import verification as vf
from spinldp.duality import duality_gap
from spinldp.errors import PathLeavesDomain
from spinldp.magnetization import (
    _boundary_cases,
    _ratio_log,
    mag_constrained_pressure,
    mag_endpoint_rate,
    mag_exact_log_prob,
    mag_extremal,
    mag_hamilton_rhs,
    mag_hamiltonian,
    mag_hamiltonian_dp,
    mag_lagrangian,
    mag_model,
    mag_momentum,
    mag_value_and_partials,
)
from spinldp.poisson_walk import PoissonWalkParams, pw_model
from spinldp.seeding import rng_from


def test_hamiltonian_basics():
    for m in (-1.0, -0.3, 0.0, 0.8, 1.0):
        assert mag_hamiltonian(m, 0.0) == 0.0
    for p in (-1.2, 0.4, 2.0):
        assert abs(mag_hamiltonian(0.0, p) - (math.cosh(2 * p) - 1.0)) <= 1e-12


def test_hamiltonian_p_derivative_is_minus_2m_at_zero():
    for m in (-0.9, -0.2, 0.0, 0.5, 1.0):
        assert abs(mag_hamiltonian_dp(m, 0.0) + 2.0 * m) <= 1e-14


def test_lagrangian_zero_on_drift():
    for m in (-0.9, 0.0, 0.9):
        assert abs(mag_lagrangian(m, -2.0 * m)) <= 1e-12


def test_lagrangian_reference_values():
    assert abs(mag_lagrangian(0.0, 2.0) - (math.log(1 + math.sqrt(2)) - math.sqrt(2) + 1)) <= 1e-14
    assert abs(mag_lagrangian(0.5, 0.0) - (1.0 - math.sqrt(0.75))) <= 1e-14


def test_lagrangian_boundary_feasibility():
    assert mag_lagrangian(1.0, 0.5) == math.inf
    assert mag_lagrangian(-1.0, -0.5) == math.inf
    assert abs(mag_lagrangian(1.0, -2.0)) <= 1e-12  # drift at the boundary
    assert mag_lagrangian(1.2, 0.0) == math.inf  # outside the state interval


def test_lagrangian_matches_numeric_conjugation_grid():
    gap = duality_gap(
        mag_hamiltonian, lambda m, q: mag_lagrangian(m, q),
        np.linspace(-0.9, 0.9, 7), np.linspace(-3, 3, 13),
        l_deriv=mag_momentum,
    )
    assert gap <= 1e-9


@settings(max_examples=80, deadline=None)
@given(m=st.floats(-0.99, 0.99), q=st.floats(-5, 5))
def test_lagrangian_nonnegative_zero_only_at_drift(m, q):
    val = mag_lagrangian(m, q)
    assert val >= -1e-12
    if abs(q + 2 * m) > 1e-3:
        assert val > 0.0


@pytest.mark.parametrize("model, q", [
    (mag_model(), np.linspace(-3, 3, 21)),
    (pw_model(PoissonWalkParams(2.0, 1.0, 1)), np.linspace(-3, 3, 21)),
    # without backward jumps only upward velocities are feasible
    (pw_model(PoissonWalkParams(2.0, 0.0, 1)), np.linspace(0.1, 3, 21)),
], ids=["mag", "pw", "pw_d0"])
def test_value_and_partials_consistent(model, q):
    # one evaluator: its partials must match central differences of its value
    m = np.linspace(-0.95, 0.95, 21)
    val, lx, lv = model.value_and_partials(m, q)

    def value(x, v):
        return model.value_and_partials(x, v)[0]

    h = 1e-6
    fd_x = (value(m + h, q) - value(m - h, q)) / (2 * h)
    fd_v = (value(m, q + h) - value(m, q - h)) / (2 * h)
    assert np.all(np.isfinite(val))
    assert np.max(np.abs(lx - fd_x)) <= 1e-6
    assert np.max(np.abs(lv - fd_v)) <= 1e-6


def test_mag_evaluator_matches_public_functions():
    m = np.linspace(-0.95, 0.95, 21)
    q = np.linspace(-3, 3, 21)
    val, _, lv = mag_value_and_partials(m, q)
    assert np.array_equal(val, mag_lagrangian(m, q))
    assert np.array_equal(lv, mag_momentum(m, q))


def _with_full_chain(m, q):
    """The evaluator's three arrays with the boundary chain applied unconditionally."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val, u, log_u = _boundary_cases(*_ratio_log(m, q))
        return val, 0.5 * (u - 1.0 / u), 0.5 * log_u


@pytest.mark.parametrize("m_special, q_special", [
    (0.3, 0.0), (-0.3, -0.0), (0.0, 0.0),  # q == 0 inside: the closed form is already exact
    (1.0, 0.0), (-1.0, 0.0),  # q == 0 on the boundary
    (1.0, 0.7), (1.0, -0.7), (-1.0, 0.7), (-1.0, -0.7),  # on the boundary, both velocity signs
    (1.2, -3.0), (-1.5, 0.4),  # outside the state interval
    (np.nan, 0.2), (0.1, np.nan),
    (0.0, -1.0),  # interior only: the chain is skipped
])
def test_value_and_partials_match_full_boundary_chain(m_special, q_special):
    m = np.linspace(-0.9, 0.9, 9)
    q = np.linspace(-2.0, 2.0, 9) + 0.1
    m[4], q[4] = m_special, q_special
    got = mag_value_and_partials(m, q)
    want = _with_full_chain(m, q)
    for a, b in zip(got, want):
        assert a.shape == b.shape == m.shape
        assert a.tobytes() == b.tobytes()
    # the scalar and broadcast calls agree with the 1-d call node by node
    val0, lx0, lv0 = mag_value_and_partials(m[4], q[4])
    assert np.array_equal([val0, lx0, lv0], [got[0][4], got[1][4], got[2][4]], equal_nan=True)
    assert np.array_equal(mag_value_and_partials(m[4], q)[0][4], got[0][4], equal_nan=True)


def _lagrangian_inputs():
    rng = np.random.default_rng(20261018)
    m = rng.uniform(-1.0, 1.0, 20000)
    q = np.concatenate([rng.uniform(-8.0, 8.0, 10000),
                        10.0 ** rng.uniform(-12.0, 3.0, 10000)])
    ms = np.concatenate([m, m, m, m])
    qs = np.concatenate([q, -q, np.zeros(20000), np.full(20000, -0.0)])
    special = [(s * 1.0, z) for s in (1.0, -1.0) for z in (0.7, -0.7, 0.0, -0.0)]
    special += [(1.2, 0.3), (-1.2, -0.3), (1.0 - 1e-12, 0.5), (1.0 - 1e-12, -0.5),
                (-(1.0 - 1e-12), 0.5), (1.0 - 1e-12, 0.0), (0.3, 1e300), (0.3, -1e300)]
    special += [(x, 0.4) for x in (math.nan, math.inf, -math.inf)]
    special += [(0.4, x) for x in (math.nan, math.inf, -math.inf)]
    sm, sq = zip(*special)
    return np.concatenate([ms, sm]), np.concatenate([qs, sq])


def test_mag_lagrangian_scalar_branch_equals_0d_path():
    ms, qs = _lagrangian_inputs()
    with np.errstate(over="ignore"):  # q = +-1e300 overflows q * q on either path
        ref = np.array([mag_lagrangian(np.asarray(m), np.asarray(q)) for m, q in zip(ms, qs)])
        outs = {cast: [mag_lagrangian(cast(m), cast(q)) for m, q in zip(ms, qs)]
                for cast in (float, np.float64)}
    for out in outs.values():
        assert all(type(v) is float for v in out)
        got = np.array(out)
        bad = got.view(np.uint64) != ref.view(np.uint64)
        assert not bad.any(), list(zip(ms[bad][:5], qs[bad][:5]))
    assert mag_lagrangian(1.0, 0.7) == math.inf and mag_lagrangian(-1.0, -0.7) == math.inf
    assert mag_lagrangian(1.2, 0.0) == math.inf and mag_lagrangian(math.nan, 0.4) == math.inf
    # mag_momentum's scalar branch shares the ratio, on the same grid
    with np.errstate(over="ignore"):
        ref = np.array([float(mag_momentum(np.asarray(m), np.asarray(q))) for m, q in zip(ms, qs)])
        outs = {cast: [mag_momentum(cast(m), cast(q)) for m, q in zip(ms, qs)]
                for cast in (float, np.float64)}
    for out in outs.values():
        assert all(isinstance(v, float) for v in out)
        got = np.array(out, dtype=float)
        bad = got.view(np.uint64) != ref.view(np.uint64)
        assert not bad.any(), list(zip(ms[bad][:5], qs[bad][:5]))


@pytest.mark.parametrize("m", [0.3, -0.7, 0.0])
@pytest.mark.parametrize("q", [1e300, -1e300, 2e154, -2e154])
def test_lagrangian_finite_where_q_squared_overflows(m, q):
    # q * q overflows; L itself is finite, close to its large-|q| asymptote
    asymptote = (abs(q) / 2) * (math.log(abs(q) / (1.0 - m if q > 0 else 1.0 + m)) - 1.0) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [mag_lagrangian(np.asarray(m), np.asarray(q)), mag_lagrangian(m, q),
                  mag_value_and_partials(np.array([m, 0.1]), np.array([q, 0.5]))[0][0]]
    for v in values:
        assert math.isfinite(v)
        assert abs(v - asymptote) <= 1e-12 * asymptote


@pytest.mark.parametrize("m", [0.3, -0.7, 0.0])
@pytest.mark.parametrize("q", [1e300, -1e300, 2e154, -2e154])
def test_partials_finite_where_q_squared_overflows(m, q):
    # u = e^{2p*} is about |q|/(1 - m) for q > 0 and (1 + m)/|q| for q < 0, so
    # dL/dv = log(u)/2 and dL/dm = (u - 1/u)/2 are finite, like the value
    ratio = abs(q) / (1.0 - m if q > 0 else 1.0 + m)
    sign = 1.0 if q > 0 else -1.0
    want_dv, want_dm = sign * 0.5 * math.log(ratio), sign * 0.5 * ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = mag_value_and_partials(np.array([m, 0.1]), np.array([q, 0.5]))
        scalar = mag_value_and_partials(m, q)
        momentum = mag_momentum(m, q)
    for _, dm, dv in (tuple(x[0] for x in batch), scalar):
        assert abs(dv - want_dv) <= 1e-12 * abs(want_dv)
        assert abs(dm - want_dm) <= 1e-12 * abs(want_dm)
    assert momentum == batch[2][0] == scalar[2]


def test_overflow_repair_keeps_the_other_nodes_bytes():
    # the boundary chain runs in both calls (m = +-1 nodes); only the
    # overflow nodes differ between them
    m = np.array([-0.9, -0.4, 0.3, 0.3, 0.0, 1.0, 0.6, -1.0, 0.2])
    q = np.array([-2.0, 0.7, 1e300, -1e300, 0.0, 0.7, 3e200, -0.5, 1.5])
    over = np.abs(q) > 1e154
    got = mag_value_and_partials(m, q)
    want = mag_value_and_partials(m[~over], q[~over])
    for a, b in zip(got, want):
        assert a[~over].tobytes() == b.tobytes()
        assert np.isfinite(a[over]).all()


def test_hamilton_rhs_reference():
    for m in (-0.5, 0.0, 0.7):
        dm, dp = mag_hamilton_rhs(m, 0.0)
        assert abs(dm + 2.0 * m) <= 1e-14
        assert dp == 0.0
    dm, dp = mag_hamilton_rhs(0.0, 0.4)
    assert abs(dm - 2.0 * math.sinh(0.8)) <= 1e-12
    assert abs(dp - math.sinh(0.8)) <= 1e-12


def test_extremal_pure_modes():
    c1, c2, path = mag_extremal(0.5, 0.5 * math.exp(-2.0), 1.0)
    assert abs(c1) <= 1e-15
    assert abs(c2 - 0.5) <= 1e-15
    c1, c2, path = mag_extremal(0.4 * math.exp(-2.0), 0.4, 1.0)
    assert abs(c2) <= 1e-15
    assert abs(c1 - 0.4 * math.exp(-2.0)) <= 1e-15


def test_extremal_linear_solve_oracle():
    T = 1.0
    A = np.array([[1.0, 1.0], [math.exp(2 * T), math.exp(-2 * T)]])
    expect = np.linalg.solve(A, np.array([0.5, 0.0]))
    c1, c2, _ = mag_extremal(0.5, 0.0, T)
    assert abs(c1 - expect[0]) <= 1e-14
    assert abs(c2 - expect[1]) <= 1e-14
    assert abs(c1 + 0.00933) <= 2e-5


def test_extremal_domain_validation():
    with pytest.raises(PathLeavesDomain):
        mag_extremal(1.1, 0.0, 1.0)
    # valid endpoints never escape: holding 0.9 at both ends dips toward 0
    _, _, path = mag_extremal(0.9, 0.9, 4.0)
    t = np.linspace(0, 4, 401)
    vals = path(t)
    assert np.max(np.abs(vals)) <= 0.9 + 1e-12
    assert np.min(vals) < 0.1
    # m'' = 4m: between in-range endpoints |m| never exceeds the larger end
    grid = np.linspace(-1.0, 1.0, 11)
    for T in (0.05, 1.0, 4.0):
        t = np.linspace(0.0, T, 801)
        for m0 in grid:
            for mT in grid:
                _, _, path = mag_extremal(m0, mT, T)
                assert np.max(np.abs(path(t))) <= max(abs(m0), abs(mT)) + 1e-12
    with pytest.raises(PathLeavesDomain):
        mag_extremal(0.0, -1.001, 2.0)


def test_exact_log_prob_small_cases():
    # two spins both up staying up: independent sign-preservation squared
    for T in (0.2, 0.7, 2.0):
        expect = 2.0 * math.log(0.5 * (1 + math.exp(-2 * T)))
        assert abs(mag_exact_log_prob(2, 1.0, T, 1.0) - expect) <= 1e-13
    # short horizon, unchanged magnetization: probability -> 1
    assert abs(mag_exact_log_prob(100, 0.5, 1e-9, 0.5)) <= 1e-5


def test_exact_log_prob_sums_to_one():
    n, m0, T = 40, 0.5, 0.8
    total = 0.0
    for up in range(n + 1):
        mT = 2.0 * up / n - 1.0
        total += math.exp(mag_exact_log_prob(n, m0, T, mT))
    assert abs(total - 1.0) <= 1e-12


def test_exact_log_prob_validates_endpoints():
    with pytest.raises(ValueError):
        mag_exact_log_prob(10, 0.55, 1.0, 0.0)


def test_constrained_pressure_endpoints():
    assert abs(mag_constrained_pressure(1.3, 0.4, 0.0) - 1.3 * 0.4) <= 1e-12
    assert abs(mag_constrained_pressure(1.3, 0.4, 50.0) - math.log(math.cosh(1.3))) <= 1e-12
    assert mag_constrained_pressure(0.0, 0.3, 0.7) == 0.0


def test_constrained_pressure_time_derivative_is_hamiltonian():
    h = 1e-4
    for lam in (-1.5, -0.3, 0.6, 2.0):
        for m in (-0.8, 0.0, 0.5):
            f = lambda t: mag_constrained_pressure(lam, m, t)
            fd = (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
            assert abs(fd - mag_hamiltonian(m, lam)) <= 1e-6


class _BiasedSampler:
    """A generator whose flip counts are Poisson(1.05 t) instead of Poisson(t)."""

    def __init__(self, rng):
        self._rng = rng

    def poisson(self, lam, size):
        return self._rng.poisson(1.05 * lam, size)


@pytest.mark.parametrize("seed", [vf.DEFAULTS["seed"], 0, 1, 2])
def test_criterion_9_fails_for_a_biased_sampler(monkeypatch, seed):
    monkeypatch.setattr(vf, "rng_from", lambda s: _BiasedSampler(rng_from(s)))
    res = vf.criterion_9({**vf.DEFAULTS, "seed": seed})
    assert not res.passed
    assert float(res.detail.split("|z| ")[1].split()[0]) > 3.0


def test_oracle_rate_decreases_toward_action():
    # -(1/N) log P approaches the minimized action from above as N grows
    from spinldp.trajectory import TrajectoryGrid, action_integral

    _, _, path = mag_extremal(0.5, 0.0, 0.5)
    t = np.linspace(0, 0.5, 801)
    action = action_integral(mag_model(), TrajectoryGrid(T=0.5, steps=800, values=path(t)))
    gaps = []
    for n in (200, 500, 1000, 2000):
        rate = -mag_exact_log_prob(n, 0.5, 0.5, 0.0) / n
        gaps.append(abs(rate - action))
    assert gaps[-1] < gaps[0]
    assert gaps[-1] <= 0.05


def test_endpoint_rate_zero_on_drift_and_nonnegative():
    m0 = np.linspace(-1.0, 1.0, 41)
    for T in (0.01, 0.3, 1.0, 4.0):
        for x in m0:
            assert mag_endpoint_rate(x, x * math.exp(-2.0 * T), T) == 0.0
        for mT in np.linspace(-1.0, 1.0, 41):
            assert np.all(mag_endpoint_rate(m0, float(mT), T) >= 0.0)


@pytest.mark.parametrize("m0, mT, T", [
    (0.3, 0.5, 1.0), (-0.8, 0.7, 0.3), (0.5, -0.9, 2.0), (0.9, 0.95, 0.05), (0.0, 0.0, 0.7),
    (-0.2, -0.6, 0.1), (1.0, 0.3, 0.5), (-1.0, 0.3, 0.5),
])
def test_endpoint_rate_is_legendre_transform_of_constrained_pressure(m0, mT, T):
    res = minimize_scalar(lambda lam: mag_constrained_pressure(lam, m0, T) - lam * mT,
                          bracket=(-1.0, 1.0), tol=1e-12)
    assert abs(mag_endpoint_rate(m0, mT, T) + res.fun) <= 1e-12


@pytest.mark.parametrize("m0, mT, T", [(0.2, -0.4, 1.0), (0.6, 0.1, 0.3), (-0.5, 0.7, 2.0)])
def test_endpoint_rate_is_large_n_limit_of_exact_oracle(m0, mT, T):
    # -log P / N = K_T + (1/2) log N / N + O(1/N): the Gaussian prefactor
    ns = np.arange(100, 1001, 100)
    excess = np.array([-mag_exact_log_prob(int(n), m0, T, mT) / n for n in ns])
    excess -= mag_endpoint_rate(m0, mT, T)
    (c, _), *_ = np.linalg.lstsq(np.column_stack([np.log(ns) / ns, 1.0 / ns]), excess, rcond=None)
    assert 0.45 <= c <= 0.55


def test_endpoint_rate_limit_at_the_domain_edge():
    m0 = np.linspace(-1.0, 1.0, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (0.05, 1.0, 3.0):
            for edge in (1.0, -1.0):
                at = mag_endpoint_rate(m0, edge, T)
                near = mag_endpoint_rate(m0, edge * (1.0 - 1e-12), T)
                assert np.all(np.isfinite(at))
                assert np.max(np.abs(at - near)) <= 1e-9
                s = math.exp(-2.0 * T)
                closed = (-0.5 * (1.0 + edge * m0) * math.log((1.0 + s) / 2.0)
                          - 0.5 * (1.0 - edge * m0) * math.log((1.0 - s) / 2.0))
                assert np.max(np.abs(at - closed)) <= 1e-12


def test_endpoint_rate_finite_from_the_poles():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mT in (-1.0, -0.5, 0.0, 0.7, 1.0):
            vals = mag_endpoint_rate(np.array([-1.0, 1.0]), mT, 0.4)
            assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


def test_endpoint_rate_rejects_points_outside_the_domain():
    with pytest.raises(PathLeavesDomain):
        mag_endpoint_rate(0.0, 1.0 + 1e-12, 1.0)
    with pytest.raises(PathLeavesDomain):
        mag_endpoint_rate(np.array([0.0, -1.5]), 0.0, 1.0)
    with pytest.raises(ValueError):
        mag_endpoint_rate(0.0, 0.0, 0.0)
