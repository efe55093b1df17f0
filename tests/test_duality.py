import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinldp.duality import conjugate, duality_gap
from spinldp.errors import NonCoercive, NotConvex
from spinldp.magnetization import mag_hamiltonian, mag_hamiltonian_dp, mag_lagrangian, mag_momentum
from spinldp.poisson_walk import PoissonWalkParams, pw_hamiltonian, pw_lagrangian


def test_self_conjugate_quadratic():
    res = conjugate(lambda p: 0.5 * p * p, 1.0)
    assert abs(res.value - 0.5) <= 1e-10
    assert abs(res.argmax - 1.0) <= 1e-6


def test_exponential_conjugate_at_one():
    # conjugate of e^p - 1 is q log q - q + 1, zero at q = 1
    res = conjugate(lambda p: math.exp(p) - 1.0, 1.0)
    assert abs(res.value) <= 1e-10
    assert abs(res.argmax) <= 1e-6


def test_magnetization_hamiltonian_slice():
    res = conjugate(lambda p: mag_hamiltonian(0.0, p), 2.0)
    exact = math.log(1.0 + math.sqrt(2.0)) - math.sqrt(2.0) + 1.0
    assert abs(res.value - exact) <= 1e-10


def test_argmax_stationarity_with_derivative():
    res = conjugate(math.cosh, 0.7, deriv=math.sinh)
    assert abs(math.sinh(res.argmax) - 0.7) <= 1e-8


def test_noncoercive_detected():
    # slope below the asymptotic slope of a one-sided exponential: sup is +inf
    with pytest.raises(NonCoercive):
        conjugate(lambda p: math.exp(p) - 1.0, -0.5)


def test_not_convex_detected():
    with pytest.raises(NotConvex):
        conjugate(lambda p: -p * p, 1.0)


def test_far_maximizer_is_reached_by_expansion():
    # the maximizer sits at p = 300, far outside the default [-50, 50]
    res = conjugate(lambda p: 0.5e-2 * p * p, 3.0)
    assert abs(res.argmax - 300.0) <= 1e-3
    assert abs(res.value - 450.0) <= 1e-8


def test_duality_gap_quadratic_pair_zero():
    gap = duality_gap(
        lambda x, p: 0.5 * p * p, lambda x, q: 0.5 * q * q,
        [0.0], np.linspace(-2, 2, 11),
    )
    assert gap <= 1e-9


def test_duality_gap_offset_pair():
    gap = duality_gap(
        lambda x, p: 0.5 * p * p, lambda x, q: 0.5 * q * q + 0.1,
        [0.0], np.linspace(-2, 2, 5),
    )
    assert abs(gap - 0.1) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(-3, 3),
    q=st.floats(-3, 3),
)
def test_fenchel_inequality_cosh(p, q):
    star = conjugate(lambda x: math.cosh(x) - 1.0, q, deriv=math.sinh).value
    assert p * q <= (math.cosh(p) - 1.0) + star + 1e-8


@settings(max_examples=25, deadline=None)
@given(x=st.floats(-2, 2))
def test_double_conjugation_recovers_convex_function(x):
    def fstar(q):
        return conjugate(lambda p: math.cosh(p) - 1.0, q, deriv=math.sinh).value

    back = conjugate(fstar, x, bracket=(-60.0, 60.0))
    assert abs(back.value - (math.cosh(x) - 1.0)) <= 1e-6


# Criterion 1's grids.  For the magnetization Lagrangian at slope p the
# maximizer is dH/dp, 2 sinh(2p) at m = 0: beyond the bracket [-50, 50] for
# |p| >= 2, so those slopes take bracket doublings and the rest do not.
MGRID = np.round(np.arange(-0.9, 0.91, 0.1), 10)
SGRID = np.round(np.arange(-4.0, 4.01, 0.1), 10)


def _scalar_h(m, p):
    # mag_hamiltonian's array path (np.expm1) on one float
    return float(mag_hamiltonian(np.array([m]), np.array([p]))[0])


def _scalar_h_dp(m, p):
    return float(mag_hamiltonian_dp(np.array([m]), np.array([p]))[0])


@pytest.mark.parametrize("l_family, l_deriv, scalar_l, scalar_deriv", [
    (mag_lagrangian, mag_momentum, mag_lagrangian, mag_momentum),
    (mag_hamiltonian, mag_hamiltonian_dp, _scalar_h, _scalar_h_dp),
], ids=["L", "H"])
def test_batched_gap_equals_a_per_point_conjugate_loop_bit_for_bit(
        l_family, l_deriv, scalar_l, scalar_deriv):
    slopes = SGRID[::4]
    assert np.any(2.0 * np.sinh(2.0 * np.abs(slopes)) > 50.0)
    assert np.any(2.0 * np.sinh(2.0 * np.abs(slopes)) < 50.0)
    loop = {}
    for m in MGRID[::3].tolist():
        for p in slopes.tolist():
            loop[m, p] = conjugate(lambda q: scalar_l(m, q), p, deriv=lambda q: scalar_deriv(m, q),
                                   convexity_check=False).value

    # H(x, p) is the loop's own value, so the gap is 0 iff every batched
    # value equals its scalar one bit for bit
    def h_family(x, p):
        return np.array([loop[k] for k in zip(x.tolist(), p.tolist())])

    assert duality_gap(h_family, l_family, MGRID[::3], slopes, l_deriv=l_deriv) == 0.0


def test_one_noncoercive_slope_in_a_batch_raises_naming_it():
    # at x = 0.5, e^q - 1 grows only rightward: sup_q [p q - e^q + 1] = +inf
    # for p < 0; every other (x, p) pair of the batch is coercive
    def l_family(x, q):
        return np.where(x == 0.5, np.expm1(q), 0.5 * q * q)

    with pytest.raises(NonCoercive, match=r"leftward after 60 expansions at x=0\.5, p=-0\.25$"):
        duality_gap(lambda x, p: 0.0 * p, l_family, [0.0, 0.5, 1.0], [0.5, 1.0, -0.25, 2.0])


def test_not_convex_at_one_state_of_three_names_it():
    def l_family(x, q):
        return np.where(x == 0.5, np.cos(q), 0.5 * q * q)

    with pytest.raises(NotConvex, match=r"at x=0\.5 near q="):
        duality_gap(lambda x, p: 0.5 * p * p, l_family, [0.0, 0.5, 1.0], [0.0, 1.0])


def test_nan_difference_makes_the_gap_nan():
    gap = duality_gap(lambda x, p: np.where(p > 0, np.nan, 0.5 * p * p), lambda x, q: 0.5 * q * q,
                      [0.0], [-1.0, 1.0])
    assert math.isnan(gap)


def test_gap_evaluator_calls_are_bounded():
    # one lockstep batch per direction on criterion 1's grid; a per-point
    # loop over its 19 x 81 pairs makes about 10^5 calls
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(1)
            return fn(*args)
        return wrapped

    for h, l, dl in ((mag_hamiltonian, mag_lagrangian, mag_momentum),
                     (mag_lagrangian, mag_hamiltonian, mag_hamiltonian_dp)):
        calls.clear()
        gap = duality_gap(counted(h), counted(l), MGRID, SGRID, l_deriv=counted(dl))
        assert gap <= 1e-8
        assert len(calls) <= 300


# The array paths use np.expm1 and np.exp where the float paths use math's;
# the two differ by at most 2 ulp of the value on these grids.
ARRAY_TOL = 4 * np.finfo(float).eps


def _agrees(array_fn, float_fn, *args):
    arr = array_fn(*args)
    ref = np.array([float_fn(*vals) for vals in zip(*(a.tolist() for a in args))])
    assert arr.shape == ref.shape
    fin = np.isfinite(ref)
    assert np.array_equal(arr[~fin], ref[~fin])
    assert np.all(np.abs(arr[fin] - ref[fin]) <= ARRAY_TOL * np.maximum(1.0, np.abs(ref[fin])))
    return arr


def test_hamiltonian_array_paths_agree_with_the_float_paths_and_overflow_to_inf():
    p = np.concatenate([np.linspace(-400.0, 400.0, 801), [-354.9, 354.9, 355.0]])
    m, p = (a.ravel() for a in np.meshgrid(np.linspace(-1.0, 1.0, 21), p))
    h = _agrees(mag_hamiltonian, mag_hamiltonian, m, p)
    assert np.all(h[np.abs(p) >= 355.0] == np.inf)
    dh = _agrees(mag_hamiltonian_dp, mag_hamiltonian_dp, m, p)
    assert np.all(dh[p >= 355.0] == np.inf) and np.all(dh[p <= -355.0] == -np.inf)
    lam = np.linspace(-800.0, 800.0, 1601)
    for params in (PoissonWalkParams(2.0, 1.0, 1), PoissonWalkParams(2.0, 0.0, 1)):
        hp = _agrees(lambda v: pw_hamiltonian(v, params), lambda v: pw_hamiltonian(v, params), lam)
        assert np.all(hp[np.abs(lam) >= 710.0] == np.inf)


def test_empty_grid_gap_is_zero():
    assert duality_gap(lambda x, p: p, lambda x, q: 0.5 * q * q, [], [1.0]) == 0.0
    assert duality_gap(lambda x, p: p, lambda x, q: 0.5 * q * q, [0.0], []) == 0.0


def _reference_conjugate(fn, slope, deriv=None, bracket=(-50.0, 50.0)):
    """The scalar scheme _lockstep runs on every element, written out on
    Python floats: the reference its branches and float operations must
    match bit for bit.  NonCoercive is returned as None."""

    def ev(f, p):
        try:
            v = float(f(p))
        except OverflowError:
            return math.inf
        return math.inf if math.isnan(v) else v

    def g(p):
        v = ev(fn, p)
        return -math.inf if math.isinf(v) else slope * p - v

    a, b = bracket
    m = 0.5 * (a + b)
    ga, gb, gm = g(a), g(b), g(m)
    step, doublings = b - a, 0
    while gm < ga:
        if doublings == 60:
            return None
        doublings += 1
        b, gb, m, gm = m, gm, a, ga
        step *= 2.0
        a -= step
        ga = g(a)
    doublings = 0
    while gm < gb:
        if doublings == 60:
            return None
        doublings += 1
        a, ga, m, gm = m, gm, b, gb
        step *= 2.0
        b += step
        gb = g(b)
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - gold * (b - a), a + gold * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > 1e-8 * (1.0 + abs(a) + abs(b)):
        if g1 < g2:
            a, x1, g1 = x1, x2, g2
            x2 = a + gold * (b - a)
            g2 = g(x2)
        else:
            b, x2, g2 = x2, x1, g1
            x1 = b - gold * (b - a)
            g1 = g(x1)
    p_star = x1 if g1 >= g2 else x2
    if deriv is not None:
        p = p_star
        for _ in range(40):
            h = ev(deriv, p) - slope
            dp = 1e-6 * (1.0 + abs(p))
            hp = (ev(deriv, p + dp) - ev(deriv, p - dp)) / (2.0 * dp)
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
    return g(p_star), p_star


WALK_D0 = PoissonWalkParams(2.0, 0.0, 1)


@pytest.mark.parametrize("fn, deriv", [
    (lambda p: math.cosh(p) - 1.0, math.sinh),
    (lambda p: math.cosh(p) - 1.0, None),
    (lambda p: 0.5e-2 * p * p, lambda p: 1e-2 * p),  # maximizers far outside the bracket
    (lambda a: pw_lagrangian(a, WALK_D0), None),  # +inf below zero velocity
    (lambda q: mag_lagrangian(1.0 - 1e-6, q), lambda q: mag_momentum(1.0 - 1e-6, q)),
    (lambda p: math.exp(p) - 1.0, math.exp),  # NonCoercive for slopes < 0
], ids=["cosh", "cosh-no-deriv", "far-quadratic", "walk-d0", "mag-edge", "exp"])
def test_conjugate_equals_the_scalar_reference_bit_for_bit(fn, deriv):
    for slope in np.linspace(-30.0, 30.0, 61).tolist():
        want = _reference_conjugate(fn, slope, deriv)
        if want is None:
            with pytest.raises(NonCoercive):
                conjugate(fn, slope, deriv=deriv, convexity_check=False)
            continue
        got = conjugate(fn, slope, deriv=deriv, convexity_check=False)
        assert (got.value, got.argmax) == want
