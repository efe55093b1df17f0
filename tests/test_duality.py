import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinldp.duality import conjugate, duality_gap
from spinldp.errors import NonCoercive, NotConvex
from spinldp.magnetization import mag_hamiltonian


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
