"""The float definition of the built-in rate functions against their
array views.

fun_grad calls evaluator and derivative with one Python float per objective
evaluation; a 0-d or vector argument maps that same float function over its
entries.  A grid of I must equal the objective's I bit for bit, so every
such comparison is on the float64 bits, never a tolerance.  The double
well's wells are checked against m = tanh(beta m) and SciPy's brentq.
"""

import hashlib
import math

import numpy as np
import pytest

from spinldp.rate_functions import bernoulli_rate, double_well_rate, tabulated_rate

SPECS = {"bernoulli": bernoulli_rate(0.5), "double_well": double_well_rate(1.5)}


def _inputs(spec):
    edges = [0.0, 1.0, -1.0, 1.2, -1.2, 1.0 - 1e-12, -(1.0 - 1e-12), *spec.minimizers]
    return np.concatenate([np.random.default_rng(20261018).uniform(-1.0, 1.0, 20000), edges])


@pytest.mark.parametrize("which", ["evaluator", "derivative"])
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_scalar_branch_equals_0d_path(kind, which):
    spec = SPECS[kind]
    fn = getattr(spec, which)
    xs = _inputs(spec)
    ref = np.array([float(fn(np.asarray(x))) for x in xs])
    for cast in (float, np.float64):
        out = [fn(cast(x)) for x in xs]
        assert all(type(v) is float for v in out)
        got = np.array(out)
        assert (got == ref).all(), xs[got != ref][:5]
        assert (np.signbit(got) == np.signbit(ref)).all()
    vec = fn(xs)
    assert vec.shape == xs.shape
    assert (vec.view(np.uint64) == ref.view(np.uint64)).all(), xs[vec != ref][:5]
    grid = fn(xs[:12].reshape(3, 4))
    assert (grid.ravel().view(np.uint64) == ref[:12].view(np.uint64)).all()


def test_scalar_branch_edge_values():
    b, dw = SPECS["bernoulli"], SPECS["double_well"]
    assert b.evaluator(1.5) == np.inf and dw.evaluator(-1.2) == np.inf
    assert b.derivative(1.0) == np.inf and b.derivative(-1.0) == -np.inf
    assert dw.derivative(1.2) == np.inf and dw.derivative(-1.0) == -np.inf
    assert abs(dw.evaluator(dw.minimizers[1])) <= 1e-12
    assert b.evaluator(0.5) == 0.0 and abs(b.derivative(0.5)) <= 1e-15


def _sha(values):
    return hashlib.sha256(np.asarray(values, float).tobytes()).hexdigest()


def test_nan_state_gives_nan_on_every_path():
    """A NaN state is not the minimum of the rate function: Bernoulli
    returns NaN on the scalar, 0-d and vector paths, as the double well does."""
    for spec in SPECS.values():
        for cast in (float, np.float64):
            assert math.isnan(spec.evaluator(cast(math.nan)))
        assert math.isnan(spec.evaluator(np.asarray(math.nan)))
        vec = spec.evaluator(np.array([0.2, math.nan, -0.4]))
        assert math.isnan(vec[1]) and not np.isnan(vec[[0, 2]]).any()


def test_bernoulli_bits_unchanged_off_nan():
    """sha256 of the float64 bytes over the seeded grid, recorded before NaN
    handling went in; every path must keep them."""
    spec = SPECS["bernoulli"]
    xs = _inputs(spec)
    want = "09805c18ce7dea6ed3ca1fc7cea04eddb03d318fd2ff41156c88e79b8cfd1747"
    assert _sha(spec.evaluator(xs)) == want
    assert _sha([spec.evaluator(float(x)) for x in xs]) == want
    assert _sha([float(spec.evaluator(np.asarray(x))) for x in xs]) == want


@pytest.mark.parametrize("grid, values", [([0.0, 1.0], [0.0]), ([0.0, 1.0], [[0.0, 1.0]]),
                                          ([[0.0, 1.0]], [[0.0, 1.0]])])
def test_tabulated_grid_and_values_must_be_one_length(grid, values):
    with pytest.raises(ValueError, match="one length"):
        tabulated_rate(grid, values)


@pytest.mark.parametrize("grid, values", [
    ([-1.0, 0.0, 1.0], [1.0, math.nan, 1.0]),
    ([-1.0, 0.0, 1.0], [1.0, 0.0, math.inf]),
    ([-1.0, math.nan, 1.0], [1.0, 0.0, 1.0]),
    ([-1.0, 0.0, math.inf], [1.0, 0.0, 1.0]),
])
def test_tabulated_grid_and_values_must_be_finite(grid, values):
    with pytest.raises(ValueError, match="finite"):
        tabulated_rate(grid, values)


# SciPy's brentq is a reference here; spinldp's import path may not load it.
# 14.162 lies just below the largest beta double_well_rate takes (14.162095)
BETAS = [*np.linspace(1.0, 10.0, 2001)[1:].tolist(), 1.25, 1.5, 2.0, 3.0, 14.162]
EPS = np.finfo(float).eps


def test_double_well_wells_solve_m_equals_tanh_beta_m():
    from scipy.optimize import brentq

    off = []
    for beta in BETAS:
        m = double_well_rate(beta).minimizers[1]
        brent = brentq(lambda x: math.atanh(x) - beta * x, 1e-12, 1.0 - 1e-12)
        # Newton is exact to round-off; brentq stops within its own tolerance
        if abs(m - math.tanh(beta * m)) > 4 * math.ulp(m) or abs(m - brent) > 2e-12 + 4 * EPS * m:
            off.append(beta)
    assert off == [], f"{len(off)} of {len(BETAS)} beta are off, e.g. {off[:5]}"


@pytest.mark.parametrize("beta", [math.nextafter(1.0, 2.0), 14.162])
def test_double_well_takes_the_ends_of_its_range(beta):
    lo, hi = double_well_rate(beta).minimizers
    assert lo == -hi and 0.0 < hi < 1.0
