import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinldp.coefficients import (
    CoefficientMap,
    apply_D,
    empirical_average,
    evaluate_translations,
)
from spinldp.errors import DependenceSetTooLarge
from spinldp import lattice
from spinldp.lattice import LocalRateSpec, SpinConfiguration, nonlinear_generator_exact
from spinldp.seeding import child_seed, rng_from


def test_apply_d_constant_vanishes():
    one = CoefficientMap.constant(1, 3.5)
    assert apply_D(one).terms == {}


def test_apply_d_single_site_eigenfunction():
    f0 = CoefficientMap.basis(1, [(0,)])
    out = apply_D(f0, side=21)
    assert out.terms == {((0,),): -2.0}


def test_apply_d_pair_observable():
    f = CoefficientMap.basis(1, [(0,), (1,)])
    out = apply_D(f, side=21)
    assert out.terms == {((0,), (1,)): -2.0, ((-1,), (0,)): -2.0}


def test_apply_d_linearity_exact():
    rng = rng_from(3)
    f = CoefficientMap.build(1, [([(0,)], 0.3), ([(1,), (2,)], -0.7)])
    g = CoefficientMap.build(1, [([(0,)], 1.1), ([(0,), (3,)], 0.4)])
    lhs = apply_D(f.scale(2.0) + g.scale(-3.0), side=11)
    rhs = apply_D(f, side=11).scale(2.0) + apply_D(g, side=11).scale(-3.0)
    assert lhs.terms == rhs.terms


def test_repeated_offsets_cancel():
    # s_i^2 = 1: a doubled site drops out of the product set
    f = CoefficientMap.build(1, [([(0,), (0,), (1,)], 2.0)])
    assert f.terms == {((1,),): 2.0}


def test_d2_apply_d():
    f = CoefficientMap.basis(2, [(0, 0), (1, 0)])
    out = apply_D(f, side=9)
    assert out.terms == {
        ((0, 0), (1, 0)): -2.0,
        ((-1, 0), (0, 0)): -2.0,
    }


def test_empirical_average_basics():
    cfg = SpinConfiguration.random(1, 31, seed=5)
    one = CoefficientMap.constant(1, 1.0)
    assert empirical_average(one, cfg.values) == 1.0
    f0 = CoefficientMap.basis(1, [(0,)])
    assert abs(empirical_average(f0, cfg.values) - cfg.magnetization()) <= 1e-15


def test_empirical_average_against_site_by_site():
    rng = rng_from(11)
    cfg = SpinConfiguration.random(1, 11, seed=7)
    f = CoefficientMap.build(
        1, [([(0,), (2,)], 0.5), ([(1,)], -1.2), ([(0,), (1,), (3,)], 0.25)]
    )
    direct = 0.0
    s = cfg.values
    for j in range(11):
        val = 0.0
        for key, coef in f.terms.items():
            prod = 1.0
            for (o,) in key:
                prod *= s[(j + o) % 11]
            val += coef * prod
        direct += val
    assert abs(empirical_average(f, s) - direct / 11) <= 1e-13


def test_dependence_set_too_large():
    f = CoefficientMap.basis(1, [(0,), (6,)])
    cfg = SpinConfiguration.random(1, 11, seed=1)
    with pytest.raises(DependenceSetTooLarge):
        empirical_average(f, cfg.values)


def test_translation_covariance_exhaustive_small_torus():
    # sum_j [f(tau_j s^k) - f(tau_j s)] equals (Df)(tau_k s), checked over
    # every configuration of a side-7 ring
    side = 7
    f = CoefficientMap.build(1, [([(0,)], 1.0), ([(0,), (1,)], -0.5), ([(2,)], 0.25)])
    df = apply_D(f, side=side)
    for bits in itertools.product((-1, 1), repeat=side):
        s = np.array(bits, dtype=np.int8)
        base = evaluate_translations(f, s).sum()
        df_vals = evaluate_translations(df, s)
        for k in range(side):
            flipped = s.copy()
            flipped[k] = -flipped[k]
            lhs = evaluate_translations(f, flipped).sum() - base
            assert abs(lhs - df_vals[k]) <= 1e-10


def test_nonlinear_generator_identity_random():
    worst = 0.0
    for i in range(25):
        rng = rng_from(child_seed(21, i))
        dim, side = (1, 21) if i % 2 == 0 else (2, 9)
        cfg = SpinConfiguration.random(dim, side, child_seed(22, i))
        rates = LocalRateSpec.random_table(dim, 1, child_seed(23, i))
        entries = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, 4))
            offs = set()
            while len(offs) < size:
                offs.add(tuple(int(x) for x in rng.integers(-3, 4, size=dim)))
            entries.append((tuple(sorted(offs)), float(rng.uniform(-0.15, 0.15))))
        f = CoefficientMap.build(dim, entries)
        lhs, rhs = nonlinear_generator_exact(cfg, f, rates)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_nonlinear_generator_single_site_reduces_to_hamiltonian():
    from spinldp.magnetization import mag_hamiltonian

    cfg = SpinConfiguration.random(1, 41, seed=2)
    rates = LocalRateSpec.constant(1.0, 1)
    lam = 0.61
    f = CoefficientMap.basis(1, [(0,)]).scale(lam)
    lhs, rhs = nonlinear_generator_exact(cfg, f, rates)
    expect = mag_hamiltonian(cfg.magnetization(), lam)
    assert abs(rhs - expect) <= 1e-12
    assert abs(lhs - expect) <= 1e-12


def test_zero_function_gives_zero():
    cfg = SpinConfiguration.random(1, 11, seed=3)
    rates = LocalRateSpec.random_table(1, 1, seed=4)
    f = CoefficientMap.build(1, [])
    lhs, rhs = nonlinear_generator_exact(cfg, f, rates)
    assert lhs == 0.0 and rhs == 0.0


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_apply_d_linearity_property(a, b):
    f = CoefficientMap.build(1, [([(0,)], 0.4), ([(1,), (3,)], -0.9)])
    g = CoefficientMap.build(1, [([(2,)], 0.7)])
    lhs = apply_D(f.scale(a) + g.scale(b))
    rhs = apply_D(f).scale(a) + apply_D(g).scale(b)
    keys = set(lhs.terms) | set(rhs.terms)
    for k in keys:
        assert abs(lhs.terms.get(k, 0.0) - rhs.terms.get(k, 0.0)) <= 1e-12


def _flip_deltas_one_at_a_time(config, f):
    """The reference enumeration: one evaluate_translations call per flip."""
    spins = config.values
    base = float(np.sum(evaluate_translations(f, spins)))
    deltas = np.empty(config.n_sites)
    flat = spins.ravel()
    for k in range(config.n_sites):
        flipped = flat.copy()
        flipped[k] = -flipped[k]
        deltas[k] = float(np.sum(evaluate_translations(f, flipped.reshape(spins.shape)))) - base
    return deltas


def _mixed_observable(dim):
    """A constant, a set whose repeated offsets cancel to a single site, one
    that cancels to the constant, and a spread-out product."""
    o = lambda *x: tuple(x) + (0,) * (dim - len(x))
    return CoefficientMap.build(dim, [
        ((), 0.4),
        ([o(0), o(0), o(2)], -0.3),
        ([o(1), o(1)], 0.25),
        ([o(-3), o(1), o(2, 1) if dim == 2 else o(2)], 0.11),
        ([o(0), o(1)], 0.7),
    ])


@pytest.mark.parametrize("dim, side, blocks", [(1, 21, 1), (2, 9, 1), (1, 601, 6), (2, 27, 9)])
def test_flip_deltas_equal_one_flip_at_a_time(dim, side, blocks):
    cfg = SpinConfiguration.random(dim, side, seed=side)
    f = _mixed_observable(dim)
    assert () in f.terms and len(f.terms) == 4  # the constant absorbed the cancelled set
    rows = lattice._FLIP_BLOCK // cfg.n_sites
    assert -(-cfg.n_sites // rows) == blocks
    assert np.array_equal(lattice._flip_deltas(cfg, f), _flip_deltas_one_at_a_time(cfg, f))


@pytest.mark.parametrize("dim, side, block", [(1, 21, 100), (2, 9, 50), (2, 9, 243)])
def test_flip_deltas_block_boundaries(monkeypatch, dim, side, block):
    # 100 // 21 = 4 rows leave a last block of 1; 50 < 81 sites gives one
    # row per block; 243 = 3 rows of 81 divides evenly
    monkeypatch.setattr(lattice, "_FLIP_BLOCK", block)
    cfg = SpinConfiguration.random(dim, side, seed=block)
    f = _mixed_observable(dim)
    assert np.array_equal(lattice._flip_deltas(cfg, f), _flip_deltas_one_at_a_time(cfg, f))


@pytest.mark.parametrize("batch_shape, dim, side", [((5,), 2, 9), ((7,), 1, 21), ((2, 3), 1, 21)])
def test_evaluate_translations_batch_equals_stacked_calls(batch_shape, dim, side):
    rng = rng_from(31)
    spins = np.where(rng.random(batch_shape + (side,) * dim) < 0.5, 1, -1).astype(np.int8)
    f = _mixed_observable(dim)
    batched = evaluate_translations(f, spins)
    flat = spins.reshape((-1,) + (side,) * dim)
    stacked = np.stack([evaluate_translations(f, s) for s in flat]).reshape(batched.shape)
    assert np.array_equal(batched, stacked)


def test_flip_deltas_memory_is_bounded_by_the_block():
    side = 2001
    cfg = SpinConfiguration.random(1, side, seed=4)
    f = _mixed_observable(1)
    tracemalloc.start()
    try:
        lattice._flip_deltas(cfg, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unchunked float block of all n flipped copies alone is 8 n^2 bytes
    # (32 MB); a capped block costs a few arrays of 8 * _FLIP_BLOCK bytes
    assert peak <= 8 * 8 * lattice._FLIP_BLOCK
    assert peak <= 8 * side * side / 8
