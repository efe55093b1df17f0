import json
import math

import numpy as np
import pytest

from spinldp import cli
from spinldp.coefficients import CoefficientMap
from spinldp.lattice import (
    LocalRateSpec,
    SpinConfiguration,
    glauber_simulate,
    glauber_trajectory,
    moment_series,
    nonlinear_generator_general,
)


def test_configuration_validation():
    with pytest.raises(ValueError):
        SpinConfiguration(1, 10, np.ones(10, dtype=np.int8))  # even side
    with pytest.raises(ValueError):
        SpinConfiguration(1, 5, np.zeros(5, dtype=np.int8))  # zeros not spins
    cfg = SpinConfiguration.all_plus(2, 9)
    assert cfg.n_sites == 81 and cfg.torus_radius == 4


def test_configuration_text_round_trip():
    cfg = SpinConfiguration.random(2, 7, seed=3)
    back = SpinConfiguration.from_text(cfg.to_text(), dim=2)
    assert np.array_equal(cfg.values, back.values)


def test_rate_spec_validation_and_json():
    with pytest.raises(ValueError):
        LocalRateSpec(1, 0, np.array([1.0, 0.0]))
    # a table written as {pattern: rate}, bit k of a code the k-th character,
    # reads back through lattice-sim's table kind
    spec = LocalRateSpec.random_table(1, 1, seed=5)
    w = len(spec.offsets)
    rates = {"".join("+" if (code >> k) & 1 else "-" for k in range(w)): float(rate)
             for code, rate in enumerate(spec.table)}
    cfg = {"kind": "table", "dim": 1, "radius": 1, "rates": rates}
    back = cli._rates(json.loads(json.dumps(cfg)), "rates")
    assert np.array_equal(spec.table, back.table)


def test_rates_for_reads_window_patterns():
    spec = LocalRateSpec.from_function(
        lambda pat: 2.0 if pat[1] > 0 else 0.5, dim=1, radius=1
    )
    cfg = SpinConfiguration(1, 5, np.array([1, -1, 1, 1, -1], dtype=np.int8))
    rates = spec.rates_for(cfg)
    # pattern center is offset 0 (index 1 of the window)
    assert np.allclose(rates, [2.0, 0.5, 2.0, 2.0, 0.5])


def test_simulate_zero_horizon_identity():
    cfg = SpinConfiguration.random(1, 21, seed=1)
    out, log = glauber_simulate(cfg, LocalRateSpec.constant(1.0, 1), 0.0, seed=2)
    assert np.array_equal(out.values, cfg.values)
    assert len(log.times) == 0


def test_simulate_deterministic_and_event_count():
    cfg = SpinConfiguration.all_plus(1, 101)
    rates = LocalRateSpec.constant(1.0, 1)
    a, log_a = glauber_simulate(cfg, rates, 1.0, seed=9)
    b, log_b = glauber_simulate(cfg, rates, 1.0, seed=9)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(log_a.times, log_b.times)
    # total rate 101: expect ~101 events over [0, 1]
    assert 40 <= len(log_a.times) <= 180
    assert np.all(np.diff(log_a.times) > 0)
    assert log_a.times[-1] <= 1.0


def test_trajectory_checkpoints_monotone():
    cfg = SpinConfiguration.all_plus(1, 51)
    rates = LocalRateSpec.constant(1.0, 1)
    snaps = glauber_trajectory(cfg, rates, [0.1, 0.5, 1.0], seed=4)
    mags = [s.magnetization() for s in snaps]
    assert len(snaps) == 3
    assert mags[0] > mags[-1]  # relaxation from all-plus


def test_moment_decay_and_worker_invariance():
    rates = LocalRateSpec.constant(1.0, 1)
    times = [0.1, 0.5, 1.0]
    arr = moment_series(1, 101, rates, times, [[(0,)], [(0,), (1,)]],
                        replicas=12, master_seed=11)
    arr2 = moment_series(1, 101, rates, times, [[(0,)], [(0,), (1,)]],
                         replicas=12, master_seed=11, workers=3)
    assert np.array_equal(arr, arr2)
    mean = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    for ti, t in enumerate(times):
        for oi, a_size in enumerate((1, 2)):
            expect = math.exp(-2 * a_size * t)
            assert abs(mean[ti, oi] - expect) <= 4.0 * max(se[ti, oi], 1e-6)


def test_general_functional_linear_psi_reduces_exactly():
    cfg = SpinConfiguration.random(1, 21, seed=12)
    rates = LocalRateSpec.random_table(1, 1, seed=13)
    f0 = CoefficientMap.basis(1, [(0,)])
    fin, lim = nonlinear_generator_general(
        cfg, lambda x: 0.7 * float(x[0]), lambda x: np.array([0.7]), [f0], rates
    )
    assert abs(fin - lim) <= 1e-12


def test_general_functional_quadratic_scaling():
    f0 = CoefficientMap.basis(1, [(0,)])
    rates = LocalRateSpec.constant(1.0, 1)
    diffs = []
    sides = [11, 21, 41]
    for side in sides:
        cfg = SpinConfiguration.all_plus(1, side)
        fin, lim = nonlinear_generator_general(
            cfg, lambda x: float(x[0] ** 2), lambda x: np.array([2.0 * x[0]]), [f0], rates
        )
        diffs.append(abs(fin - lim))
    slope = np.polyfit(np.log(sides), np.log(diffs), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_general_functional_product_rule():
    # independent spins, each up with probability 0.65
    up = np.random.default_rng(14).random(21) < 0.5 * (1.0 + 0.3)
    cfg = SpinConfiguration(1, 21, np.where(up, 1, -1))
    rates = LocalRateSpec.constant(1.0, 1)
    f1 = CoefficientMap.basis(1, [(0,)])
    f2 = CoefficientMap.basis(1, [(0,), (1,)])
    fin, lim = nonlinear_generator_general(
        cfg, lambda x: float(x[0] * x[1]), lambda x: np.array([x[1], x[0]]),
        [f1, f2], rates,
    )
    assert abs(fin - lim) <= 10.0 / cfg.n_sites
