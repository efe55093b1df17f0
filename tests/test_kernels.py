"""The lattice event kernel samples the exact jump law.

From a fixed configuration the first flip happens after an Exp(R0) time,
R0 = sum_i c_i, at a site of window class c with probability
count_c * rate_c / R0.  Each test fixes its seeds up front; a failure is a
defect, not a seed to change.
"""

import functools
import math

import numpy as np
import pytest
from scipy import stats

from spinldp import kernels
from spinldp.lattice import LocalRateSpec, SpinConfiguration, _site_index_arrays, glauber_simulate

ALPHA = 1e-3
RUNS = 2000


def metropolis(beta: float) -> LocalRateSpec:
    """Nearest-neighbour Ising Metropolis rates on the 3x3 window."""

    def rate(pat):
        field = pat[1] + pat[3] + pat[5] + pat[7]  # offsets (-1,0), (0,-1), (0,1), (1,0)
        return min(1.0, math.exp(-2.0 * beta * pat[4] * field))

    return LocalRateSpec.from_function(rate, 2, 1)


CASES = {
    "random_2d_r1": (SpinConfiguration.random(2, 9, seed=21),
                     LocalRateSpec.random_table(2, 1, seed=22), 31),
    "metropolis_b1": (SpinConfiguration.random(2, 9, seed=23), metropolis(1.0), 32),
}


@functools.lru_cache(maxsize=None)
def first_events(case):
    """(R0, first-event times, first-event window classes) over RUNS runs."""
    config, rates, seed = CASES[case]
    codes = rates._codes(config)
    R0 = float(np.sum(rates.table[codes]))
    times, classes = [], []
    for ss in np.random.SeedSequence(seed).spawn(RUNS):
        _, log = glauber_simulate(config, rates, 30.0 / R0, ss)
        times.append(log.times[0])
        classes.append(codes[log.sites[0]])
    return R0, np.array(times), np.array(classes)


def test_pure_kernel_runs_standalone():
    for cfg, rates in ((SpinConfiguration.all_plus(1, 31), LocalRateSpec.constant(1.0, 1)),
                       (SpinConfiguration.random(2, 7, seed=6),
                        LocalRateSpec.random_table(2, 1, seed=8))):
        final, log = glauber_simulate(cfg, rates, 0.5, seed=7)
        assert final.values.shape == cfg.values.shape and len(log.sites) > 0
        # flips recorded in the log match the parity of each site's events
        flips = np.bincount(log.sites, minlength=cfg.n_sites).reshape(cfg.values.shape)
        assert np.array_equal(final.values, np.where(flips % 2 == 0, cfg.values, -cfg.values))


@pytest.mark.parametrize("case", sorted(CASES))
def test_first_event_time_is_exponential(case):
    R0, times, _ = first_events(case)
    assert stats.kstest(times, "expon", args=(0.0, 1.0 / R0)).pvalue > ALPHA


@pytest.mark.parametrize("case", sorted(CASES))
def test_first_event_class_frequencies(case):
    config, rates, _ = CASES[case]
    R0, _, classes = first_events(case)
    codes = rates._codes(config)
    present = np.unique(codes)
    expected = RUNS * np.bincount(codes)[present] * rates.table[present] / R0
    observed = np.array([np.sum(classes == c) for c in present])
    # pool the classes expected fewer than 5 times into one cell
    small = expected < 5.0
    assert small.any() and expected[small].sum() >= 5.0
    exp_cells = np.append(expected[~small], expected[small].sum())
    obs_cells = np.append(observed[~small], observed[small].sum())
    assert obs_cells.sum() == RUNS
    assert stats.chisquare(obs_cells, exp_cells).pvalue > ALPHA


class _FirstUniformZero:
    """A generator whose first uniform is exactly 0.0."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.first = True

    def random(self, size):
        u = self.rng.random(size)
        if self.first:
            u[0], self.first = 0.0, False
        return u


def test_zero_uniform_gives_zero_wait_not_an_early_stop():
    cfg = SpinConfiguration.all_plus(1, 31)
    rates = LocalRateSpec.constant(1.0, 1)
    codes, times, sites = kernels.run(rates._codes(cfg), _site_index_arrays(cfg, rates),
                                      rates.table, 0.5, _FirstUniformZero(41))
    assert times[0] == 0.0
    assert len(times) > 1 and times[-1] <= 0.5
    flips = np.bincount(sites, minlength=31)
    # radius 0: a site's window code is its own spin bit
    assert np.array_equal(np.where(codes == 1, 1, -1), np.where(flips % 2 == 0, 1, -1))
