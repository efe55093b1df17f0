"""Exact finite-torus spin-flip dynamics and its empirical-measure algebra.

Sites live on a d-dimensional torus of odd side 2N+1 (d = 1 or 2), spins
are +-1, and flip rates are window tables: the rate of flipping site i is
table[code of the (2r+1)^d pattern around i], which makes positivity and
translation invariance structural.  Simulation is exact event-driven
scheduling: `kernels.run` draws candidate flips by composition-rejection
over power-of-two rate bins, so an event costs O(window + bins) whatever the
number of sites, and per-event rate updates stay confined to the affected
window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import (
    CoefficientMap,
    apply_D,
    empirical_average,
    evaluate_translations,
)
from .seeding import child_seed, ordered_map, rng_from
from . import kernels

__all__ = [
    "SpinConfiguration",
    "LocalRateSpec",
    "EventLog",
    "glauber_simulate",
    "glauber_trajectory",
    "nonlinear_generator_exact",
    "nonlinear_generator_general",
    "moment_series",
]

@dataclass(frozen=True)
class SpinConfiguration:
    dim: int
    side: int
    values: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.side < 3 or self.side % 2 == 0:
            raise ValueError("side must be odd and >= 3 (torus 2N+1)")
        v = np.ascontiguousarray(self.values, dtype=np.int8)
        if v.shape != (self.side,) * self.dim:
            raise ValueError("values shape does not match (side,)*dim")
        if not np.all(np.abs(v) == 1):
            raise ValueError("spins must be +-1")
        object.__setattr__(self, "values", v)

    @property
    def torus_radius(self) -> int:
        return (self.side - 1) // 2

    @property
    def n_sites(self) -> int:
        return self.side**self.dim

    def magnetization(self) -> float:
        return float(np.mean(self.values))

    @staticmethod
    def all_plus(dim: int, side: int) -> "SpinConfiguration":
        return SpinConfiguration(dim, side, np.ones((side,) * dim, dtype=np.int8))

    @staticmethod
    def random(dim: int, side: int, seed) -> "SpinConfiguration":
        rng = rng_from(seed)
        vals = np.where(rng.random((side,) * dim) < 0.5, 1, -1).astype(np.int8)
        return SpinConfiguration(dim, side, vals)

    def to_text(self) -> str:
        rows = self.values.reshape(-1, self.side)
        return "\n".join("".join("+" if s > 0 else "-" for s in row) for row in rows) + "\n"

    @staticmethod
    def from_text(text: str, dim: int) -> "SpinConfiguration":
        rows = [r for r in text.strip().split("\n") if r]
        vals = np.array([[1 if ch == "+" else -1 for ch in row] for row in rows], dtype=np.int8)
        if dim == 1:
            vals = vals.reshape(-1)
        return SpinConfiguration(dim, vals.shape[-1], vals)


def _window_offsets(dim: int, radius: int):
    return list(itertools.product(range(-radius, radius + 1), repeat=dim))


@dataclass(frozen=True)
class LocalRateSpec:
    """Strictly positive flip rates read off a (2r+1)^d window pattern.

    table[code] with code = sum_k bit_k 2^k, bit_k = 1 iff the spin at
    offset k (offsets in lexicographic order) is +1.
    """

    dim: int
    radius: int
    table: np.ndarray

    def __post_init__(self):
        w = len(self.offsets)
        t = np.ascontiguousarray(self.table, dtype=np.float64)
        if t.shape != (2**w,):
            raise ValueError(f"table must have 2^{w} entries")
        if not np.all(np.isfinite(t) & (t > 0)):
            raise ValueError("all rates must be finite and strictly positive")
        object.__setattr__(self, "table", t)

    @property
    def offsets(self):
        return _window_offsets(self.dim, self.radius)

    @staticmethod
    def constant(value: float, dim: int, radius: int = 0) -> "LocalRateSpec":
        w = len(_window_offsets(dim, radius))
        return LocalRateSpec(dim, radius, np.full(2**w, float(value)))

    @staticmethod
    def from_function(fn, dim: int, radius: int) -> "LocalRateSpec":
        offs = _window_offsets(dim, radius)
        table = np.empty(2 ** len(offs))
        for code in range(len(table)):
            pattern = tuple(1 if (code >> k) & 1 else -1 for k in range(len(offs)))
            table[code] = fn(pattern)
        return LocalRateSpec(dim, radius, table)

    @staticmethod
    def random_table(dim: int, radius: int, seed, lo: float = 0.2, hi: float = 5.0):
        rng = rng_from(seed)
        w = len(_window_offsets(dim, radius))
        return LocalRateSpec(dim, radius, rng.uniform(lo, hi, size=2**w))

    def rates_for(self, config: SpinConfiguration) -> np.ndarray:
        """Rate at every site: c(tau_i s), flattened."""
        return self.table[self._codes(config)]

    def _codes(self, config: SpinConfiguration) -> np.ndarray:
        """Flattened sum_k bit_k 2^k at every site, bit_k = 1 iff the spin at
        site + offsets[k] (periodic) is +1."""
        spins = config.values
        axes = tuple(range(spins.ndim))
        codes = np.zeros(spins.shape, dtype=np.int64)
        for k, o in enumerate(self.offsets):
            bit = (np.roll(spins, shift=tuple(-x for x in o), axis=axes) + 1) // 2
            codes |= bit.astype(np.int64) << k
        return codes.ravel()


@dataclass(frozen=True)
class EventLog:
    times: np.ndarray
    sites: np.ndarray


def _site_index_arrays(config: SpinConfiguration, rates: LocalRateSpec):
    """affect_idx[i, k] = flat index of site i - o_k (whose code bit k flips
    when site i flips)."""
    side, dim = config.side, config.dim
    offs = rates.offsets
    n = config.n_sites
    idx = np.arange(n)
    if dim == 1:
        cols = [np.mod(idx - o[0], side) for o in offs]
    else:
        r, c = divmod(idx, side)
        cols = [np.mod(r - o[0], side) * side + np.mod(c - o[1], side) for o in offs]
    return np.ascontiguousarray(np.stack(cols, axis=1).astype(np.int32))


def _from_codes(config: SpinConfiguration, rates: LocalRateSpec, codes) -> SpinConfiguration:
    """The configuration on config's torus whose window codes are codes: a
    site's spin is the centre bit of its own window code."""
    centre = rates.offsets.index((0,) * config.dim)
    up = ((codes >> centre) & 1).reshape(config.values.shape)
    return SpinConfiguration(config.dim, config.side, np.where(up == 1, 1, -1))


def glauber_simulate(config: SpinConfiguration, rates: LocalRateSpec, T: float, seed):
    """Exact event-driven run over [0, T]; returns (final config, EventLog)."""
    if rates.dim != config.dim:
        raise ValueError("rate spec dimension mismatch")
    if T < 0:
        raise ValueError("T must be >= 0")
    codes = rates._codes(config)
    times = np.empty(0)
    sites = np.empty(0, dtype=np.int64)
    if T > 0:
        codes, times, sites = kernels.run(
            codes, _site_index_arrays(config, rates), rates.table, T, rng_from(seed))
    return _from_codes(config, rates, codes), EventLog(times=times, sites=sites)


def glauber_trajectory(config: SpinConfiguration, rates: LocalRateSpec, times: Sequence[float], seed):
    """Configurations at the given nondecreasing checkpoint times (one stream).

    The window codes and the neighbour table are built once; kernels.run
    steps the codes from one checkpoint to the next, and a configuration is
    made only for each returned snapshot.  A zero-length interval draws
    nothing from the stream.  Restarting the exponential clock at each
    checkpoint is statistically exact by memorylessness.
    """
    if rates.dim != config.dim:
        raise ValueError("rate spec dimension mismatch")
    rng = rng_from(seed)
    codes = rates._codes(config)
    neighbours = _site_index_arrays(config, rates)
    out = []
    t_prev = 0.0
    for t in times:
        if t < t_prev:
            raise ValueError("times must be nondecreasing")
        if t > t_prev:
            codes, _, _ = kernels.run(codes, neighbours, rates.table, t - t_prev, rng, record=False)
        out.append(_from_codes(config, rates, codes))
        t_prev = t
    return out


# Cap on the entries (flipped copies x sites) of one _flip_deltas block.  A
# block costs a few float arrays of this many entries (512 kB each); one block
# of all n copies holds n^2 entries, 95 MB of traced peak at n = 2001.
_FLIP_BLOCK = 1 << 16


def _flip_deltas(config: SpinConfiguration, f: CoefficientMap) -> np.ndarray:
    """Delta_k = sum_j [f(tau_j s^k) - f(tau_j s)] for every site k, by
    explicit enumeration of all single-site flips.

    The flipped copies s^k go through evaluate_translations in blocks of at
    most _FLIP_BLOCK entries, one call per block; each Delta_k is its row
    sum minus the unflipped sum, as if s^k were evaluated alone.
    """
    spins = config.values
    n = config.n_sites
    base = float(np.sum(evaluate_translations(f, spins)))
    deltas = np.empty(n)
    flat = spins.ravel()
    rows = max(1, _FLIP_BLOCK // n)
    for k0 in range(0, n, rows):
        k = np.arange(k0, min(k0 + rows, n))
        block = np.repeat(flat[None, :], len(k), axis=0)
        block[np.arange(len(k)), k] *= -1
        vals = evaluate_translations(f, block.reshape((len(k),) + spins.shape))
        deltas[k] = vals.reshape(len(k), n).sum(axis=1) - base
    return deltas


def nonlinear_generator_exact(config: SpinConfiguration, f: CoefficientMap, rates: LocalRateSpec):
    """Both sides of the exact tilted-generator identity.

    lhs enumerates every single-site flip directly, evaluating f on each
    flipped configuration without apply_D, so it judges D; rhs applies the
    response operator D and reads the local exponential against the
    empirical measure.  The two agree to machine precision for every
    configuration, rate table, and local f.
    """
    n = config.n_sites
    c = rates.rates_for(config)
    deltas = _flip_deltas(config, f)
    lhs = float(np.sum(c * np.expm1(deltas))) / n
    g = apply_D(f, side=config.side)
    g_vals = evaluate_translations(g, config.values).ravel()
    rhs = float(np.sum(c * np.expm1(g_vals))) / n
    return lhs, rhs


def nonlinear_generator_general(
    config: SpinConfiguration,
    psi,
    psi_grad,
    f_list: Sequence[CoefficientMap],
    rates: LocalRateSpec,
):
    """Finite-size tilted generator for F = Psi(<f_1>, ..., <f_n>) and its
    infinite-volume limit formula; the difference is the finite-size error,
    expected O(1/sites)."""
    n = config.n_sites
    c = rates.rates_for(config)
    x = np.array([empirical_average(f, config.values) for f in f_list])
    deltas = np.stack([_flip_deltas(config, f) for f in f_list], axis=1) / n

    psi_x = float(psi(x))
    expo_finite = np.array([n * (float(psi(x + deltas[k])) - psi_x) for k in range(n)])
    finite = float(np.sum(c * np.expm1(expo_finite))) / n

    grad = np.asarray(psi_grad(x), dtype=float)
    g_vals = np.stack(
        [evaluate_translations(apply_D(f, side=config.side), config.values).ravel() for f in f_list],
        axis=1,
    )
    limit = float(np.sum(c * np.expm1(g_vals @ grad))) / n
    return finite, limit


def _moment_worker(args):
    (dim, side, rates, times, obs_offsets, master_seed, replica) = args
    config = SpinConfiguration.all_plus(dim, side)
    snaps = glauber_trajectory(config, rates, times, child_seed(master_seed, replica))
    row = np.empty((len(times), len(obs_offsets)))
    for ti, snap in enumerate(snaps):
        for oi, offsets in enumerate(obs_offsets):
            f = CoefficientMap.basis(dim, offsets)
            row[ti, oi] = empirical_average(f, snap.values)
    return row


def moment_series(
    dim: int,
    side: int,
    rates: LocalRateSpec,
    times: Sequence[float],
    obs_offsets: Sequence,
    replicas: int,
    master_seed: int,
    workers: int = 1,
):
    """Replica ensemble of <H_A, L_N(s(t))> from the all-plus start.

    Returns array (replicas, times, observables); replica r is seeded by
    (master_seed, r) so the result is independent of worker count.
    """
    jobs = [
        (dim, side, rates, list(times), [list(map(tuple, o)) for o in obs_offsets],
         master_seed, r)
        for r in range(replicas)
    ]
    return np.stack(ordered_map(_moment_worker, jobs, workers), axis=0)
