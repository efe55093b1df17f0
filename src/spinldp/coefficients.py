"""Local observables as coefficient maps over the product basis.

A local function f = sum_A alpha_A H_A with H_A(s) = prod_{i in A} s_i is
stored as a finite association from offset sets A (tuples of d-dim integer
offsets) to real coefficients.  The response operator D acts basis-wise:

    D 1 = 0,    D H_A = sum_{r in -A} (-2) H_{A+r},

with set addition reduced coordinate-wise modulo the torus side when a
finite context is given.  Sets are kept as sorted offset tuples; A and its
translate A+r are distinct basis elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DependenceSetTooLarge

__all__ = ["CoefficientMap", "apply_D", "empirical_average", "evaluate_translations"]


def _canon_offsets(offsets, dim: int):
    """Sorted tuple of d-dim offsets; repeated sites cancel pairwise (s^2=1)."""
    counts: dict[tuple, int] = {}
    for o in offsets:
        o = tuple(int(x) for x in (o if isinstance(o, (tuple, list, np.ndarray)) else (o,)))
        if len(o) != dim:
            raise ValueError(f"offset {o} is not {dim}-dimensional")
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(o for o, cnt in counts.items() if cnt % 2 == 1))


def _reduce_mod(offsets, side: int):
    """Centered representatives modulo side; CoefficientMap.build's
    _canon_offsets then sorts them and cancels repeated sites."""
    half = (side - 1) // 2
    return tuple(tuple(((x + half) % side) - half for x in o) for o in offsets)


@dataclass(frozen=True)
class CoefficientMap:
    """Immutable finite association {offset set -> coefficient}.

    The empty set is the constant function 1.  Zero coefficients are not
    stored.
    """

    dim: int
    terms: Mapping[tuple, float]

    @staticmethod
    def build(dim: int, entries: Iterable[tuple]) -> "CoefficientMap":
        """entries: iterable of (offsets, coefficient)."""
        acc: dict[tuple, float] = {}
        for offsets, coef in entries:
            key = _canon_offsets(offsets, dim)
            acc[key] = acc.get(key, 0.0) + float(coef)
        return CoefficientMap(dim, {k: v for k, v in acc.items() if v != 0.0})

    @staticmethod
    def basis(dim: int, offsets) -> "CoefficientMap":
        return CoefficientMap.build(dim, [(offsets, 1.0)])

    @staticmethod
    def constant(dim: int, value: float) -> "CoefficientMap":
        return CoefficientMap.build(dim, [((), value)])

    def __add__(self, other: "CoefficientMap") -> "CoefficientMap":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return CoefficientMap.build(
            self.dim, list(self.terms.items()) + list(other.terms.items())
        )

    def scale(self, a: float) -> "CoefficientMap":
        return CoefficientMap.build(self.dim, [(k, a * v) for k, v in self.terms.items()])

    def radius(self) -> int:
        """Max |coordinate| over all offsets (0 for constants)."""
        r = 0
        for key in self.terms:
            for o in key:
                for x in o:
                    r = max(r, abs(x))
        return r


def apply_D(f: CoefficientMap, side: int | None = None) -> CoefficientMap:
    """The response operator; side gives the finite-torus reduction."""
    entries = []
    for key, coef in f.terms.items():
        if not key:
            continue  # constants map to 0
        for a in key:
            shifted = tuple(tuple(i - ai for i, ai in zip(o, a)) for o in key)
            if side is not None:
                shifted = _reduce_mod(shifted, side)
            entries.append((shifted, -2.0 * coef))
    return CoefficientMap.build(f.dim, entries)


def evaluate_translations(f: CoefficientMap, spins: np.ndarray) -> np.ndarray:
    """Array over sites j of f(tau_j s), where (tau_j s)_i = s_{j+i}.

    spins has shape (*batch, *torus): its trailing f.dim axes are the torus
    and any leading axes index configurations.  Only the torus axes are
    rolled, and each term and offset is applied in the same order, so every
    batch entry equals the call on that configuration alone, bit for bit.
    """
    out = np.zeros(spins.shape, dtype=float)
    axes = tuple(range(spins.ndim - f.dim, spins.ndim))
    for key, coef in f.terms.items():
        if not key:
            out += coef
            continue
        prod = np.ones(spins.shape, dtype=float)
        for o in key:
            prod *= np.roll(spins, shift=tuple(-x for x in o), axis=axes)
        out += coef * prod
    return out


def empirical_average(f: CoefficientMap, spins: np.ndarray) -> float:
    """<f, L_N(s)>: the translation average of f.

    Requires the dependence set of f to fit the torus (max offset <= N).
    """
    side = spins.shape[0]
    if f.radius() > (side - 1) // 2:
        raise DependenceSetTooLarge(
            f"observable radius {f.radius()} exceeds torus radius {(side - 1) // 2}"
        )
    return float(np.mean(evaluate_translations(f, spins)))
