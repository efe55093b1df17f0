"""The exact event kernel of the lattice dynamics (pure Python).

Composition-rejection thinning (Slepoy, Thompson & Plimpton, J. Chem. Phys.
128, 205101, 2008).  Every window code c is put in the bin whose cap is the
least power of two >= table[c], so a bin holds rates in (cap/2, cap].  Sites
sit in the bin of their current code, in swap-remove member lists.  Candidate
events arrive at rate R = sum_b |bin b| * cap_b; a candidate picks bin b with
probability |bin b| * cap_b / R, then a uniform member i, and is accepted with
probability table[code_i] / cap_b >= 1/2.  A rejected candidate still
advances the clock, which is what makes the thinning exact: accepted events
form the jump process whose total rate is sum_i table[code_i].  The cost of
an event is O(window + bins), independent of the number of sites and of how
skewed the rates are.  R is recomputed from the member-list lengths whenever
a site changes bin, so no floating-point rate total accumulates drift.
"""

import math
from array import array
from bisect import bisect_right
from itertools import accumulate
from operator import mul

import numpy as np

# Uniforms are drawn in blocks that double from 64 to _MAX_BLOCK, so a short
# run (one checkpoint interval of a replica) does not pay for a long block.
_MAX_BLOCK = 8192


def using_compiled_core() -> bool:
    """Always False: there is no compiled kernel (kept for environment records)."""
    return False


def _rate_bins(table: np.ndarray):
    """(caps, bin_of): the distinct power-of-two caps in decreasing order, and
    the bin index of every window code."""
    mant, exp = np.frexp(table)
    code_caps = np.ldexp(1.0, exp - (mant == 0.5))  # least power of two >= rate
    neg_caps, bin_of = np.unique(-code_caps, return_inverse=True)
    return (-neg_caps).tolist(), bin_of


def _typed(a: np.ndarray, typecode: str) -> array:
    """a as an array.array of typecode ("q": int64, "i": int32), copied once."""
    out = array(typecode)
    out.frombytes(memoryview(np.ascontiguousarray(a, dtype=typecode)).cast("B"))
    return out


def run(codes: np.ndarray, neighbours: np.ndarray, table: np.ndarray, T: float,
        rng, record: bool = True):
    """Exact dynamics over [0, T]; returns (final codes, event times, sites).

    codes[i] is the window code of site i; flipping site i toggles bit k of
    the code of site neighbours[i, k].  Each candidate consumes one pair of
    uniforms (u1, u2) from rng.random: the waiting time -log1p(-u1) / R and
    the selection u2 * R.
    """
    n, w = neighbours.shape
    caps, bin_of = _rate_bins(table)
    rate = table.tolist()
    site_bin = bin_of[codes]
    bin_of = bin_of.tolist()
    members = []
    pos_np = np.empty(n, dtype=np.int64)
    for b in range(len(caps)):
        sites = np.flatnonzero(site_bin == b)
        pos_np[sites] = np.arange(len(sites))
        members.append(_typed(sites, "q"))
    code, pos, nbr = _typed(codes, "q"), _typed(pos_np, "q"), _typed(neighbours, "i")
    bits = [1 << k for k in range(w)]
    times, sites_out = array("d"), array("q")
    log1p, bisect = math.log1p, bisect_right

    t = 0.0
    moved = True
    u, k, size = [], 0, 64
    while True:
        if moved:
            # cum[b] = weight of the bins before b, cum[-1] = R, both rebuilt
            # from the member counts, so they cannot drift
            cum = [0.0, *accumulate(map(mul, map(len, members), caps))]
            total = cum[-1]
            moved = False
        if k == len(u):
            u, k, size = rng.random(size).tolist(), 0, min(2 * size, _MAX_BLOCK)
        t -= log1p(-u[k]) / total
        if t > T:
            break
        x = u[k + 1] * total
        k += 2
        b = bisect(cum, x) - 1
        x -= cum[b]
        try:
            cap = caps[b]
            j = int(x / cap)
            i = members[b][j]
        except IndexError:  # x rounded up to a bin's upper edge: a rejection
            continue
        if x - j * cap >= rate[code[i]]:
            continue
        base = i * w
        for s, bit in zip(nbr[base:base + w], bits):
            old = code[s]
            new = old ^ bit
            code[s] = new
            bo, bn = bin_of[old], bin_of[new]
            if bo != bn:
                src, dst = members[bo], members[bn]
                p = pos[s]
                last = src.pop()
                if last != s:
                    src[p] = last
                    pos[last] = p
                pos[s] = len(dst)
                dst.append(s)
                moved = True
        if record:
            times.append(t)
            sites_out.append(i)
    return (np.frombuffer(code, dtype="q"), np.frombuffer(times, dtype="d"),
            np.frombuffer(sites_out, dtype="q"))
