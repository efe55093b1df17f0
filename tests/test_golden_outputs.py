"""Golden outputs: is_bad on two small cells, pinned to the last bit.

The scan CSV carries neither the branch solves nor the full minimizer
values, so a change to the evaluators that moves a solve by one ulp would
pass every tolerance test.  These float hex values were recorded before the
scalar rate-function branch and the skipped boundary chain went in; any
change that is meant to keep every solve bit-identical must keep them.  A
change that moves costs on purpose (a new discretization, a new solver)
re-records them and says so.
"""

import pytest

from spinldp.badness import SolverOpts, is_bad, optimal_initials
from spinldp.rate_functions import bernoulli_rate, double_well_rate

OPTS = SolverOpts(dt_target=0.02, min_steps=60, max_iter=400, gtol=1e-8, seed=3)

GOLDEN = {
    "double_well": {
        "rate": lambda: double_well_rate(1.5),
        "mT": 0.0,
        "T": 1.0,
        "bad": True,
        "gamma0": ["-0x1.b4457c7c6fc9cp-1", "0x1.b4457b30b03c2p-1"],
        "value": ["0x1.97a83db320ce0p-8", "0x1.97a83db320e91p-8"],
        "plus_branch": ["0x1.b5c35a60d1769p-1", "0x1.b50553ebfd3b8p-1", "0x1.b4a5a1c28aa48p-1",
                        "0x1.b4759cbdb4c5cp-1", "0x1.b45d8f380abd1p-1"],
        "minus_branch": ["-0x1.b5c35a60933e1p-1", "-0x1.b50553f8d269ep-1", "-0x1.b4a5a1bc377cdp-1",
                         "-0x1.b4759cbcfd935p-1", "-0x1.b45d8f3b1050dp-1"],
    },
    "bernoulli": {
        "rate": lambda: bernoulli_rate(0.5),
        "mT": 0.3,
        "T": 0.5,
        "bad": False,
        "gamma0": ["0x1.10eac3a53c234p-1"],
        "value": ["0x1.d98b52380321bp-8"],
        "plus_branch": [],
        "minus_branch": [],
    },
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_is_bad_golden_hex(cell):
    g = GOLDEN[cell]
    rate = g["rate"]()
    mins = optimal_initials(rate, g["mT"], g["T"], opts=OPTS)
    flag, diag = is_bad(rate, g["mT"], g["T"], epsilon=0.1, delta=0.05, opts=OPTS, minimizers=mins)
    assert flag is g["bad"]
    assert [m.gamma0.hex() for m in mins] == g["gamma0"]
    assert [float(m.value).hex() for m in mins] == g["value"]
    assert [x.hex() for x in diag["plus_branch"]] == g["plus_branch"]
    assert [x.hex() for x in diag["minus_branch"]] == g["minus_branch"]
