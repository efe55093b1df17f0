"""The scalar branch of the built-in rate functions against their 0-d path.

fun_grad calls evaluator and derivative with one Python float per objective
evaluation.  Every open-start solve depends on that branch returning exactly
what the 0-d array path returns, so the comparison is == on float64, never a
tolerance.  The reference is the 0-d path, not the vector path: the double
well's vector path squares with a multiply, its 0-d path with C pow, and the
two already differ in the last bit on a few inputs.
"""

import numpy as np
import pytest

from spinldp.rate_functions import bernoulli_rate, double_well_rate

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


def test_scalar_branch_edge_values():
    b, dw = SPECS["bernoulli"], SPECS["double_well"]
    assert b.evaluator(1.5) == np.inf and dw.evaluator(-1.2) == np.inf
    assert b.derivative(1.0) == np.inf and b.derivative(-1.0) == -np.inf
    assert dw.derivative(1.2) == np.inf and dw.derivative(-1.0) == -np.inf
    assert abs(dw.evaluator(dw.minimizers[1])) <= 1e-12
    assert b.evaluator(0.5) == 0.0 and abs(b.derivative(0.5)) <= 1e-15
