import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinldp import cli
from spinldp.duality import duality_gap
from spinldp.poisson_walk import (
    PoissonWalkParams,
    pw_exact_log_prob,
    pw_hamiltonian,
    pw_lagrangian,
    pw_rate_convergence,
)

P21 = PoissonWalkParams(b=2.0, d=1.0, N=100)


def test_params_validation():
    with pytest.raises(ValueError):
        PoissonWalkParams(b=0.0, d=1.0, N=10)
    with pytest.raises(ValueError):
        PoissonWalkParams(b=1.0, d=-0.1, N=10)
    with pytest.raises(ValueError):
        PoissonWalkParams(b=1.0, d=0.0, N=0)


@pytest.mark.parametrize("b, d", [(1.0, math.nan), (1.0, math.inf), (math.inf, 1.0)])
def test_params_reject_non_finite_rates(b, d):
    with pytest.raises(ValueError, match="must be finite"):
        PoissonWalkParams(b=b, d=d, N=10)


def test_hamiltonian_values():
    assert pw_hamiltonian(0.0, P21) == 0.0
    p11 = PoissonWalkParams(1.0, 1.0, 1)
    assert abs(pw_hamiltonian(1.0, p11) - 2.0 * (math.cosh(1.0) - 1.0)) <= 1e-14


def test_hamiltonian_derivative_at_zero_is_drift():
    h = 1e-6
    fd = (pw_hamiltonian(h, P21) - pw_hamiltonian(-h, P21)) / (2 * h)
    assert abs(fd - (P21.b - P21.d)) <= 1e-8


def test_lagrangian_zero_at_drift():
    assert abs(pw_lagrangian(P21.b - P21.d, P21)) <= 1e-14


def test_lagrangian_pure_birth_cases():
    p = PoissonWalkParams(1.0, 0.0, 1)
    assert pw_lagrangian(1.0, p) == 0.0
    assert pw_lagrangian(-0.5, p) == math.inf
    assert pw_lagrangian(0.0, p) == 1.0


def test_lagrangian_closed_form_value():
    assert abs(pw_lagrangian(0.0, P21) - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-14


def test_lagrangian_matches_numeric_conjugation():
    from spinldp.duality import conjugate

    for a in (-1.5, -0.3, 0.0, 0.8, 2.5):
        res = conjugate(lambda lam: pw_hamiltonian(lam, P21), a)
        assert abs(res.value - pw_lagrangian(a, P21)) <= 1e-9


def test_hamiltonian_lagrangian_conjugate_pair():
    gap = duality_gap(
        lambda x, lam: pw_hamiltonian(lam, P21),
        lambda x, a: pw_lagrangian(a, P21),
        [0.0],
        np.linspace(-2.0, 2.0, 21),
    )
    assert gap <= 1e-8


@settings(max_examples=80, deadline=None)
@given(a=st.floats(-4, 4), b=st.floats(0.2, 3), d=st.floats(0.05, 3))
def test_lagrangian_nonnegative_unique_zero(a, b, d):
    p = PoissonWalkParams(b, d, 1)
    val = pw_lagrangian(a, p)
    assert val >= -1e-12
    if abs(a - (b - d)) > 1e-3:
        assert val > 0.0


def test_vectorized_matches_scalar():
    a = np.linspace(-3, 3, 41)
    vec = pw_lagrangian(a, P21)
    assert vec.shape == a.shape
    for ai, vi in zip(a, vec):
        assert abs(vi - pw_lagrangian(float(ai), P21)) <= 1e-13


def test_exact_log_prob_pure_poisson():
    p = PoissonWalkParams(1.0, 0.0, 1)
    assert abs(pw_exact_log_prob(p, 1.0, 0) + 1.0) <= 1e-14
    assert abs(pw_exact_log_prob(p, 1.0, 1) + 1.0) <= 1e-14
    assert pw_exact_log_prob(p, 1.0, -1) == -math.inf


def test_exact_log_prob_against_direct_convolution():
    # small rates: the truncated two-Poisson sum is easy to reproduce directly
    p = PoissonWalkParams(0.7, 0.4, 3)
    lp, lm = p.N * p.b * 0.8, p.N * p.d * 0.8
    for k in (-2, 0, 1, 4):
        direct = 0.0
        for j in range(max(0, k), 140):  # factorials stay float-representable
            direct += (
                math.exp(-lp) * lp**j / float(math.factorial(j))
                * math.exp(-lm) * lm ** (j - k) / float(math.factorial(j - k))
            )
        assert abs(pw_exact_log_prob(p, 0.8, k) - math.log(direct)) <= 1e-12


def test_rate_convergence_table():
    rows = pw_rate_convergence(PoissonWalkParams(2.0, 1.0, 1), [50, 100, 200, 500], 1.0, 1.0)
    gaps = [abs(r["gap"]) for r in rows]
    assert gaps[-1] <= 0.05
    assert gaps[-1] < gaps[0]
    # a = b - d has zero analytic rate and near-zero empirical rate
    rows0 = pw_rate_convergence(PoissonWalkParams(1.0, 1.0, 1), [50, 200], 2.0, 0.0)
    for r in rows0:
        assert r["analytic_rate"] == 0.0
        assert abs(r["empirical_rate"]) <= 1.5 * math.log(r["N"]) / r["N"]


def test_rate_convergence_csv(tmp_path, capsys):
    cfg = tmp_path / "pw.json"
    cfg.write_text(json.dumps({"b": 2.0, "d": 1.0, "t": 1.0, "a": 0.5, "N_list": [50, 100]}))
    assert cli.main(["pw-rate", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "pw_rate.csv").read_text().strip().split("\n")
    assert lines[0] == "N,t,a,empirical_rate,analytic_rate,gap"
    rows = pw_rate_convergence(PoissonWalkParams(2.0, 1.0, 1), [50, 100], 1.0, 0.5)
    assert [line.split(",")[3] for line in lines[1:]] == [repr(r["empirical_rate"]) for r in rows]
