"""Golden outputs: is_bad on two small cells and the exact oracles of
criteria 1 and 7, pinned to the last bit.

The scan CSV carries neither the branch solves nor the full minimizer
values, so a change to the evaluators that moves a solve by one ulp would
pass every tolerance test.  These float hex values were recorded before the
scalar rate-function branch and the skipped boundary chain went in; any
change that is meant to keep every solve bit-identical must keep them.  A
change that moves costs on purpose (a new discretization, a new solver)
re-records them and says so.
"""

import hashlib
import os

import pytest

from spinldp import cli
from spinldp import duality as du
from spinldp import finite_jump as fj
from spinldp import verification as vf
from spinldp.badness import SolverOpts, is_bad, optimal_initials
from spinldp.rate_functions import bernoulli_rate, double_well_rate

OPTS = SolverOpts(dt_target=0.02, min_steps=60, max_iter=400, gtol=1e-8, seed=3)

GOLDEN = {
    "double_well": {
        "rate": lambda: double_well_rate(1.5),
        "mT": 0.0,
        "T": 1.0,
        "bad": True,
        # re-recorded when the wells became Newton's root of m = tanh(beta m),
        # exact to round-off: m_beta moved by 3.2e-13 (Brent had stopped
        # inside its 2e-12 tolerance) and I's shift by 2.2e-16, so the CG
        # solves end on other round-off minima, now listed + before -; the
        # ten branch selections kept every bit
        "gamma0": ["0x1.b4457b278d2c7p-1", "-0x1.b4457c7efc5f6p-1"],
        "value": ["0x1.97a83db320a60p-8", "0x1.97a83db320bfcp-8"],
        # closed-form branch selections: each lies within 5e-7 of a bounded
        # Brent minimization of I + K_T, and within 6e-4, O(dt), of the CG
        # open-start solve at its endpoint
        "plus_branch": ["0x1.b58b223183145p-1", "0x1.b4c2423450188p-1", "0x1.b45d0f99816d5p-1",
                        "0x1.b42a378349291p-1", "0x1.b410c5e4340f8p-1"],
        "minus_branch": ["-0x1.b58b2231831dcp-1", "-0x1.b4c242345039ep-1", "-0x1.b45d0f9981190p-1",
                         "-0x1.b42a378349906p-1", "-0x1.b410c5e4349bcp-1"],
    },
    "bernoulli": {
        "rate": lambda: bernoulli_rate(0.5),
        "mT": 0.3,
        "T": 0.5,
        "bad": False,
        "gamma0": ["0x1.10eac3a53c234p-1"],
        "value": ["0x1.d98b52380321bp-8"],
        # recorded when is_bad began to judge every cell: the selections close
        # in on the start 0.5330 from both sides, their gap halving per level
        "plus_branch": ["0x1.1847b38bfca0dp-1", "0x1.149ff1c3509b9p-1", "0x1.12cc1057a5cccp-1",
                        "0x1.11e21ebd6e906p-1", "0x1.116d264fbebe4p-1"],
        "minus_branch": ["0x1.09a8a8dbfeab1p-1", "0x1.0d506b35243c6p-1", "0x1.0f244cb1f97b4p-1",
                         "0x1.100e3db3f1367p-1", "0x1.108336fc8685bp-1"],
    },
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_is_bad_golden_hex(cell):
    g = GOLDEN[cell]
    rate = g["rate"]()
    mins = optimal_initials(rate, g["mT"], g["T"], opts=OPTS)
    flag, diag = is_bad(rate, g["mT"], g["T"], epsilon=0.1, delta=0.05)
    assert flag is g["bad"]
    assert [m.gamma0.hex() for m in mins] == g["gamma0"]
    assert [float(m.value).hex() for m in mins] == g["value"]
    assert [x.hex() for x in diag["plus_branch"]] == g["plus_branch"]
    assert [x.hex() for x in diag["minus_branch"]] == g["minus_branch"]


# Criteria 1 and 7 at seed 1 with 16 jump models.  The variational values
# were recorded before the Newton solvers of finite_jump stopped at their
# round-off fixed point and before mag_lagrangian got its scalar branch;
# models 0, 2, 3, 12 and 13 stall in the variational solver.  The dual values
# are the infeasible-start Newton solve's, and every one of its 16 solves
# stops on its KKT tolerance, none at round-off.
GOLDEN_C1 = {"gap_hl": "0x1.8000000000000p-39", "gap_lh": "0x1.0000000000000p-50"}
GOLDEN_C7 = [
    ("0x1.62c94fce8c9b8p+1", "0x1.62c94fce8c9b8p+1"), ("0x1.5e73ad5ae6c34p+0", "0x1.5e73ad5ae6c32p+0"),
    ("0x1.b7ce09ae2abe6p+3", "0x1.b7ce09ae2abe6p+3"), ("0x1.75dafa6f98544p-2", "0x1.75dafa6f9853dp-2"),
    ("0x1.e276ec434bcb4p+1", "0x1.e276ec434bcb3p+1"), ("0x1.0a2766fea7028p-6", "0x1.0a2766fea7000p-6"),
    ("0x1.055e9545534c8p+2", "0x1.055e9545534c7p+2"), ("0x1.063214919e982p+3", "0x1.063214919e981p+3"),
    ("0x1.1a93421905881p+3", "0x1.1a93421905881p+3"), ("0x1.2e70831ecbde1p+2", "0x1.2e70831ecbde2p+2"),
    ("0x1.887d66f42986fp+1", "0x1.887d66f429870p+1"), ("0x1.4629cd37311dcp-4", "0x1.4629cd37311d4p-4"),
    ("0x1.94c2e5ea4fd32p-1", "0x1.94c2e5ea4fd2fp-1"), ("0x1.4b3e78065f247p+2", "0x1.4b3e78065f246p+2"),
    ("0x1.f478d4ee58b08p-4", "0x1.f478d4ee58b02p-4"), ("0x1.a159fbd92c6eap+2", "0x1.a159fbd92c6e8p+2"),
]


def _recording(monkeypatch, module, name, log):
    inner = getattr(module, name)

    def wrapped(*args, **kwargs):
        out = inner(*args, **kwargs)
        log.append(out)
        return out

    monkeypatch.setattr(module, name, wrapped)


def test_criterion_1_gaps_golden_hex(monkeypatch):
    gaps = []
    _recording(monkeypatch, du, "duality_gap", gaps)
    res = vf.criterion_1({"seed": 1})
    assert res.passed
    assert [g.hex() for g in gaps] == [GOLDEN_C1["gap_hl"], GOLDEN_C1["gap_lh"]]


def test_criterion_7_values_golden_hex(monkeypatch):
    var, dual = [], []
    _recording(monkeypatch, fj, "fj_lagrangian_variational", var)
    _recording(monkeypatch, fj, "fj_lagrangian_dual", dual)
    res = vf.criterion_7({"seed": 1, "c7_models": 16})
    assert res.passed
    # the 17th variational call is criterion 7's two-state counterexample
    assert [(v.hex(), d.hex()) for v, (d, _) in zip(var[:16], dual)] == GOLDEN_C7


# sha256 of every file the shipped configs write, run in-process through
# cli.main: all configs but `verify.json`, whose full battery takes minutes
# (`verify_small` is pinned in test_acceptance's criterion 12), and the
# double-well scan once more at two workers.  `lattice_check` is verify
# with criteria 5 and 6.
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED = {
    ("pw-rate", "pw_rate", 1): {
        "pw_rate.csv": "55d104a2513fcdd5939c0ce3f68e94285c5b5bcaf6ddc59fdba61ad1beb7afab"},
    ("mag-rate", "mag_rate", 1): {
        "mag_rate.csv": "6f4bcae62d6055d8e1b288d898f96c666bff993076e6f0de40a984565fcb14c9"},
    ("mag-bvp", "mag_bvp", 1): {
        "mag_bvp.csv": "68b56f5b4b47ff6937c32cec4c789368737e757e1c5e96068ac30e7bf61e2e54",
        "mag_bvp.json": "fb9694f23fda485525287befef8af93cf490898eef0c58487b63c1b02be454e4"},
    ("fd-lagrangian", "fd_lagrangian", 1): {
        "fd_lagrangian.json": "4c8a72a2f45df3bc0bd939872a2bd44d45643d757cfcc667f9513ab2f547b9d7"},
    ("lattice-sim", "lattice_sim", 1): {
        "lattice_events.csv": "92e9feb96694f18b5416bdcb5b629e6456eb053cad93d7d6422f5cd0c816380a",
        "lattice_final.txt": "33b81aac56a6a6f25dbd15fabf3349020266681b07e8cc6e66c7337183845744",
        "lattice_moments.csv": "63f9e6237476450ea31faeef456a830db5e06279676b142f50e7743c5d8df210"},
    ("verify", "lattice_check", 1): {
        "verify_summary.csv": "0133a7af2f53cb5abe9144d46fdf91f63cbdea07134d61d199b2d63698389c96"},
    ("scan-bad", "scan_bad_bernoulli", 1): {
        "scan_bad.csv": "dd9a44ebab34d644e97bb70eb77f4a29d74fb886e04850fcab2ca6d68a13efaf"},
    ("scan-bad", "scan_bad_double_well", 1): {
        "scan_bad.csv": "1843c4b9abdc7af2e9d61c0666f59b7273b63fb21ac8fb89f9bf5b37f23eb7a5"},
    ("scan-bad", "scan_bad_double_well", 2): {
        "scan_bad.csv": "1843c4b9abdc7af2e9d61c0666f59b7273b63fb21ac8fb89f9bf5b37f23eb7a5"},
}


@pytest.mark.parametrize("command, config, workers", sorted(SHIPPED))
def test_shipped_config_outputs_golden_sha256(tmp_path, capsys, command, config, workers):
    out = tmp_path / "out"
    code = cli.main([command, os.path.join(CONFIGS, config + ".json"),
                     "--out-dir", str(out), "--workers", str(workers)])
    assert code == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == SHIPPED[(command, config, workers)]


# Every config under configs/ has its outputs pinned: those in SHIPPED here,
# verify_small by sha256 in test_acceptance's criterion 12, and verify is
# exempt because its full battery takes minutes; test_acceptance runs the
# same criteria at the same defaults one by one instead.
PINNED_ELSEWHERE = {"verify_small"}
EXEMPT = {"verify"}


def test_every_shipped_config_is_pinned():
    shipped = {name[:-len(".json")] for name in os.listdir(CONFIGS) if name.endswith(".json")}
    assert shipped == {config for _, config, _ in SHIPPED} | PINNED_ELSEWHERE | EXEMPT
