"""Acceptance gate: every criterion at its stated tolerance.

Criteria 1-11 run the verification battery at full scale and print one
pass/fail line each.  Criterion 12 (byte-identical `verify` reruns at any
worker count) drives the CLI twice on the shipped reduced config; the full
battery itself runs once here, so repeating it would only re-execute
identical code paths at triple the runtime.
"""

import hashlib
import os

import pytest

from spinldp.verification import CRITERIA, DEFAULTS

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

_cache = {}


def run_criterion(index):
    if index not in _cache:
        _cache[index] = CRITERIA[index](dict(DEFAULTS), workers=1)
    return _cache[index]


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index):
    res = run_criterion(index)
    print(res.line())
    assert res.passed, f"criterion {res.index} ({res.name}): {res.detail}"


def test_criterion_12_determinism(tmp_path, capsys):
    from spinldp.cli import main

    cfg_path = os.path.join(CONFIGS, "verify_small.json")
    outputs = {}
    for tag, workers in (("a", 1), ("b", 2), ("c", 1)):
        out = tmp_path / tag
        code = main(["verify", cfg_path, "--out-dir", str(out),
                     "--workers", str(workers)])
        assert code == 0
        outputs[tag] = (out / "verify_summary.csv").read_bytes()
    assert outputs["a"] == outputs["b"] == outputs["c"]
    # and the bytes themselves: every verdict and detail of the reduced battery
    assert hashlib.sha256(outputs["a"]).hexdigest() == (
        "7d6ba5a123a6171ae99fd632d37d9a0a224b42baba8c4c76da8f3599407d1dbe")
    print("PASS 12 determinism: byte-identical verify outputs at workers 1 and 2 "
          "across repeated runs")
