"""spinldp runs without SciPy.

SciPy is a test dependency only.  This test runs a fresh interpreter (other
tests load SciPy into this one) whose import system refuses every scipy
module.  In it, it imports every module the benchmark loads, builds the two
built-in rate functions, runs `fd-lagrangian` and `mag-rate` (the
fixed-start Newton solve) on their shipped configs and runs criterion 7
(the Fenchel dual against the defining supremum).
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])

class BlockScipy:
    # a finder that refuses scipy, naming the spinldp line that asked for it
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            f = sys._getframe(1)
            while f is not None and not f.f_globals.get("__name__", "").startswith("spinldp"):
                f = f.f_back
            where = f"{f.f_globals['__name__']}:{f.f_lineno}" if f else "outside spinldp"
            raise ImportError(f"scipy is blocked ({where} asked for {name})")
        return None

sys.meta_path.insert(0, BlockScipy)

modules, configs, out_dir = json.loads(sys.argv[2]), sys.argv[3], sys.argv[4]
for m in modules:
    importlib.import_module(f"spinldp.{m}")
rf = sys.modules["spinldp.rate_functions"]
rf.double_well_rate(1.5)
rf.bernoulli_rate(0.5)
from spinldp import cli, verification
codes = {c: cli.main([c, f"{configs}/{c.replace('-', '_')}.json", "--out-dir", out_dir])
         for c in ("fd-lagrangian", "mag-rate")}
c7 = verification.criterion_7({"seed": 1, "c7_models": 8})
print(json.dumps({"codes": codes, "criterion_7": c7.passed,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "spinldp": sys.modules["spinldp"].__file__}))
"""


def _benchmark_modules():
    """perfbench/run.py's MODULES, the spinldp modules a benchmark set-up imports."""
    for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MODULES" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py defines no MODULES")


def test_benchmark_modules_and_rate_functions_load_no_scipy(tmp_path):
    modules = _benchmark_modules()
    assert len(modules) == 11
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src"), json.dumps(modules),
                          str(ROOT / "configs"), str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    got = json.loads(out.stdout.splitlines()[-1])
    assert Path(got["spinldp"]).resolve().is_relative_to(ROOT / "src")
    assert got["scipy"] == []
    assert got["codes"] == {"fd-lagrangian": 0, "mag-rate": 0}
    assert got["criterion_7"] is True
    assert (tmp_path / "out" / "fd_lagrangian.json").is_file()
    assert (tmp_path / "out" / "mag_rate.csv").is_file()
