"""spinldp starts without SciPy.

Importing scipy.optimize costs most of a cold start, so the one LP that
needs it (fj_lagrangian_dual's strictly feasible start) imports it at its
call.  This test imports every module the benchmark loads and builds the
two built-in rate functions, then checks that no scipy module is loaded.
It runs in a fresh interpreter: other tests load SciPy into this one.
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

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

class FirstScipyImport:
    # a finder that finds nothing: it notes the spinldp line that first asks for scipy
    where = None

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if cls.where is None and name.split(".")[0] == "scipy":
            f = sys._getframe(1)
            while f is not None and not f.f_globals.get("__name__", "").startswith("spinldp"):
                f = f.f_back
            cls.where = f"{f.f_globals['__name__']}:{f.f_lineno}" if f else "outside spinldp"
        return None

sys.meta_path.insert(0, FirstScipyImport)

steps = [(f"import spinldp.{m}", lambda m=m: importlib.import_module(f"spinldp.{m}"))
         for m in json.loads(sys.argv[2])]
steps += [("double_well_rate(1.5)", lambda: sys.modules["spinldp.rate_functions"].double_well_rate(1.5)),
          ("bernoulli_rate(0.5)", lambda: sys.modules["spinldp.rate_functions"].bernoulli_rate(0.5))]
culprit = None
for name, step in steps:
    step()
    if culprit is None and scipy_modules():
        culprit = f"{name} (at {FirstScipyImport.where})"
print(json.dumps({"culprit": culprit, "scipy": scipy_modules(),
                  "spinldp": sys.modules["spinldp"].__file__}))
"""


def _benchmark_modules():
    """perfbench/run.py's MODULES, the spinldp modules a benchmark set-up imports."""
    for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MODULES" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py defines no MODULES")


def test_benchmark_modules_and_rate_functions_load_no_scipy():
    modules = _benchmark_modules()
    assert len(modules) == 11
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src"), json.dumps(modules)],
                         capture_output=True, text=True, check=True, timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    assert Path(got["spinldp"]).resolve().is_relative_to(ROOT / "src")
    assert got["scipy"] == [], f"{got['culprit']} loaded SciPy: {got['scipy'][:5]}"
