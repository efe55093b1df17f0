"""Every name the benchmark runner in perfbench/ looks up on spinldp resolves.

perfbench/test_smoke.py, which runs the benchmark, lies outside the default
test paths, so without this a deleted or renamed function could break
`python3 perfbench/run.py --trace 1` while this suite stays green.  Nothing
here runs the benchmark; it only reads perfbench's sources.
"""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import spinldp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.SPANS]


def _attribute_reads():
    """Every mods.<module>.<name> in perfbench's sources."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        found.update(re.findall(r"\bmods\.(\w+)\.(\w+)", path.read_text()))
    return found


# read outside SPANS: the two leaf evaluators the tracer wraps, and the
# environment record's kernel probe
LEAVES = [
    ("magnetization", "mag_value_and_partials"),
    ("badness", "rate_function_from_descriptor"),
    ("kernels", "using_compiled_core"),
]


@pytest.mark.parametrize("module, attr", sorted({*_spans(), *LEAVES, *_attribute_reads()}))
def test_benchmark_lookup_resolves(module, attr):
    assert hasattr(importlib.import_module(f"spinldp.{module}"), attr)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(spinldp.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"spinldp.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
