"""The settable surface of src/ does not grow unargued.

A settable value is a keyword parameter with a default (lambdas excluded)
or a dataclass field with a default, counted over every module under
src/spinldp by an AST walk.  CHANGES.md records the count and argues each
change to it; SETTABLE_VALUES is that recorded number.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinldp"

SETTABLE_VALUES = 66


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(path: Path) -> dict:
    """{module.name: count} of the settable values each function or dataclass
    in path defines."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            count = len(a.defaults) + sum(d is not None for d in a.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count = sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
        else:
            continue
        if count:
            found[f"{path.stem}.{node.name}"] = found.get(f"{path.stem}.{node.name}", 0) + count
    return found


def test_counter_sees_defaults_and_dataclass_fields_but_not_lambdas(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "def f(a, b=1, *, c=2, d):\n"
        "    return lambda x=3: x\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    z: float = 1.0\n"
        "class C:\n"
        "    w: int = 5\n"
    )
    assert settable_values(probe) == {"probe.f": 2, "probe.A": 1, "probe.B": 1}


def test_settable_values_do_not_grow():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        found.update(settable_values(path))
    total = sum(found.values())
    assert total <= SETTABLE_VALUES, (
        f"src/ has {total} settable values, {SETTABLE_VALUES} recorded: a new option must be "
        f"argued in CHANGES.md; update the number there and here ({found})")
