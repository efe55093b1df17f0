"""The settable surface of src/ does not grow unargued.

A settable value is a keyword parameter with a default (lambdas excluded)
or a dataclass field with a default, counted over every module under
src/spinldp by an AST walk.  A config field is an entry of a field table
under cli.FIELDS, nested tables included; the AST walk cannot see those,
because a table's defaults are data.  CHANGES.md records both counts and
argues each change to them; SETTABLE_VALUES and CONFIG_FIELDS are those
recorded numbers.
"""

import ast
import inspect
from pathlib import Path

from spinldp import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "spinldp"

SETTABLE_VALUES = 47
CONFIG_FIELDS = 79


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


def _is_table(x) -> bool:
    return isinstance(x, dict) and bool(x) and all(
        isinstance(entry, tuple) and len(entry) == 2 for entry in x.values())


def kind_tables(kind) -> list:
    """The field tables a kind walks: the kind itself when it is a table (a
    nested object), else the tables, or the tables of a {kind: table} dict,
    that the kind's function refers to."""
    if isinstance(kind, dict):
        return [kind]
    refs = inspect.getclosurevars(kind)
    found = []
    for x in (*refs.nonlocals.values(), *refs.globals.values()):
        if _is_table(x):
            found.append(x)
        elif isinstance(x, dict) and x and all(_is_table(t) for t in x.values()):
            found.extend(x.values())
    return found


def config_tables() -> list:
    """Every field table under cli.FIELDS, each once."""
    seen, todo = {}, list(cli.FIELDS.values())
    while todo:
        table = todo.pop()
        if id(table) not in seen:
            seen[id(table)] = table
            todo.extend(t for kind, _ in table.values() for t in kind_tables(kind))
    return list(seen.values())


def test_kind_tables_sees_nested_and_per_kind_tables():
    tables = [id(t) for t in config_tables()]
    for nested in (cli._GRID, *cli._RATES.values(), *cli.FIELDS.values(),
                   cli.FIELDS["scan-bad"]["solver"][0]):
        assert id(nested) in tables


def test_config_fields_do_not_grow():
    total = sum(len(t) for t in config_tables())
    assert total <= CONFIG_FIELDS, (
        f"cli.FIELDS declares {total} config fields, {CONFIG_FIELDS} recorded: a new field must "
        f"be argued in CHANGES.md; update the number there and here")
