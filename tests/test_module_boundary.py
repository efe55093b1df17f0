"""The library computes; the CLI alone writes files, prints and rejects configs.

Library functions return values, and `spinldp.cli` writes every output file,
prints every line and parses every config, so a file format, a console
format or a config format has one owner.  This reads the sources of
src/spinldp without importing them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinldp"


def imported_names(path: Path) -> set:
    """Every module and every `from` name path imports, its own relative
    imports resolved to spinldp's module names (".io_utils" -> "io_utils")."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            found.update(alias.name for alias in node.names)
    return found


def calls_print(path: Path) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "print" for node in ast.walk(ast.parse(path.read_text())))


# every module but cli and errors, which defines ConfigError
LIBRARY = sorted(p for p in SRC.rglob("*.py") if p.stem not in ("cli", "errors"))


def test_imported_names_sees_relative_and_from_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .io_utils import write_csv\nfrom . import errors\n"
                     "import spinldp.io_utils\ndef f():\n    from .errors import ConfigError\n")
    assert imported_names(probe) == {"io_utils", "write_csv", "errors", "ConfigError"}


def test_only_cli_imports_the_writers():
    importers = sorted(p.stem for p in SRC.rglob("*.py") if "io_utils" in imported_names(p))
    assert importers == ["cli"]


def test_calls_print_sees_calls_not_names_or_strings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(x):\n    return [print(x)]\n")
    assert calls_print(probe)
    probe.write_text("pprint = print\nx = 'print(1)'\n")
    assert not calls_print(probe)


def test_library_modules_raise_no_config_error():
    importers = [p.stem for p in LIBRARY if "ConfigError" in imported_names(p)]
    assert importers == []


def test_library_modules_print_nothing():
    assert [p.stem for p in LIBRARY if calls_print(p)] == []
