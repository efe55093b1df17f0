"""The library computes; the CLI alone writes files and rejects configs.

Library functions return values, and `spinldp.cli` writes every output file
and parses every config, so a file format or a config format has one owner.
This reads the sources of src/spinldp without importing them.
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


def test_imported_names_sees_relative_and_from_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .io_utils import write_csv\nfrom . import errors\n"
                     "import spinldp.io_utils\ndef f():\n    from .errors import ConfigError\n")
    assert imported_names(probe) == {"io_utils", "write_csv", "errors", "ConfigError"}


def test_only_cli_imports_the_writers():
    importers = sorted(p.stem for p in SRC.rglob("*.py") if "io_utils" in imported_names(p))
    assert importers == ["cli"]


def test_library_modules_raise_no_config_error():
    for module in ("lattice", "badness", "poisson_walk"):
        assert "ConfigError" not in imported_names(SRC / f"{module}.py"), module
