"""The package imports what pyproject.toml declares, and declares what it imports."""

import ast
import pathlib
import re
import sys

import pytest

# pyproject.toml admits Python 3.10, whose standard library has no TOML reader
tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imported_packages() -> set[str]:
    """The top-level names of the absolute imports under ``src/csforge``, outside the standard library."""
    names = set()
    for path in (ROOT / "src" / "csforge").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "csforge"}


def _declared_packages() -> set[str]:
    """The distribution names of ``[project] dependencies``, as import names."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_")
            for spec in project["dependencies"]}


def test_every_import_is_declared_and_every_declaration_imported():
    imported, declared = _imported_packages(), _declared_packages()
    assert "orjson" in imported and "numpy" in imported
    assert imported == declared, (f"imported, not declared: {sorted(imported - declared)}; "
                                  f"declared, not imported: {sorted(declared - imported)}")
