"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import sprego

SOURCES = sorted(Path(sprego.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_the_standard_library():
    assert len(SOURCES) >= 10
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"sprego"}
    }
    assert outside == set()


def test_the_guard_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import csv\nfrom numpy import array\nfrom . import table\n", encoding="utf-8")
    assert list(_absolute_imports(probe)) == ["csv", "numpy"]
