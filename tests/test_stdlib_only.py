"""The package is standard-library only: every import in ``src/halfhandle``
is relative or names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "halfhandle"


def imported(tree):
    """The top-level names of the absolute imports in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_imports_the_standard_library_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for name in imported(tree):
            assert name in sys.stdlib_module_names, (path.name, name)


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nfrom . import moves\nimport numpy.linalg\n"
                     "from hypothesis import given\n")
    outside = [n for n in imported(tree) if n not in sys.stdlib_module_names]
    assert outside == ["numpy", "hypothesis"]
