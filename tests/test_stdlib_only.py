"""The runtime uses only the standard library."""

import ast
import sys
from pathlib import Path

import rskcheck

PACKAGE = Path(rskcheck.__file__).parent


def absolute_imports(path):
    """The top-level module of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {
        (path.name, module)
        for path in sources
        for module in absolute_imports(path)
        if module not in sys.stdlib_module_names and module != "rskcheck"
    }
    assert outside == set()
