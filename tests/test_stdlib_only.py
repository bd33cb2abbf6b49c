"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nchopf").glob("*.py"))


def absolute_imports(path):
    """The top-level module of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    assert SOURCES
    allowed = sys.stdlib_module_names | {"nchopf"}
    foreign = {
        f"{path.name}: {module}"
        for path in SOURCES
        for module in absolute_imports(path)
        if module not in allowed
    }
    assert not foreign
