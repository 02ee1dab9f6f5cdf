"""The package stays standard-library only: every import in src/dfipp is
relative or names a standard-library module."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dfipp"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    foreign = [f"{path.name}:{line}: {name}" for line, name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_package_sources_found():
    assert (SRC / "__init__.py").is_file()
