"""Session.ask and Session.tell are the only writers of a transcript: no module
under src/dfipp but session.py reads `._record`, and in session.py only those
two methods do."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dfipp"


def _record_reads(path):
    """The enclosing function name (None at module level) of each `._record` read."""
    reads = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "_record":
            reads.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return reads


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "session.py"],
                         ids=lambda p: p.name)
def test_no_module_but_session_reads_record(path):
    assert _record_reads(path) == []


def test_record_is_called_by_ask_and_tell_only():
    assert sorted(_record_reads(SRC / "session.py")) == ["ask", "tell"]
