"""Session.query, read, charge and sample are the only writers of a ledger's query
and sample counts: no other function or method under src/dfipp stores to a
`.queries` or `.samples` attribute, so each input query and each draw from the
sample oracle is charged by the oracle call that makes it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dfipp"
COUNTS = {"queries", "samples"}


def _count_writes(source):
    """Sorted (enclosing class, enclosing function, attribute) of each store to a
    .queries or .samples attribute; "" where there is no enclosing class or function."""
    writes = []

    def visit(node, cls, func):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, ""
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr in COUNTS):
            writes.append((cls, func, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(ast.parse(source), "", "")
    return sorted(writes)


def test_only_the_session_oracles_write_the_query_and_sample_counts():
    writes = [(path.name, *write) for path in sorted(SRC.glob("*.py"))
              for write in _count_writes(path.read_text())]
    assert writes == [("session.py", "Session", "charge", "queries"),
                      ("session.py", "Session", "query", "queries"),
                      ("session.py", "Session", "read", "queries"),
                      ("session.py", "Session", "sample", "samples")]


PROBE = """
class Oracles:
    def query(self, i):
        self.ledger.queries += 1

def draw(session):
    ledger = session.ledger
    ledger.samples = ledger.samples + 1
    return ledger.queries
"""


def test_guard_sees_a_write_outside_the_session_and_through_an_alias():
    assert _count_writes(PROBE) == [("", "draw", "samples"), ("Oracles", "query", "queries")]
