"""Provers act on the verifier's messages, not on its decisions: no method of a
ProverStrategy subclass under src/dfipp calls granularise or extension_row_map.
The row map of a fold is chosen by the verifier alone and reaches the prover
in the fold/matrix request."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dfipp"
VERIFIER_DECISIONS = {"granularise", "extension_row_map"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _violations(sources):
    """Sorted (class, method, callee) of each verifier-decision call in a method of
    a class that derives from ProverStrategy, through bases in any of the sources."""
    classes = {node.name: node for src in sources for node in ast.walk(ast.parse(src))
               if isinstance(node, ast.ClassDef)}
    provers = {"ProverStrategy"}
    while True:
        grown = {name for name, node in classes.items()
                 if provers & {_name(b) for b in node.bases}} - provers
        if not grown:
            break
        provers |= grown
    return sorted((cls, method.name, _name(call.func))
                  for cls in provers & classes.keys()
                  for method in classes[cls].body
                  if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for call in ast.walk(method)
                  if isinstance(call, ast.Call) and _name(call.func) in VERIFIER_DECISIONS)


def test_no_prover_method_calls_a_verifier_decision():
    assert _violations([path.read_text() for path in sorted(SRC.glob("*.py"))]) == []


PROBE_BASE = """
class Base(ProverStrategy):
    def reply(self, tag, payload):
        return []
"""

PROBE = """
class Mirror(Base):
    def _rowmap(self):
        return distributions.extension_row_map(granularise(self.pmf).counts)

class Verifier:
    def rowmap(self):
        return extension_row_map(granularise(self.pmf).counts)

def fold(pmf):
    return extension_row_map(granularise(pmf).counts)
"""


def test_guard_flags_a_prover_that_derives_the_row_map():
    # a subclass of a prover defined in another module is still a prover;
    # the same calls outside a prover class are the verifier's own
    assert _violations([PROBE_BASE, PROBE]) == [("Mirror", "_rowmap", "extension_row_map"),
                                                ("Mirror", "_rowmap", "granularise")]
    assert _violations([PROBE]) == []
