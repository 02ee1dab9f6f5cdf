"""SamplingCircuit.table is the one full enumeration of a circuit's inputs under
src/dfipp: no other function calls range() over 1 << w or 2 ** w, where w is a
circuit's n_inputs, either directly or through local names assigned from it.
Everything else that needs every output reads the table, so a second
enumeration cannot come back unnoticed."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dfipp"


def _reads(node, names):
    """Whether node reads one of names; the attribute n_inputs (as in C.n_inputs)
    counts as the name n_inputs."""
    return any((isinstance(sub, ast.Name) and sub.id in names)
               or (isinstance(sub, ast.Attribute) and sub.attr == "n_inputs"
                   and "n_inputs" in names) for sub in ast.walk(node))


def _powers(node, widths):
    """Whether node holds 1 << w or 2 ** w with w read from a width."""
    return any(isinstance(sub, ast.BinOp) and isinstance(sub.left, ast.Constant)
               and ((isinstance(sub.op, ast.LShift) and sub.left.value == 1)
                    or (isinstance(sub.op, ast.Pow) and sub.left.value == 2))
               and _reads(sub.right, widths) for sub in ast.walk(node))


def _bindings(func):
    """(target name, value) of each assignment in func, pairing tuple targets with
    tuple values element by element."""
    pairs = []
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and node.value:
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                        and len(target.elts) == len(node.value.elts):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs += [(t, node.value) for t in ast.walk(target)]
    return [(t.id, v) for t, v in pairs if isinstance(t, ast.Name)]


def _taint(func, widths, sizes):
    """The widths and sizes among func's locals, added to those of its encloser.  A
    width is read from n_inputs or another width; a size is 1 << w or 2 ** w of a
    width w, or another size's name."""
    widths, sizes = set(widths), set(sizes)
    bindings = _bindings(func)
    while True:
        grown = (len(widths), len(sizes))
        for name, value in bindings:
            if _powers(value, widths) or (isinstance(value, ast.Name) and value.id in sizes):
                sizes.add(name)
            elif _reads(value, widths):
                widths.add(name)
        if (len(widths), len(sizes)) == grown:
            return widths, sizes


def _enumerations(source):
    """Sorted (enclosing class, enclosing function) of each range() call over every
    input of a circuit; "" where there is no enclosing class or function."""
    found = []

    def visit(node, cls, func, widths, sizes):
        if isinstance(node, ast.ClassDef):
            cls, func = node.name, ""
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
            widths, sizes = _taint(node, widths, sizes)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "range"
              and any(_powers(arg, widths) or _reads(arg, sizes) for arg in node.args)):
            found.append((cls, func))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func, widths, sizes)

    visit(ast.parse(source), "", "", frozenset({"n_inputs"}), frozenset())
    return sorted(found)


def test_only_the_truth_table_enumerates_every_circuit_input():
    found = [(path.name, *where) for path in sorted(SRC.glob("*.py"))
             for where in _enumerations(path.read_text())]
    assert found == [("distributions.py", "SamplingCircuit", "table")]


PROBE = """
def pmf(C):
    return [C.eval(x) for x in range(2 ** C.n_inputs)]

def tables(circuit):
    ell, other = circuit.n_inputs, 3
    size, width = 1 << ell, max(ell, 1)
    total = size
    return circuit.eval_many(range(total)), range(width), range(1 << other)

def verify(circuit, union):
    full = len(union) == (n := 1 << circuit.n_inputs)
    def inner():
        return range(n)
    return inner

def codeword(bits, n_inputs):
    return [x for x in range(1 << bits)], range(n_inputs), range(1 << n_inputs)
"""


def test_guard_sees_enumerations_through_aliases_and_closures():
    assert _enumerations(PROBE) == [("", "codeword"), ("", "inner"), ("", "pmf"),
                                    ("", "tables")]
