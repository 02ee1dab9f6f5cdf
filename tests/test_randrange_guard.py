"""No module under src/dfipp calls randrange inside a comprehension or generator
expression: a fixed-range bulk draw goes through field.uniform_draws, which
gives the same values without a randrange call per draw."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dfipp"
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _randrange_in_comprehensions(source):
    """Line numbers of the randrange calls anywhere inside a comprehension."""
    lines = set()
    for comp in ast.walk(ast.parse(source)):
        if isinstance(comp, COMPREHENSIONS):
            for node in ast.walk(comp):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "randrange"):
                    lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_randrange_in_a_comprehension(path):
    assert _randrange_in_comprehensions(path.read_text()) == []


def test_guard_sees_each_comprehension_kind():
    source = ("a = [r.randrange(3) for _ in x]\n"
              "b = {r.randrange(3) for _ in x}\n"
              "c = {i: r.randrange(3) for i in x}\n"
              "d = tuple(r.randrange(3) for _ in x)\n"
              "e = [[y for y in x] for _ in range(r.randrange(3))]\n"
              "f = r.randrange(3)\n"
              "for _ in x:\n    g = r.randrange(3)\n")
    assert _randrange_in_comprehensions(source) == [1, 2, 3, 4, 5]
