"""Every public top-level function and class under src/dfipp is reached from a
program path, not only from tests: outside its own definition it is named in
another src/dfipp module (not __init__.py, whose re-exports reach nothing), in
its own module, or in demos/ or perfbench/, where run.py also names the
callables it traces as "<module>.<attribute>" strings.  A helper that only its
own tests call belongs in tests/."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dfipp"
USERS = ("demos", "perfbench")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _named(node, modules=()):
    """Identifiers that node names: Name and Attribute nodes, plus the attribute of
    each "<module>.<attribute>..." string constant whose module is in modules."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if len(parts) > 1 and parts[0] in modules:
                out.add(parts[1])
    return out


def _unreached(modules, users):
    """Sorted (module, name) of each public top-level function or class of the
    modules ({name: source}) that nothing names outside its own definition; users
    are the sources of the programs that run the package."""
    named = {name: [_named(node) for node in ast.parse(src).body]
             for name, src in modules.items() if name != "__init__"}
    from_users = set().union(*(_named(ast.parse(src), modules) for src in users))
    unreached = []
    for name, src in modules.items():
        if name == "__init__":
            continue
        elsewhere = from_users.union(*(s for other, sets in named.items() if other != name
                                       for s in sets))
        for i, node in enumerate(ast.parse(src).body):
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                own = set().union(*(s for j, s in enumerate(named[name]) if j != i))
                if node.name not in elsewhere | own:
                    unreached.append((name, node.name))
    return sorted(unreached)


def test_every_public_definition_is_reached_from_a_program_path():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = [path.read_text() for d in USERS for path in sorted((ROOT / d).glob("*.py"))]
    assert _unreached(modules, users) == []


PROBE = {
    "a": """
def used_later():
    return 1

def recursive(n):
    return recursive(n - 1)

def traced():
    pass

def run():
    return used_later()

class Exported:
    pass

def _private():
    pass
""",
    "b": """
from . import a

def caller():
    return a.run()
""",
    "__init__": "from .a import Exported, recursive\n",
}

PROBE_USERS = ['SPANS = {"a.traced": "calls", "other.Exported": "calls"}\n',
               "import dfipp.b\ndfipp.b.caller()\n"]


def test_guard_counts_only_names_outside_the_definition_and_the_init():
    # recursion, an __init__ re-export and a string naming another package reach
    # nothing; a later use in the module, another module, a user and a traced
    # "module.attr" string each do
    assert _unreached(PROBE, PROBE_USERS) == [("a", "Exported"), ("a", "recursive")]
