"""Every public module-level function or class of a `sphmean` module is used
somewhere in the package outside its own definition, or is an entry point
the benchmark's tracer wraps: code that only tests call belongs in `tests/`
(fixtures and reference routes in `tests/_oracles.py`)."""

import ast
from pathlib import Path

import sphmean

SPANS = Path(__file__).resolve().parents[1] / "smtbench" / "spans.py"


def _entry_points(source: str) -> set:
    """The names `ENTRY_POINTS` wraps, read from the source without running
    it: the class of a dotted "Class.method" key, and no `**{...}` entry."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "ENTRY_POINTS"
                        for t in node.targets)):
            return {key.value.split(".")[0]
                    for module in node.value.values
                    for key in module.keys if key is not None}
    return set()


def _unreferenced(sources: dict, exempt: set = frozenset()) -> list:
    """(module, name) of each public top-level def or class in `sources`
    (module name -> source) that no other code of theirs names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = {}  # name -> the ids of the nodes that name it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(id(node))
    return sorted(
        (module, node.name) for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in exempt
        and not refs.get(node.name, set()) - set(map(id, ast.walk(node))))


def test_every_public_name_of_the_package_is_used_by_it():
    package = Path(sphmean.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    exempt = _entry_points(SPANS.read_text(encoding="utf-8"))
    assert _unreferenced(sources, exempt) == []


def test_a_name_only_tests_use_is_found():
    sources = {
        "a": ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Fixture:\n    def make(self):\n        return Fixture()\n"
              "def traced():\n    pass\n"
              "def _private():\n    pass\n"),
        "b": "from .a import used\nx = used()\n",
    }
    spans = ("ENTRY_POINTS = {'a': {'traced': 'a.traced', 'Other.method': 'a.m',\n"
             "                      **{f'Jet.{op}': 'a.jet' for op in ('exp',)}}}\n")
    exempt = _entry_points(spans)
    assert exempt == {"traced", "Other"}
    assert _unreferenced(sources, exempt) == [("a", "Fixture"), ("a", "recursive")]
