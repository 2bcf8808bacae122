"""Every name a `sphmean` module imports is used there, or re-exported
through its `__all__`: an import left behind by a deleted code path fails."""

import ast
from pathlib import Path

import sphmean


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_of_the_package_is_used():
    package = Path(sphmean.__file__).parent
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(package.glob("*.py"))
             for line, name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_an_import_left_behind_is_found():
    source = ("from .transform import BLOCK_NODES, DEFAULT_QUAD\n"
              "import numpy as np\n"
              "__all__ = ['DEFAULT_QUAD']\n"
              "x = np.zeros(1)\n")
    assert _unused_imports(source) == [(1, "BLOCK_NODES")]
