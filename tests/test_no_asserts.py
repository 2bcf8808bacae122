"""The package checks its invariants with raised errors: `python -O`
strips assert statements, so none may carry a runtime check."""

import ast
from pathlib import Path

import sphmean


def test_no_assert_statements_in_the_package():
    package = Path(sphmean.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
