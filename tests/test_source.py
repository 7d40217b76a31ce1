"""Checks on the library's source text."""

import ast
from pathlib import Path

import gibonacci


def test_library_has_no_assert_statements():
    # python -O drops assert statements, so every internal check must raise
    found = []
    for path in sorted(Path(gibonacci.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
