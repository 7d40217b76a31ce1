"""Checks on the library's source text."""

import ast
import subprocess
import sys
from pathlib import Path

import gibonacci

LIBRARY = Path(gibonacci.__file__).parent


def _imports(module: str) -> set[str]:
    """Every module path that a library module's imports name, a relative one
    read from the package: ``from . import x`` names gibonacci and gibonacci.x."""
    names = set()
    for node in ast.walk(ast.parse((LIBRARY / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "gibonacci" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _defines(module: str) -> set[str]:
    """The names a library module binds at its top level, imports aside."""
    names = set()
    for node in ast.parse((LIBRARY / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_the_term_kernel_sits_below_the_identity_suite():
    # sequences is the term kernel alone: it imports only the standard
    # library and defines none of the suite's names, not even as an alias
    assert {name.split(".")[0] for name in _imports("sequences")} <= sys.stdlib_module_names
    assert _defines("sequences") & _defines("identities") == set()
    # and no layer below the suite reaches up into it
    for module in ("sequences", "pisano", "gcdsum", "factor", "applications"):
        suite = {n for n in _imports(module) if n.split(".")[:2] == ["gibonacci", "identities"]}
        assert suite == set(), module


def test_library_has_no_assert_statements():
    # python -O drops assert statements, so every internal check must raise
    found = []
    for path in sorted(Path(gibonacci.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_importing_the_package_leaves_dataclasses_and_inspect_unloaded():
    # the result records are NamedTuples: `import dataclasses` pulls in
    # inspect, ast, dis and tokenize, about half of the package's import time;
    # verify.run_all imports its fork runner's pickle and select when it runs,
    # and needs no pool from multiprocessing or concurrent.futures
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import gibonacci, gibonacci.cli, gibonacci.verify; "
              "print(sorted({'dataclasses', 'inspect', 'pickle', 'select', 'multiprocessing', "
              "'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", script, str(LIBRARY.parent)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
