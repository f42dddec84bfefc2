"""Every name a library module, test or script imports is used in that
module, and every library import sits at module level."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cliffdegen"


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression in the module
    reads (``from __future__`` imports and names listed in ``__all__`` are
    exempt)."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def imports_in_functions(source: str) -> list:
    """(line, function name) of each import statement inside a function
    body, nested functions and methods included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((inner.lineno, node.name))
    return sorted(set(found))


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads as l\nfrom __future__ import annotations\nl('1')\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_library_modules_have_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_tests_and_scripts_have_no_unused_imports():
    paths = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(paths) > 10
    found = {
        f"{path.parent.name}/{path.name}": unused
        for path in paths
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_the_scan_finds_an_import_inside_a_function():
    source = (
        "import os\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return dumps\n"
        "class C:\n"
        "    def g(self):\n"
        "        import random\n"
    )
    assert imports_in_functions(source) == [(3, "f"), (7, "g")]
    assert imports_in_functions("import os\ndef f():\n    return os.sep\n") == []


def test_library_functions_import_nothing():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := imports_in_functions(path.read_text()))
    }
    assert found == {}
