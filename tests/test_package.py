"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import preproj


def test_no_module_imports_random():
    """Answers never depend on a seed: no module of the package imports
    ``random``."""
    modules = sorted(Path(preproj.__file__).parent.rglob("*.py"))
    assert modules
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_function_imports():
    """Every import of the package runs once, at module level: an import
    inside a function runs on every call."""
    modules = sorted(Path(preproj.__file__).parent.rglob("*.py"))
    offenders = []
    for path in modules:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders.extend(
                    f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert offenders == []


def test_cli_makes_no_assert():
    """Every check ``verify`` prints raises on failure: ``python -O``
    strips an ``assert``, and the check with it."""
    path = Path(preproj.__file__).parent / "cli.py"
    assert [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)] == []


def test_no_private_cross_module_imports():
    """No module imports a ``_``-prefixed name from another module of the
    package: what a module shares, it names without the underscore."""
    modules = sorted(Path(preproj.__file__).parent.rglob("*.py"))
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("preproj")):
                offenders.extend(f"{path.name}:{node.lineno} {alias.name}"
                                 for alias in node.names
                                 if alias.name.startswith("_"))
    assert offenders == []
