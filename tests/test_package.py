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


def test_arrow_coords_are_read_only_in_pathalg():
    """Every other layer reads the arrows from the algebra's action tables
    ``right_action`` and ``left_action``: no module of the package but
    ``pathalg`` reads ``arrow_coords``."""
    offenders = []
    for path in sorted(Path(preproj.__file__).parent.rglob("*.py")):
        if path.name != "pathalg.py":
            offenders.extend(
                f"{path.name}:{node.lineno}"
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.Attribute)
                and node.attr == "arrow_coords")
    assert offenders == []


def _definitions():
    """name -> the top-level functions and classes and the methods of the
    package that bear it."""
    defs = {}
    for path in sorted(Path(preproj.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs.setdefault(item.name, []).append(item)
    return defs


def _module_statements():
    """The statements every import runs besides definitions and imports."""
    for path in sorted(Path(preproj.__file__).parent.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import,
                                     ast.ImportFrom, ast.Expr)):
                yield node


def _names_used(node):
    """The names a definition refers to, as names or attributes; a class
    refers to what its decorators, bases and non-method statements name."""
    if isinstance(node, ast.ClassDef):
        parts = node.decorator_list + node.bases + [
            item for item in node.body if not isinstance(item, ast.FunctionDef)]
    else:
        parts = [node]
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr


# names reached from outside the package, with the reason
EXTRA_ROOTS = {"groebner_words": "perfbench reads it"}


def test_src_holds_only_what_a_command_runs():
    """Every function, class and method of the package is reached from
    ``cli.main``, a dunder method or a statement run on import, following
    every name a reached definition uses: a route only tests call belongs
    in the tests.  The graph is by name, so it over-approximates."""
    defs = _definitions()
    work = ["main", *EXTRA_ROOTS,
            *(name for name in defs if name.startswith("__")),
            *(name for node in _module_statements()
              for name in _names_used(node))]
    reached = set()
    while work:
        name = work.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        work.extend(used for node in defs[name] for used in _names_used(node))
    unreached = sorted(set(defs) - reached)
    assert unreached == [], "no command reaches " + ", ".join(unreached)


def test_oracles_are_not_in_src():
    """No top-level name of ``tests/oracles.py`` is defined in the package:
    a second route kept as a test oracle does not come back next to the
    route it checks."""
    oracles = Path(__file__).with_name("oracles.py")
    names = {node.name for node in ast.parse(oracles.read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert names
    assert sorted(names & set(_definitions())) == []
