"""Every name a module of the package or a test file imports is used in it,
and every private name the package defines is used in the package. Modules
of the package import at module level only, and lattice.py imports nothing
of the package but its errors. The contour oracles of tracker.py read
none of the window engine's names.

The package's __init__.py is left out of the import check: it imports names
to re-export them.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "meanmotion"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit") == ["line 1: os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def private_definitions(tree):
    """(name, line, module level?) of each _private name a module defines at
    module or class level: functions, classes and assigned names, not dunders."""
    classes = [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for body, top in [(tree.body, True)] + [(b, False) for b in classes]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    yield name, node.lineno, top


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The private names of modules {stem: source} that no module uses. A
    name is used when another module imports it from the defining one, when
    any module reads it as an attribute, or when a module-level name is read
    in its own module and a class-level one in any module."""
    trees = {stem: ast.parse(src) for stem, src in sources.items()}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    imported = {(n.module.rpartition(".")[2], a.name) for n in nodes
                if isinstance(n, ast.ImportFrom) and n.module for a in n.names}
    read = {stem: {n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for stem, tree in trees.items()}
    anywhere = set().union(*read.values())
    return [f"{stem} line {line}: {name}" for stem, tree in trees.items()
            for name, line, top in private_definitions(tree)
            if name not in attrs and (stem, name) not in imported
            and name not in (read[stem] if top else anywhere)]


def test_detects_a_dead_private_name():
    a = ("from b import _used\n_KEEP = 1\n_DEAD = 2\n"
         "class A:\n    def _gone(self): pass\n    def f(self): return _KEEP\n")
    # b's _SHIFTS is read only in a module that does not import it from b
    b = "_used = 1\n_SHIFTS = ()\n"
    c = "_SHIFTS = ()\nprint(_SHIFTS)\n"
    assert dead_private_names({"a": a, "b": b, "c": c}) == [
        "a line 3: _DEAD", "a line 5: _gone", "b line 2: _SHIFTS",
    ]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_names(sources) == []


def function_level_imports(source: str) -> list[str]:
    """The imports made inside a function body."""
    return [f"line {n.lineno}" for f in ast.walk(ast.parse(source))
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_detects_a_function_level_import():
    source = "import os\ndef f():\n    from .lattice import coordinates\n"
    assert function_level_imports(source) == ["line 3"]


def test_no_function_level_imports():
    found = {p.name: function_level_imports(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_lattice_imports_only_errors():
    tree = ast.parse((PACKAGE / "lattice.py").read_text())
    assert {n.module for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.level} == {"errors"}


# the window engine's functions and constants, which the oracles must not read
ENGINE = {"_trace", "_certify", "_step_ok", "_doomed", "_newton_point", "_increments",
          "_passes", "_crossings", "_detours", "unit_increments", "_scan", "_first_steps",
          "_STEP_FLOOR", "_AXIS_WIDTH", "_DELTAS", "_SHIFTS", "_CUTS"}


def oracle_reads(source: str) -> dict[str, set[str]]:
    """{function: engine names it reads} for the contour oracles
    winding_number and count_zeros_rectangle of a tracker source, and for
    every function of the module outside the engine that they read, in turn."""
    defs = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    found, todo = {}, ["winding_number", "count_zeros_rectangle"]
    while todo:
        name = todo.pop()
        if name in found:
            continue
        nodes = list(ast.walk(defs[name]))
        read = {n.id for n in nodes if isinstance(n, ast.Name)}
        read |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        found[name] = read & ENGINE
        todo += sorted((read & defs.keys()) - ENGINE)
    return found


def test_detects_an_oracle_reading_the_engine():
    source = (PACKAGE / "tracker.py").read_text()
    head = "def _winding(U, path, t):\n"
    assert source.count(head) == 1
    mutant = source.replace(head, head + "    _step_ok\n")
    assert oracle_reads(mutant)["_winding"] == {"_step_ok"}


def test_oracles_share_no_code_with_the_engine():
    found = oracle_reads((PACKAGE / "tracker.py").read_text())
    assert found.keys() == {"winding_number", "count_zeros_rectangle", "_winding",
                            "_rect_path"}
    assert {name: read for name, read in found.items() if read} == {}
