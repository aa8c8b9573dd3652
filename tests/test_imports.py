"""Every name a package module imports is referenced in that module, so a
deleted function cannot leave its imports behind; every private
module-level name is referenced somewhere in the package outside its own
definition, so a replaced helper cannot stay behind unused; every public
top-level function or class is referenced in the package or used by the
tests or the benchmark, so dead code cannot hide behind a public name;
importing the command line loads no process-pool machinery, and a serial
solve through it loads no dataclasses and no argparse; and the tests'
brute-force oracle reads no part of the engine's evaluator or its
desugaring of conditions, and the test modules import it from
``reference``, not from a test module."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "htc"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def references(node) -> set:
    """The names a syntax tree reads, imports or reads as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unreferenced_names(sources: dict, wanted) -> list:
    """(module, name) for each module-level name, defined by a statement
    ``stmt`` with ``wanted(stmt, name)``, that no top-level statement of any
    module references, apart from the statement that defines it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = [
        (module, i, references(stmt))
        for module, tree in trees.items()
        for i, stmt in enumerate(tree.body)
    ]
    out = []
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                defined = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if wanted(stmt, name) and not any(
                    name in names for m, k, names in refs if (m, k) != (module, i)
                ):
                    out.append((module, name))
    return sorted(out)


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) for each module-level name starting with a single
    underscore that no statement of any module references, apart from the
    statement that defines it."""
    return unreferenced_names(
        sources, lambda stmt, name: name.startswith("_") and not name.startswith("__")
    )


def unreferenced_public_names(sources: dict, used_outside: set) -> list:
    """(module, name) for each public top-level function or class that no
    other top-level statement of any module references and that is not in
    ``used_outside``."""

    def public(stmt, name):
        return isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_")

    return [(m, n) for m, n in unreferenced_names(sources, public) if n not in used_outside]


def imported_or_read(source: str) -> set:
    """The names a file imports or reads as attributes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_modules_are_found():
    assert "semantics.py" in MODULES and "checker.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_an_unused_import_is_reported():
    source = "from os import path, sep\nimport json\n\nprint(sep)\n"
    assert unused_imports(source) == ["json", "path"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_an_unreferenced_private_name_is_reported():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(n): return _dead(n - 1)\n_LIMIT = 3\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", "_LIMIT"), ("a.py", "_dead")]


def test_every_public_name_is_used():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    outside = [p for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")]
    used_outside = set().union(*(imported_or_read(p.read_text()) for p in outside))
    assert unreferenced_public_names(sources, used_outside) == []


def test_an_unused_public_name_is_reported():
    sources = {
        "a.py": "def helper(): pass\ndef dead(n): return dead(n - 1)\nclass Kept: pass\n"
        "def exported(): pass\ndef tested(): pass\nLIMIT = 3\n",
        "b.py": "from .a import exported\nhelper()\n",
    }
    outside = imported_or_read("from a import tested\nimport a\na.Kept()\n")
    assert unreferenced_public_names(sources, outside) == [("a.py", "dead")]


def test_the_oracle_reads_no_engine_evaluator():
    # the oracle reads formulas, conditions and sums itself: built on the
    # engine's compiler, its satisfaction or its desugaring of conditions,
    # it would agree with the engine by construction; and the test modules
    # take it from reference alone, not from a test module
    names = imported_or_read((ROOT / "tests" / "reference.py").read_text())
    engine = {"satisfies", "_compile", "_compile_le", "_term_code", "_code_mask", "_satisfied"}
    assert names.isdisjoint(engine | {"total_models", "_desugar_expr_conditions"})
    importers = [
        p.name
        for p in (ROOT / "tests").glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "test_reference_semantics"
    ]
    assert importers == []


def loaded_by_the_command_line(modules, argv=None) -> str:
    """Which of ``modules`` ``import htc.cli``, then ``htc.cli.main(argv)``
    when ``argv`` is given, loads in a fresh interpreter (pytest itself
    loads many modules), as the text of a sorted list."""
    run = f"htc.cli.main({argv!r}); " if argv else ""
    probe = f"import sys, htc.cli; {run}print(sorted({set(modules)!r} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_the_command_line_imports_no_process_pool():
    # only --jobs 2 and up needs a pool; a serial run should not pay for
    # importing one
    assert loaded_by_the_command_line(["concurrent.futures.process", "multiprocessing"]) == "[]"


def test_the_command_line_imports_no_dataclasses():
    # the value classes are plain slotted classes: creating dataclasses, and
    # importing dataclasses with inspect, ast and dis behind it, took about a
    # third of `import htc.cli`, which every htc run pays; and the command
    # line is read from cli's own table: argparse, with gettext behind it,
    # took about 3 ms of every run
    solve = ["solve", str(ROOT / "programs" / "ysum.lc")]
    modules = ["dataclasses", "inspect", "argparse", "gettext"]
    assert loaded_by_the_command_line(modules, solve) == "[]"
