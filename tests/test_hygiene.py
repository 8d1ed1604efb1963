"""Source hygiene read from the syntax trees of ``src/gausswork/*.py``, since no linter runs in CI.

An import the module never reads, and a module-level private name that nothing in the package reads, are what a
consolidation leaves behind when it moves a rule to one place and forgets the old copy.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gausswork").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _read_names(tree) -> set:
    """Every name a tree reads: loaded identifiers, attribute names and names imported from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _defined_privates(tree) -> set:
    """Module-level names with one leading underscore: functions, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_the_package_has_sources():
    assert {"symplectic.py", "states.py", "fock.py", "cli.py"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_import(name):
    tree = TREES[name]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unused = {bound: line for bound, line in imported.items() if bound not in loaded}
    assert not unused, f"{name} imports names it never reads (name: line): {unused}"


def test_every_module_level_private_name_is_read_somewhere():
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    orphans = {name: sorted(_defined_privates(tree) - read) for name, tree in TREES.items()}
    assert not any(orphans.values()), f"private names nothing in src/ reads: {orphans}"


def test_the_private_name_check_sees_an_orphan():
    tree = ast.parse("def _orphan():\n    return 1\n\n\ndef _used():\n    return 2\n\n\nVALUE = _used()\n")
    assert _defined_privates(tree) - _read_names(tree) == {"_orphan"}
