"""Source hygiene read from the syntax trees of ``src/gausswork/*.py``, since no linter runs in CI.

An import its own scope (the module, or the function it sits in) never reads, and a module-level private name that
nothing in the package reads, are what a consolidation leaves behind when it moves a rule to one place and forgets the
old copy.  A call the docs name after its public name is deleted is what it leaves behind in the docs.
"""

import ast
import re
from pathlib import Path

import pytest

import gausswork
import gausswork.cli

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gausswork").glob("*.py"))
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unused_imports(tree) -> dict:
    """(name: line) of each import that its own scope never reads.  A module-level import may be read anywhere in the
    module, one made in a function only in that function (and the functions nested in it)."""
    unused = {}
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
        loaded = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        todo = list(ast.iter_child_nodes(scope))
        while todo:  # the scope's own statements, not those of a function nested in it
            node = todo.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused.update((name, node.lineno) for name in bound if name not in loaded)
            elif not isinstance(node, FUNCTIONS):
                todo.extend(ast.iter_child_nodes(node))
    return unused


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_import(name):
    unused = _unused_imports(TREES[name])
    assert not unused, f"{name} imports names it never reads (name: line): {unused}"


def test_the_import_check_reads_each_scope_alone():
    # Module-wide, the module's own use of _b would hide that f never reads the _b it imports.
    tree = ast.parse("import os\n\n\ndef f():\n    from x import _a, _b\n    return _a(os)\n\n\n_b = 1\nprint(_b)\n")
    assert _unused_imports(tree) == {"_b": 5}


def test_every_module_level_private_name_is_read_somewhere():
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    orphans = {name: sorted(_defined_privates(tree) - read) for name, tree in TREES.items()}
    assert not any(orphans.values()), f"private names nothing in src/ reads: {orphans}"


def test_the_private_name_check_sees_an_orphan():
    tree = ast.parse("def _orphan():\n    return 1\n\n\ndef _used():\n    return 2\n\n\nVALUE = _used()\n")
    assert _defined_privates(tree) - _read_names(tree) == {"_orphan"}


def _missing_names(readme: str, workflow: str) -> list:
    """Each ``name(`` the README spells in backticks and each ``gw.name`` the workflow runs that neither
    ``gausswork`` nor ``gausswork.cli`` has."""
    names = {*re.findall(r"`([A-Za-z_]\w*)\(", readme), *re.findall(r"\bgw\.([A-Za-z_]\w*)", workflow)}
    return sorted(name for name in names if not any(hasattr(module, name) for module in (gausswork, gausswork.cli)))


def test_the_docs_name_only_public_names():
    readme, workflow = (ROOT / "README.md", ROOT / ".github" / "workflows" / "tests.yml")
    missing = _missing_names(readme.read_text(encoding="utf-8"), workflow.read_text(encoding="utf-8"))
    assert not missing, f"README.md or tests.yml names what gausswork and gausswork.cli lack: {missing}"


def test_the_docs_check_sees_a_missing_name():
    found = _missing_names("`bs_matrix_element(2, 0, 1, 1, eta)`, `np.diag([1, 2])`, `squeezed(r)`",
                           "python -c 'import gausswork as gw; gw.diag(1); gw.vacuum(2)'")
    assert found == ["bs_matrix_element", "diag"]
