"""The package's own imports form a DAG, all at module level."""

import ast
import graphlib
from pathlib import Path

import udnsync

PACKAGE = Path(udnsync.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
           for p in PACKAGE.glob("*.py")}


def _imports(tree: ast.Module) -> list[ast.Import | ast.ImportFrom]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def _targets(node: ast.Import | ast.ImportFrom) -> set[str]:
    """Package modules an import reads; ``udnsync`` itself is ``__init__``."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.module == "udnsync":
        names = [f"udnsync.{alias.name}" for alias in node.names]
    else:
        names = [node.module or ""]
    found = set()
    for name in names:
        head, _, rest = name.partition(".")
        if head == "udnsync":
            stem = rest.partition(".")[0]
            found.add(stem if stem in MODULES else "__init__")
    return found


def test_every_import_is_at_module_level():
    nested = [f"{stem}.py:{node.lineno}"
              for stem, tree in MODULES.items()
              for node in _imports(tree) if node not in tree.body]
    assert nested == []


def test_package_imports_form_a_dag():
    # every import counts, deferred or not: a cycle hidden in a function
    # or a TYPE_CHECKING block is still a cycle
    graph = {stem: set().union(*map(_targets, _imports(tree)))
             for stem, tree in MODULES.items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError
