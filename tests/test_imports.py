"""Every name a `dptree` module imports is used in that module.

No linter is installed, so the check parses the modules with `ast`. The
package `__init__.py` is skipped: its imports are the public exports.
"""

import ast
from pathlib import Path

import pytest

import dptree

MODULES = sorted(path for path in Path(dptree.__file__).parent.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_import():
    source = "from .tree_learning import Criterion, DecisionTree\n\nDecisionTree()\n"
    assert unused_imports(source) == ["line 1: Criterion"]
