"""Every name a `dptree` module imports is used in that module, and every
function, class and method the package defines is used by the package or
the bench.

No linter is installed, so the checks parse the sources with `ast`. The
package `__init__.py` is skipped: its imports are the public exports. A
definition counts as used when its name is read anywhere in `src/dptree`,
or anywhere in `bench/`, string constants included (the bench names the
layers it patches in strings). Tests do not count: a definition only they
read belongs with them.
"""

import ast
import re
from pathlib import Path

import pytest

import dptree

PACKAGE = Path(dptree.__file__).parent
BENCH = PACKAGE.parent.parent / "bench"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# Definitions no run path reads yet, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    # Read only by tests until the trace of ROADMAP item 3 writes a run's
    # final tree with it.
    "DecisionTree.to_dict",
}


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


def definitions(source: str) -> list[str]:
    """Top-level functions and classes, and the methods of those classes
    as "Class.method"; dunder methods and click commands are left out, as
    Python and click call them."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not any(
            isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
            for d in node.decorator_list
        ):
            found.append(node.name)
        elif isinstance(node, ast.ClassDef):
            found.append(node.name)
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
    return found


def referenced_names(source: str, strings: bool) -> set[str]:
    """Names read in `source`, as variables or attributes, and with
    `strings` every identifier inside a string constant."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def unreferenced(defined: dict, package_sources: list, bench_sources: list) -> list[str]:
    """"module: name" for each definition in `defined` (module -> names)
    whose last name part no source reads."""
    used = set().union(*(referenced_names(source, False) for source in package_sources),
                       *(referenced_names(source, True) for source in bench_sources))
    return [f"{module}: {name}" for module, names in defined.items() for name in names
            if name.rsplit(".", 1)[-1] not in used]


def test_every_definition_is_used_outside_tests():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8") for path in sorted(BENCH.rglob("*.py"))]
    assert bench, f"no bench sources under {BENCH}"
    defined = {module: [name for name in definitions(source) if name not in UNREFERENCED_ALLOWED]
               for module, source in sources.items()}
    assert unreferenced(defined, list(sources.values()), bench) == []


PLANTED_PACKAGE = '''
import click


@click.group()
def main():
    pass


class Pool:
    def __init__(self):
        self.k = 1

    def from_shards(self):
        pass

    def planted(self):
        pass


def helper():
    return Pool()


def checker():
    """Read only by tests."""
'''
PLANTED_BENCH = '''
LAYERS = {"split_strategies": {"Pool.from_shards": None}}
helper()
'''


def test_check_flags_a_definition_only_tests_use():
    defined = {"m.py": definitions(PLANTED_PACKAGE)}
    assert defined["m.py"] == ["Pool", "Pool.from_shards", "Pool.planted", "helper", "checker"]
    flagged = ["m.py: Pool.planted", "m.py: checker"]
    assert unreferenced(defined, [PLANTED_PACKAGE], [PLANTED_BENCH]) == flagged
    # A name in a package string does not count; in a bench string it does.
    assert unreferenced(defined, [PLANTED_PACKAGE + 'NAME = "checker"\n'], [PLANTED_BENCH]) == flagged
    assert unreferenced(defined, [PLANTED_PACKAGE], [PLANTED_BENCH + 'NAME = "checker"\n']) == flagged[:1]
