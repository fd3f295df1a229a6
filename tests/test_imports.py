"""Every name a `dptree` module, a test or a bench file imports is used in
that file, every function, class and method the package defines is used by
the package or the bench, and every exception the package defines but the
learner's internal `DegenerateLeafError` has its own exit code in the CLI.

No linter is installed, so the checks parse the sources with `ast`. The
package `__init__.py` is skipped: its imports are the public exports. A
definition counts as used when its name is read anywhere in `src/dptree`
or `bench/`, or is named in a string of `bench/tracing.LAYERS`, the layers
the bench patches; no other string counts. A method that is no property but
shares its name with a data attribute of the package counts as used only
where it is called, as `.name(...)`: reading the attribute does not use the
method. Tests do not count: a definition only they read belongs with them.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import dptree
from dptree import cli

PACKAGE = Path(dptree.__file__).parent
ROOT = PACKAGE.parent.parent
BENCH = ROOT / "bench"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# Every file whose imports must all be used: a package module is named by
# its file name, a test or bench file by its path in the repository.
IMPORTING = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted(BENCH.rglob("*.py"))

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


@pytest.mark.parametrize("path", IMPORTING,
                         ids=lambda path: path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix())
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


def referenced_names(source: str) -> set[str]:
    """Names read in `source`, as variables or attributes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def layer_names(source: str) -> set[str]:
    """Every identifier inside a string constant of the `LAYERS` assigned
    at the top level of `source`."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(target, ast.Name) and target.id == "LAYERS"
                                                for target in node.targets):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    names.update(re.findall(r"[A-Za-z_]\w*", item.value))
    return names


def data_attributes(source: str) -> set[str]:
    """Names of class-level annotated fields and of `self.<name> =`
    assignments in `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            names.update(item.target.id for item in node.body
                         if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.attr for target in targets if isinstance(target, ast.Attribute)
                         and isinstance(target.value, ast.Name) and target.value.id == "self")
    return names


def plain_methods(source: str) -> set[str]:
    """"Class.method" for each method in `source` that is no property."""
    return {f"{node.name}.{item.name}" for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
            and not any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list)}


def called_attributes(source: str) -> set[str]:
    """Names called as `.name(...)` in `source`."""
    return {node.func.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}


def unreferenced(defined: dict, package_sources: list, bench_sources: list) -> list[str]:
    """"module: name" for each definition in `defined` (module -> names)
    whose last name part no source reads, or, for a plain method named
    like a data attribute, no source calls."""
    used = set().union(*(referenced_names(source) for source in package_sources + bench_sources),
                       *(layer_names(source) for source in bench_sources))
    called = set().union(*(called_attributes(source) for source in package_sources + bench_sources))
    attributes = set().union(*(data_attributes(source) for source in package_sources))
    methods = set().union(*(plain_methods(source) for source in package_sources))
    flagged = []
    for module, names in defined.items():
        for name in names:
            last = name.rsplit(".", 1)[-1]
            needs_call = name in methods and last in attributes
            if last not in (called if needs_call else used):
                flagged.append(f"{module}: {name}")
    return flagged


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

    def nodes(self):
        pass

    @property
    def size(self):
        return 1

    def count(self):
        pass


class Row:
    nodes: int
    size: int
    count: int


def helper():
    return Pool()


def checker():
    """Read only by tests."""
'''
PLANTED_BENCH = '''
LAYERS = {"split_strategies": {"Pool.from_shards": None}}
pool, row = helper(), Row()
row.nodes, row.size, row.count
pool.size, pool.count()
'''


def test_check_flags_a_definition_only_tests_use():
    defined = {"m.py": definitions(PLANTED_PACKAGE)}
    assert defined["m.py"] == ["Pool", "Pool.from_shards", "Pool.planted", "Pool.nodes", "Pool.size",
                               "Pool.count", "Row", "helper", "checker"]
    # `row.nodes` reads the field, not the method `Pool.nodes`; the
    # property `Pool.size` is read like a field, and `Pool.count` is called.
    flagged = ["m.py: Pool.planted", "m.py: Pool.nodes", "m.py: checker"]
    assert unreferenced(defined, [PLANTED_PACKAGE], [PLANTED_BENCH]) == flagged
    assert unreferenced(defined, [PLANTED_PACKAGE], [PLANTED_BENCH + "pool.nodes()\n"]) == flagged[::2]
    # A name in a package string does not count, nor in a bench string
    # outside `LAYERS`; in a string of `LAYERS` it does.
    assert unreferenced(defined, [PLANTED_PACKAGE + 'NAME = "checker"\n'], [PLANTED_BENCH]) == flagged
    assert unreferenced(defined, [PLANTED_PACKAGE], [PLANTED_BENCH + 'NAME = "checker"\n']) == flagged
    layers = PLANTED_BENCH.replace('None}}', 'None}, "m": {"checker": None}}')
    assert unreferenced(defined, [PLANTED_PACKAGE], [layers]) == flagged[:2]


def test_each_exception_has_one_exit_code():
    # Every error a command can report has its one exit code in the CLI's
    # table; the learner's internal signal, caught inside `dp_topdown`, is
    # the one exception that never reaches a command.
    exceptions = set()
    for path in MODULES:
        module = importlib.import_module(f"dptree.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and issubclass(getattr(module, node.name), BaseException):
                exceptions.add(node.name)
    assert exceptions - {"DegenerateLeafError"} == {kind.__name__ for kind in cli.EXIT_CODES}
    assert sorted(cli.EXIT_CODES.values()) == [2, 3, 4]
