"""The package's import graph: no cycles, and the file formats stay below the
generators.

Each module's imports of sibling modules are read from its source with
``ast``, so the check sees every import, also those inside functions.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import tricover

PACKAGE = Path(tricover.__file__).parent


def sibling_imports(path):
    """The sibling modules that the module at ``path`` imports, relatively
    or through the package name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[0] != "tricover":
                    continue
                parts = parts[1:]
            # "from .covers import x" names the module, "from . import lab" its names.
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("tricover.")
            )
    return found & {p.stem for p in PACKAGE.glob("*.py")}


def import_graph():
    return {path.stem: sibling_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_graph_reads_the_known_edges():
    graph = import_graph()
    assert "covers" in graph["report"] and "tree" in graph["covers"]
    assert "cli" in graph["__main__"]


def test_import_graph_has_no_cycle():
    try:
        order = list(TopologicalSorter(import_graph()).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert set(order) >= {"cli", "jsonio", "lab", "report"}


def test_file_formats_do_not_import_the_generators():
    assert "lab" not in import_graph()["jsonio"]


def referenced_names(node):
    """Every name that ``node`` reads through an ``ast`` name, an attribute
    or an import alias."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
            if sub.asname:
                yield sub.asname


def test_private_definitions_have_a_package_caller():
    """A private helper that only tests call belongs with the tests: every
    underscore-prefixed top-level function or class is named somewhere in
    the package outside its own definition."""
    definitions = []
    users = {}  # name -> the top-level statements that read it
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for k, statement in enumerate(module.body):
            place = (path.stem, k)
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and statement.name.startswith("_"):
                definitions.append((statement.name, place))
            for name in referenced_names(statement):
                users.setdefault(name, set()).add(place)
    assert len(definitions) > 50
    unused = [
        f"{place[0]}.{name}"
        for name, place in definitions
        if not users.get(name, set()) - {place}
    ]
    assert unused == []
