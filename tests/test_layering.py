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
