"""The import graph of the chiraloop modules: one direction, every import at the top.

Each module names its chiraloop imports at the top of the file, so the order
the modules depend on each other (wigner, rotor and fields, then dipole,
loop, dynamics and cli) is read from the import lines alone.  An import in
a function body or under `if TYPE_CHECKING:` can hide a cycle from a plain
`import`, so it counts as an edge here too, and is itself refused.
"""

import ast
import graphlib
from pathlib import Path

import pytest

import chiraloop

SOURCES = sorted(Path(chiraloop.__file__).parent.glob("*.py"))


def _targets(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The chiraloop modules one import statement names ([] for other packages)."""
    if isinstance(node, ast.Import):
        dotted = [alias.name.split(".") for alias in node.names]
        return [(parts + ["__init__"])[1] for parts in dotted if parts[0] == "chiraloop"]
    parts = (node.module or "").split(".")
    if not node.level:
        if parts[0] != "chiraloop":
            return []
        parts = parts[1:]
    return parts[:1] if parts and parts[0] else [alias.name for alias in node.names]


def _imports(node: ast.AST, deferred: bool = False):
    """(module, deferred) of every chiraloop import under node; deferred when it
    sits in a function body or under `if TYPE_CHECKING:`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield from ((target, deferred) for target in _targets(child))
            continue
        inner = deferred or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        inner = inner or isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(child.test)
        yield from _imports(child, inner)


def _edges() -> list[tuple[str, str, bool]]:
    """(importer, imported, deferred) over every chiraloop source file."""
    return [
        (path.stem, target, deferred)
        for path in SOURCES
        for target, deferred in _imports(ast.parse(path.read_text(), str(path)))
    ]


def test_sources_and_their_imports_are_found():
    edges = _edges()
    assert {path.stem for path in SOURCES} >= {"__init__", "dipole", "loop", "dynamics", "cli"}
    assert ("loop", "dipole", False) in edges and ("dynamics", "loop", False) in edges


def test_import_graph_is_acyclic():
    graph: dict[str, set[str]] = {}
    for importer, target, _ in _edges():
        graph.setdefault(importer, set()).add(target)
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"chiraloop modules import each other in a cycle: {exc.args[1]}")
    assert order.index("dipole") < order.index("loop") < order.index("dynamics") < order.index("cli")


def test_no_chiraloop_import_in_a_function_or_under_type_checking():
    assert [f"{importer} -> {target}" for importer, target, late in _edges() if late] == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .loop import LoopSpec", [("loop", False)]),
        ("from . import dynamics, loop", [("dynamics", False), ("loop", False)]),
        ("import chiraloop.cli\nfrom chiraloop import rotor", [("cli", False), ("rotor", False)]),
        ("import numpy\nfrom numpy.typing import ArrayLike", []),
        ("def f():\n    from .loop import dressed_states", [("loop", True)]),
        ("if TYPE_CHECKING:\n    from .loop import LoopSpec", [("loop", True)]),
        ("if typing.TYPE_CHECKING:\n    from . import loop", [("loop", True)]),
    ],
)
def test_imports_are_read_wherever_they_sit(source, expected):
    assert list(_imports(ast.parse(source))) == expected
