"""No chiraloop module changes the process-wide warning filters.

`warnings.catch_warnings` and the filter calls act on state that every
thread shares, so a library that catches its own warnings that way can
lose or misroute another thread's.  The package reads a condition it
needs (such as a degenerate level block) as a value instead; this check
reads each source's syntax tree for a call to one of those functions.
"""

import ast
from pathlib import Path

import pytest

import chiraloop

SOURCES = sorted(Path(chiraloop.__file__).parent.glob("*.py"))
FILTER_CALLS = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}


def _filter_calls(tree: ast.AST) -> list[str]:
    """The warning-filter functions called under tree, whatever name the
    warnings module or the function was imported as."""
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "warnings"}
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
            functions |= {alias.asname or alias.name: alias.name for alias in node.names
                          if alias.name in FILTER_CALLS}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in modules and func.attr in FILTER_CALLS:
                calls.append(func.attr)
        elif isinstance(func, ast.Name) and func.id in functions:
            calls.append(functions[func.id])
    return calls


def test_no_source_changes_a_warning_filter():
    assert {path.stem for path in SOURCES} >= {"rotor", "dipole", "cli"}
    found = {path.stem: _filter_calls(ast.parse(path.read_text(), str(path))) for path in SOURCES}
    assert {stem: calls for stem, calls in found.items() if calls} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import warnings\nwith warnings.catch_warnings():\n    pass", ["catch_warnings"]),
        ("import warnings as w\nw.simplefilter('ignore')", ["simplefilter"]),
        ("from warnings import filterwarnings as fw\nfw('error')", ["filterwarnings"]),
        ("def f():\n    import warnings\n    warnings.resetwarnings()", ["resetwarnings"]),
        ("import warnings\nwarnings.warn('x')", []),
        ("import numpy as np\nwith np.errstate(over='ignore'):\n    pass", []),
        ("simplefilter('ignore')", []),
    ],
)
def test_filter_calls_are_found_under_any_name(source, expected):
    assert _filter_calls(ast.parse(source)) == expected
