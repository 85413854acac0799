"""The public names: each module's __all__, and the README's library table."""

import importlib
import re
from pathlib import Path

import pytest

import chiraloop

README = Path(__file__).resolve().parent.parent / "README.md"


def layout_rows():
    """(module, backticked names) of each row of the README "Library layout" table."""
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`chiraloop."):
            rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


def test_layout_table_lists_every_module():
    modules = [module for module, _ in layout_rows()]
    assert modules == [f"chiraloop.{name}" for name in chiraloop.__all__]


@pytest.mark.parametrize("module, names", layout_rows())
def test_layout_names_resolve(module, names):
    owner = importlib.import_module(module)
    for name in names:
        target = owner
        for part in name.split("."):
            assert hasattr(target, part), f"README names {module}.{name}, which does not exist"
            target = getattr(target, part)


@pytest.mark.parametrize("name", chiraloop.__all__)
def test_all_entries_exist(name):
    module = importlib.import_module(f"chiraloop.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
