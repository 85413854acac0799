"""tools/bench_digest.py, the one sha256 over the benchmark workloads' outputs.

Every claim that a change keeps the outputs byte-identical rests on this tool.
Its digest of seed 1 is pinned, and must be the same twice in one process, or it
would depend on what a memo already holds.  Importing and running it, as the tier-1 bench
tests do, must leave the process state and bench/ as they were.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _import_tool():
    spec = importlib.util.spec_from_file_location("bench_digest", ROOT / "tools" / "bench_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# the line list builds generic tops' levels to J = 12, whose degenerate blocks warn
@pytest.mark.filterwarnings("ignore::chiraloop.rotor.DegenerateLevelsWarning")
def test_digest_of_seed_1_is_a_stable_sha256(monkeypatch):
    state = list(sys.path), sys.dont_write_bytecode, "workloads" in sys.modules
    tool = _import_tool()
    monkeypatch.setattr(tool, "SEEDS", range(1, 2))
    first = tool.digest()
    assert re.fullmatch("[0-9a-f]{64}", first)
    # pinned: any byte change in a workload's seed-1 output fails here, and a deliberate
    # one updates this digest along with its goldens
    assert first == "dc9a9412079cc615700229286db04a1c62109db35e4418c0f0d27029a5cd7ca2"
    assert tool.digest() == first
    assert (sys.path, sys.dont_write_bytecode, "workloads" in sys.modules) == state


def test_loading_the_workloads_writes_nothing_under_bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    listing = sorted((ROOT / "bench").rglob("*"))
    _import_tool().load_workloads()
    assert sorted((ROOT / "bench").rglob("*")) == listing
