"""tools/bench_digest.py, the one sha256 over the benchmark workloads' outputs.

Every claim that a change keeps the outputs byte-identical rests on this tool,
so here it runs on seed 1 of each workload, twice in one process.  The two
digests must agree: a digest that depends on what a memo already holds would
differ between a fresh checkout and the second run.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_digest.py"


# the line list builds generic tops' levels to J = 12, whose degenerate blocks warn
@pytest.mark.filterwarnings("ignore::chiraloop.rotor.DegenerateLevelsWarning")
def test_digest_of_seed_1_is_a_stable_sha256(monkeypatch):
    # the tool puts src/ and bench/ on sys.path, turns bytecode writing off and
    # imports bench/workloads.py as `workloads`; all three are undone afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    had_workloads = "workloads" in sys.modules
    spec = importlib.util.spec_from_file_location("bench_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(tool)
        monkeypatch.setattr(tool, "SEEDS", range(1, 2))
        first = tool.digest()
        assert re.fullmatch("[0-9a-f]{64}", first)
        assert tool.digest() == first
    finally:
        if not had_workloads:
            sys.modules.pop("workloads", None)
