"""The benchmark's own output checks, on seed 1 of each workload.

`bench/workloads.py` builds each workload's command lines and checks their
printed tables, CSV files and line list.  Here each command runs once through
`tools/bench_digest.py` and every check must pass, so a change that would make
a benchmark operation fail shows up in the test suite.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_digest.py"
SPEC = importlib.util.spec_from_file_location("bench_digest", TOOL)
bench_digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_digest)


# the line list builds generic tops' levels to J = 12, whose degenerate blocks warn
@pytest.mark.filterwarnings("ignore::chiraloop.rotor.DegenerateLevelsWarning")
@pytest.mark.parametrize("name", ["synthesis", "dynamics", "spectrum"])
def test_seed_1_passes_the_benchmark_checks(name, tmp_path):
    workloads = bench_digest.load_workloads()
    workload = workloads.build(name, 1, tmp_path)
    outputs = [bench_digest.run_command(argv) for argv in workload.commands]
    lines = workloads.line_list(workload.molecule) if workload.molecule else None
    failures, _ = workloads.check(workload, outputs, lines)
    assert [out["rc"] for out in outputs] == [0] * len(outputs)
    assert not any(failures), failures
