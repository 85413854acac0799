"""The benchmark's own output checks, on seed 1 of each workload.

`bench/workloads.py` builds each workload's command lines and holds the checks
the benchmark applies to their printed tables, CSV files and line list.  Here
every command runs once through `cli.run` and every check must pass, so a
change that would make a benchmark operation fail shows up in the test suite.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from chiraloop import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    """bench/workloads.py, imported by path (bench is not a package)."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # registered before it runs, as its dataclasses look their module up by name
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "workloads", module)
        spec.loader.exec_module(module)
    return module


def _output(argv: list[str]) -> dict:
    """One command's exit code, stdout, stderr and --csv file text, as the checks read them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    csv_path = next((a.split("=", 1)[1] for a in argv if a.startswith("--csv=")), None)
    csv = Path(csv_path).read_text() if csv_path and Path(csv_path).is_file() else None
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "csv": csv}


# the line list builds generic tops' levels to J = 12, whose degenerate blocks warn
@pytest.mark.filterwarnings("ignore::chiraloop.rotor.DegenerateLevelsWarning")
@pytest.mark.parametrize("name", ["synthesis", "dynamics", "spectrum"])
def test_seed_1_passes_the_benchmark_checks(name, tmp_path):
    workloads = _workloads()
    workload = workloads.build(name, 1, tmp_path)
    outputs = [_output(argv) for argv in workload.commands]
    lines = workloads.line_list(workload.molecule) if workload.molecule else None
    failures, _ = workloads.check(workload, outputs, lines)
    assert [out["rc"] for out in outputs] == [0] * len(outputs)
    assert not any(failures), failures
