"""One sha256 over every output of the benchmark workloads, seeds 1-12.

Run from anywhere, with no options, to compare two checkouts' bytes:

    python3 tools/bench_digest.py

It builds each workload of bench/workloads.py for seeds 1 to 12, runs its
commands in this one process through `run_command`, and hashes, per command,
its argv (the work directory replaced by a fixed token), exit code, stdout,
stderr and the CSV it names; for `spectrum`, also the library line list, every
float as `float.hex`.  Run as a script, it imports `chiraloop` from this
checkout's `src/` and writes no bytecode.  Importing it changes no process
state, so the tier-1 bench tests load the workloads and run their commands here.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 13)
WORK_TOKEN = "<work>"


def load_workloads():
    """bench/workloads.py, run by path with bytecode writing off, so nothing is
    written under bench/.  It is in sys.modules only while it runs, as its
    dataclasses look their module up there by name."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode, sys.modules["workloads"] = True, module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules["workloads"]
    return module


def run_command(argv: list[str]) -> dict:
    """One command line through `chiraloop.cli.run`: its exit code, stdout, stderr
    and the text of its --csv file (None when it names or writes none)."""
    from chiraloop import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    csv_path = next((a.split("=", 1)[1] for a in argv if a.startswith("--csv=")), None)
    csv = Path(csv_path).read_text() if csv_path and Path(csv_path).is_file() else None
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "csv": csv}


def _update(digest, *parts: str) -> None:
    """Each part length-prefixed, so no two sequences of parts hash alike."""
    for part in parts:
        data = part.encode()
        digest.update(b"%d:" % len(data) + data)


def _line_list(workloads, molecule: str) -> list[str]:
    """The line list of workloads.line_list, every float as float.hex."""
    with contextlib.redirect_stderr(io.StringIO()):
        lines = workloads.line_list(molecule)
    parts = []
    for J in sorted(lines["freqs"]):
        parts.append(f"J={J} taus={lines['taus'][J]}")
        parts.append(" ".join(f.hex() for f in lines["freqs"][J]))
    for key, value in lines["lines"].items():
        parts.append(f"{key} {value.real.hex()} {value.imag.hex()}")
    return parts


def digest() -> str:
    workloads = load_workloads()
    total = hashlib.sha256()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                workload = workloads.build(name, seed, work)
                _update(total, f"{name} {seed}")
                for argv in workload.commands:
                    out = run_command(argv)
                    masked = [arg.replace(str(work), WORK_TOKEN) for arg in argv]
                    _update(total, repr(masked), str(out["rc"]), out["stdout"], out["stderr"])
                    if any(arg.startswith("--csv=") for arg in argv):
                        _update(total, "<none>" if out["csv"] is None else out["csv"])
                if workload.molecule:
                    _update(total, *_line_list(workloads, workload.molecule))
    return total.hexdigest()


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    print(digest())
