"""One sha256 over every output of the benchmark workloads, seeds 1-12.

Run from anywhere, with no options:

    python3 tools/bench_digest.py

It builds each workload of bench/workloads.py for seeds 1 to 12, runs its
commands through `chiraloop.cli.run` in this one process (the package is
imported from this checkout's `src/`), and hashes, per command, its argv
(the work directory replaced by a fixed token), exit code, stdout, stderr
and every CSV it wrote; for `spectrum`, also the library line list, its
frequencies and reduced elements as `float.hex` values.  Two checkouts
that print the same digest gave the same bytes on all 36 workloads.  No
file under bench/ is written: bytecode caching is off while it imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 13)
WORK_TOKEN = "<work>"

sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from chiraloop import cli  # noqa: E402


def _update(digest, *parts: str) -> None:
    """Each part length-prefixed, so no two sequences of parts hash alike."""
    for part in parts:
        data = part.encode()
        digest.update(b"%d:" % len(data) + data)


def _run(argv: list[str], work: Path) -> list[str]:
    """argv with the work directory masked, then exit code, stdout, stderr and CSV."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    csv_paths = [a.split("=", 1)[1] for a in argv if a.startswith("--csv=")]
    csvs = [Path(p).read_text() if Path(p).is_file() else "<none>" for p in csv_paths]
    masked = [arg.replace(str(work), WORK_TOKEN) for arg in argv]
    return [repr(masked), str(rc), out.getvalue(), err.getvalue(), *csvs]


def _line_list(molecule: str) -> list[str]:
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
    total = hashlib.sha256()
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                workload = workloads.build(name, seed, work)
                _update(total, f"{name} {seed}")
                for argv in workload.commands:
                    _update(total, *_run(argv, work))
                if workload.molecule:
                    _update(total, *_line_list(workload.molecule))
    return total.hexdigest()


if __name__ == "__main__":
    print(digest())
