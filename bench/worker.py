"""One pass of one workload in a fresh interpreter (started by run.py).

The first statements import the CLI and read the monotonic clock, so the
parent can time interpreter start-up plus `import chiraloop.cli`.  With
`--probe` the worker prints that time and exits: a set-up probe.  A pass
then runs every operation of the workload, timed with tracing off unless
`--trace 1`, reads its peak memory, checks the outputs, and prints one
JSON report as the last line of stdout.
"""

import sys
import time

import chiraloop.cli

T_READY = time.clock_gettime(time.CLOCK_MONOTONIC)
if sys.argv[1:] == ["--probe"]:
    print(repr(T_READY))
    sys.exit(0)

# Everything below runs after the set-up measurement.
import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from chiraloop import wigner  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _sha256(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def _take(path: Path) -> str | None:
    """Read and delete a file the command wrote, if it did."""
    if not path.is_file():
        return None
    text = path.read_text()
    path.unlink()
    return text


def run_command(argv: list[str], work: Path) -> dict:
    """Run one CLI command line in this process, its stdout going to a file
    as in `chiraloop ... > file`, so captured output adds no memory."""
    csv_path = next((a.split("=", 1)[1] for a in argv if a.startswith("--csv=")), None)
    stdout_path = work / "stdout.txt"
    err = io.StringIO()
    start = time.perf_counter()
    with open(stdout_path, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = chiraloop.cli.run(argv)
    seconds = time.perf_counter() - start
    return {
        "rc": rc,
        "seconds": seconds,
        "stdout": _take(stdout_path),
        "stderr": err.getvalue(),
        "csv": _take(Path(csv_path)) if csv_path else None,
    }


def run_line_list(molecule: str) -> dict:
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        lines = workloads.line_list(molecule)
    return {"lines": lines, "seconds": time.perf_counter() - start}


REFERENCE_ITERATIONS = 75_000


def host_reference(n: int) -> float:
    """Seconds taken by a fixed mix of the kinds of work the workloads do.

    Dict and integer arithmetic with small numpy calls, float formatting,
    exact rational sums, and column rotations of a small numpy matrix, in
    roughly equal parts.  It shares no code with chiraloop, so a change to
    the program cannot move it; it moves with the speed of the host, which
    on a shared VM drifts by tens of percent over minutes.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        table[i & 1023] = i * i % 7
        total += table.get(i & 511, 0)
    a = np.arange(64.0)
    for _ in range(n // 20):
        a = np.sqrt(a * a + 1.0)
    x = 0.1234567
    for i in range(n // 5):
        "  ".join((f"{x * i:.4f}", f"{x / (i + 1):.6f}", f"{x * 1e-12 * i:.3e}"))
    for i in range(n // 70):
        acc = Fraction(0)
        for t in range(6):
            acc += Fraction(-1 if t % 2 else 1, math.factorial(t + i % 7) * math.factorial(8 - t))
    m = np.eye(25)
    for k in range(n // 25):
        p = k % 24
        m[:, p], m[:, p + 1] = 0.8 * m[:, p] - 0.6 * m[:, p + 1], 0.6 * m[:, p] + 0.8 * m[:, p + 1]
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """Peak resident memory of this process, in KiB.

    VmHWM belongs to the address space made at exec, so unlike ru_maxrss it
    cannot report the larger memory of the parent that started the worker.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_operations(workload: workloads.Workload, work: Path) -> tuple[list[dict], float]:
    """Run every operation once; return their outputs and the reference time.

    Slices of the host reference loop run before each operation and after
    the last, so the reference samples the host across the whole pass.
    """
    steps = [functools.partial(run_command, argv, work) for argv in workload.commands]
    if workload.molecule:
        steps.append(functools.partial(run_line_list, workload.molecule))
    per_slice = REFERENCE_ITERATIONS // (len(steps) + 1)
    ref_s = host_reference(per_slice)
    outputs = []
    for step in steps:
        outputs.append(step())
        ref_s += host_reference(per_slice)
    return outputs, ref_s


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for input and CSV files")
    args = parser.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, work)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    outputs, ref_s = run_operations(workload, work)
    wall = sum(out["seconds"] for out in outputs)
    peak_kb = peak_rss_kb()
    if tracer:
        tracer.uninstall()

    line_list = outputs.pop() if workload.molecule else None
    failures, diag = workloads.check(workload, outputs, line_list and line_list["lines"])
    commands = [
        {
            "argv": argv,
            "rc": out["rc"],
            "seconds": out["seconds"],
            "stdout_sha256": _sha256(out["stdout"]),
            "csv_sha256": _sha256(out["csv"]),
            "failures": fails,
        }
        for argv, out, fails in zip(workload.commands, outputs, failures)
    ]
    if line_list:
        commands.append(
            {"argv": ["<line list>", workload.molecule], "rc": 0, "seconds": line_list["seconds"],
             "failures": failures[-1]}
        )
    # The 3j memo table is private to chiraloop.wigner; a version without it
    # reports no lookups.
    memo = getattr(wigner, "_wigner3j", None)
    cache = memo.cache_info() if hasattr(memo, "cache_info") else None
    report = {
        "t_ready": T_READY,
        "wall_s": wall,
        "ref_s": ref_s,
        "ops": workload.ops,
        "peak_rss_kb": peak_kb,
        "commands": commands,
        "diagnostics": diag,
        "wigner_cache": {"hits": cache.hits if cache else 0, "misses": cache.misses if cache else 0},
        "numpy": np.__version__,
        "chiraloop_file": chiraloop.cli.__file__,
    }
    if tracer:
        report["layers"] = tracer.layer_totals()
        report["emit"] = {"rows": tracer.emit_rows, "bytes": tracer.emit_bytes}
        report["untraced_functions"] = tracer.missing
    print(json.dumps(report))


if __name__ == "__main__":
    main()
