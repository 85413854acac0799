"""Benchmark of the chiraloop CLI on one seeded workload.

Run from the repository root (no build step; the package is imported
from `src/`):

    python3 bench/run.py --workload synthesis --seed 1 --seconds 30 --trace 0

Workloads: `synthesis` (closure verdicts), `dynamics` (time-series rows)
and `spectrum` (levels and line strengths); see bench/NOTES.md.

Each pass of the workload runs in a fresh interpreter (bench/worker.py),
one pass at a time: a closed loop with one client, each command starting
after the previous one returned.  Passes repeat until `--seconds` have
elapsed and every metric is the median over passes.  With `--trace 0`
the metrics are the end-to-end ones, with tracing off, and set-up probes
(fresh interpreters that only import the CLI) run between the passes so
that set-up time is the median of many samples.  With `--trace 1`
untraced and traced passes alternate, and the metrics are the per-layer
counts and self times plus the tracing overhead.

Stdout ends with two lines: the full run record (provenance, per-pass
figures, output digests, check failures) and then the result
`{"correct", "attempted", "failed", "metrics"}`.  A readable table goes
to stderr.  The exit code is 0 when the run completed, whatever the
checks found, and non-zero without a result when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import OP_UNITS, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
PASS_TIMEOUT_S = 120
# Time of worker.host_reference() on the host the baseline was measured on
# (2-core Xeon VM at 2.1 GHz); it only fixes the unit of ops_per_s_norm.
REF_NOMINAL_S = 0.1
MIN_PASSES = 3  # per kind of pass (untraced, traced)
# Time spent on set-up probes per second of passes, with --trace 0.
PROBE_SHARE = 0.3


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a crashed pass)."""


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the parent's start
    # time and the worker's ready time can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(root: Path, options: list[str]) -> tuple[float, str]:
    """Start one worker, wait for it; return its start time and last stdout line."""
    start = _clock()
    proc = subprocess.run([sys.executable, str(WORKER), *options], cwd=root, env=_env(root),
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, proc.stdout.strip().splitlines()[-1]


def run_probe(root: Path) -> float:
    """Set-up time of one fresh interpreter that only imports the CLI."""
    start, ready = _run_worker(root, ["--probe"])
    return float(ready) - start


def run_pass(root: Path, args, traced: bool, work: Path) -> dict:
    """Run one pass in a fresh worker; return its report plus set-up time."""
    start, last = _run_worker(root, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--work", str(work),
    ])
    report = json.loads(last)
    if not Path(report["chiraloop_file"]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"imported chiraloop from {report['chiraloop_file']}, not {root / 'src'}")
    report["setup_s"] = report["t_ready"] - start
    report["traced"] = traced
    return report


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "chiraloop").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:  # no git on this host
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, args, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ops_per_s(report: dict) -> float:
    return report["ops"] / report["wall_s"]


def ops_per_s_norm(report: dict) -> float:
    """Throughput scaled to the nominal host speed of the reference loop."""
    return ops_per_s(report) * report["ref_s"] / REF_NOMINAL_S


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s_norm": _metric(statistics.median(ops_per_s_norm(p) for p in passes), "1/s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_kb"] / 1024.0 for p in passes), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    first = traced[0]
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = _metric(first["layers"][name]["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(
            statistics.median(p["layers"][name]["self_s"] for p in traced), "s"
        )
    cache = first["wigner_cache"]
    lookups = cache["hits"] + cache["misses"]
    diag = first["diagnostics"]
    metrics["wigner.cache_hit_ratio"] = _metric(cache["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["cli._emit.bytes"] = _metric(first["emit"]["bytes"], "bytes")
    metrics["rotor.mixed_parity_levels"] = _metric(
        sum(diag.get("mixed_parity_levels", {}).values()), "count"
    )
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced),
        "ratio",
    )
    return metrics


def fixed_by_inputs(first: dict) -> dict:
    """Derived figures that the workload's inputs fix: a change in either
    is a change in behaviour, not in speed, so neither is a gated metric."""
    diag = first["diagnostics"]
    verdicts = diag.get("verdicts", 0)
    return {
        "loop.closed_ratio": _metric(diag.get("closed", 0) / verdicts if verdicts else 0.0, "ratio"),
        "cli._emit.rows": _metric(first["emit"]["rows"], "count"),
    }


def _command_record(report: dict) -> list[dict]:
    return [
        {k: c.get(k) for k in ("argv", "stdout_sha256", "csv_sha256")} for c in report["commands"]
    ]


def benchmark(root: Path, args) -> dict:
    # Relative to the root, which is every pass's working directory, so
    # the recorded command lines do not depend on where the checkout is.
    work = Path(".bench_work") / f"{args.workload}-{args.seed}"
    shutil.rmtree(root / work, ignore_errors=True)
    (root / work).mkdir(parents=True)
    try:
        # Untimed warm-up: compiles bytecode and fills the page cache, a
        # cost users pay once per install rather than once per command.
        subprocess.run([sys.executable, "-c", "import chiraloop.cli"], cwd=root, env=_env(root),
                       check=True, capture_output=True, timeout=PASS_TIMEOUT_S)
        passes: list[dict] = []
        probes: list[float] = []
        pass_s = probe_s = 0.0
        deadline = time.monotonic() + args.seconds
        kinds = (False, True) if args.trace else (False,)
        while True:
            for traced in kinds:
                start = time.monotonic()
                passes.append(run_pass(root, args, traced, work))
                pass_s += time.monotonic() - start
            while not args.trace and probe_s < PROBE_SHARE * pass_s:
                start = time.monotonic()
                probes.append(run_probe(root))
                probe_s += time.monotonic() - start
            if time.monotonic() >= deadline and len(passes) >= MIN_PASSES * len(kinds):
                break
    finally:
        shutil.rmtree(root / work, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(1 for p in passes for c in p["commands"] if c["failures"])
    setups = [p["setup_s"] for p in untraced] + probes
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, setups)
    first = passes[0]
    return {
        "workload": args.workload,
        "op_unit": OP_UNITS[args.workload],
        "ops_per_pass": first["ops"],
        "provenance": provenance(root, args, first["numpy"]),
        "passes": [
            {
                "traced": p["traced"],
                "setup_s": p["setup_s"],
                "wall_s": p["wall_s"],
                "ref_s": p["ref_s"],
                "ops_per_s": ops_per_s(p),
                "ops_per_s_norm": ops_per_s_norm(p),
                "peak_rss_mb": p["peak_rss_kb"] / 1024.0,
                "failures": [
                    {"argv": c["argv"], "failures": c["failures"]} for c in p["commands"] if c["failures"]
                ],
            }
            for p in passes
        ],
        "setup_probes_s": probes,
        "setup_samples": len(setups),
        "commands": _command_record(first),
        "workload_sha256": hashlib.sha256(
            json.dumps(_command_record(first), sort_keys=True).encode()
        ).hexdigest(),
        "digests_repeat": all(_command_record(p) == _command_record(first) for p in passes),
        "calls_repeat": all(
            {n: v["calls"] for n, v in p["layers"].items()}
            == {n: v["calls"] for n, v in traced[0]["layers"].items()}
            for p in traced
        ),
        "untraced_functions": traced[0]["untraced_functions"] if traced else [],
        "diagnostics": first["diagnostics"],
        "fixed_by_inputs": fixed_by_inputs(traced[0]) if traced else {},
        "ops_failed": failed / attempted,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the run record to this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "chiraloop" / "cli.py").is_file():
        print(f"error: {root} holds no src/chiraloop; run from the repository root", file=sys.stderr)
        return 2
    try:
        record = benchmark(root, args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    result = record["result"]
    print(f"{args.workload} seed={args.seed} passes={len(record['passes'])} "
          f"ops/pass={record['ops_per_pass']} ({record['op_unit']})", file=sys.stderr)
    for name, metric in {**result["metrics"], **record["fixed_by_inputs"]}.items():
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    if not args.trace:
        raw = statistics.median(p["ops_per_s"] for p in record["passes"])
        print(f"  {'ops_per_s':48s} {raw:>14.6g} 1/s (wall clock, not normalized)", file=sys.stderr)
    print(f"  {'ops_failed':48s} {record['ops_failed']:>14.6g} 1 "
          f"({result['failed']} of {result['attempted']} ops)", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
