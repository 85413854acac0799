"""Seeded workloads and their correctness checks.

A workload is a fixed list of operations: CLI command lines passed to
`chiraloop.cli.run`, plus (for `spectrum`) one library line-list pass.
The seed picks every drive, amplitude, phase and molecule; the operation
count of each workload is fixed so that ops/s compares across seeds.

The checks below hold for any correct implementation of the CLI: they
read the printed tables and CSV files, never program internals, and the
reference Hamiltonian is built here from its textbook formula.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("synthesis", "dynamics", "spectrum")

# What ops_per_s counts, per workload.
OP_UNITS = {
    "synthesis": "closure verdicts/s",
    "dynamics": "time-series rows/s",
    "spectrum": "levels and line strengths/s",
}

# The six pure-polarization loops (sigma1, sigma2, sigma3, M_b, M_c) that
# close on every triad at unit amplitudes.
TABLE_ROWS = {
    (1, -1, 0, 1, 0),
    (-1, 1, 0, -1, 0),
    (0, 1, 1, 0, 1),
    (0, -1, -1, 0, -1),
    (-1, 0, -1, -1, -1),
    (1, 0, 1, 1, 1),
}

CLOSURE_TOL_MHZ = 1e-9
# Three populations printed to 1e-6 sum to 1 within their rounding, 1.5e-6,
# plus the 1e-9 the exact values must meet.
POPULATION_SUM_TOL = 3 * 0.5e-6 + 1e-9
PROPANEDIOL_MHZ = (8572.05, 3640.10, 2790.96)
SAMPLES = 1800
VERIFY_CALLS = 100
SIMULATE = ("100", "0.002")  # --t, --dt: 50,001 rows
CONTRAST = ("50", "0.002")  # 25,001 rows
JMAX_LEVELS = 20
JTOP_LINES = 12

# Drives that close a loop on every triad: the pure-polarization table
# rows and the six orderings of three orthogonal linear axes.
CLOSED_CONFIGS = tuple(",".join(str(s) for s in row[:3]) for row in sorted(TABLE_ROWS)) + (
    "XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX",
)


@dataclass
class Workload:
    name: str
    commands: list[list[str]]
    ops: int
    molecule: str | None = None  # molecule file of the spectrum line list
    info: dict = field(default_factory=dict)


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's operations from the seed; write its input files."""
    rng = random.Random(f"{name}:{seed}")
    return {"synthesis": _synthesis, "dynamics": _dynamics, "spectrum": _spectrum}[name](
        rng, seed, work
    )


def _num(x: float) -> str:
    return repr(float(x))


def _unit(v):
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def _orthonormal_frame(rng: random.Random):
    a = _unit([rng.gauss(0, 1) for _ in range(3)])
    b = [rng.gauss(0, 1) for _ in range(3)]
    b = _unit([bi - sum(x * y for x, y in zip(a, b)) * ai for ai, bi in zip(a, b)])
    c = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    return a, b, c


def _linear_field(direction, amp: float, phase: float) -> str:
    """A linear drive along `direction` written in the general sigma:amp:phase form."""
    c = amp * cmath.exp(-1j * phase)
    nx, ny, nz = direction
    proj = {
        1: c * complex(nx, -ny) / math.sqrt(2.0),
        0: c * nz,
        -1: -c * complex(nx, ny) / math.sqrt(2.0),
    }
    return ",".join(
        f"{s}:{_num(abs(a))}:{_num(-cmath.phase(a))}" for s, a in proj.items() if a != 0
    )


def _random_field(rng: random.Random) -> str:
    sigmas = [s for s in (1, 0, -1) if rng.random() < 0.6] or [rng.choice((1, 0, -1))]
    return ",".join(
        f"{s}:{_num(rng.uniform(0.2, 3.0))}:{_num(rng.uniform(-math.pi, math.pi))}"
        for s in sigmas
    )


def _synthesis(rng: random.Random, seed: int, work: Path) -> Workload:
    commands = [["loops", "enumerate", "propanediol", "--triad", t] for t in "abc"]
    commands.append(
        [
            "loops", "sample", "propanediol", f"--triad={rng.choice('abc')}",
            f"--samples={SAMPLES}", f"--seed={rng.randrange(2**31)}",
        ]
    )
    for i in range(VERIFY_CALLS):
        if i % 2 == 0:
            frame = _orthonormal_frame(rng)
            fields = [_linear_field(d, rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi)) for d in frame]
        else:
            fields = [_random_field(rng) for _ in range(3)]
        commands.append(
            ["loops", "verify", "propanediol", f"--triad={rng.choice('abc')}"]
            + [f"--field={f}" for f in fields]
        )
    verdicts = 3 * 27 + SAMPLES + max(1, SAMPLES // 10) + VERIFY_CALLS
    return Workload("synthesis", commands, verdicts)


def _drive_args(rng: random.Random) -> list[str]:
    amps = ",".join(_num(rng.uniform(0.5, 5.0)) for _ in range(3))
    phases = ",".join(_num(rng.uniform(-math.pi, math.pi)) for _ in range(3))
    return [
        f"--triad={rng.choice('abc')}", f"--config={rng.choice(CLOSED_CONFIGS)}",
        f"--amp={amps}", f"--phase={phases}",
    ]


def _steps(t: str, dt: str) -> int:
    return int(round(float(t) / float(dt))) + 1


def _dynamics(rng: random.Random, seed: int, work: Path) -> Workload:
    commands = [
        ["simulate", "propanediol", *_drive_args(rng), f"--t={SIMULATE[0]}", f"--dt={SIMULATE[1]}"],
        ["contrast", "propanediol", *_drive_args(rng), f"--t={CONTRAST[0]}", f"--dt={CONTRAST[1]}",
         f"--csv={work / 'contrast.csv'}"],
    ]
    rows = _steps(*SIMULATE) + _steps(*CONTRAST)
    return Workload("dynamics", commands, rows)


def _spectrum(rng: random.Random, seed: int, work: Path) -> Workload:
    # A generic asymmetric top: A > B > C well apart, all dipole components nonzero.
    c = rng.uniform(1000.0, 4000.0)
    b = c + rng.uniform(300.0, 3000.0)
    a = b + rng.uniform(500.0, 6000.0)
    mu = [rng.choice((-1, 1)) * rng.uniform(0.3, 3.0) for _ in range(3)]
    molecule = work / f"asymtop-{seed}.mol"
    molecule.write_text(
        f"name = asymtop-{seed}\nA_MHz = {_num(a)}\nB_MHz = {_num(b)}\nC_MHz = {_num(c)}\n"
        f"mu_x_D = {_num(mu[0])}\nmu_y_D = {_num(mu[1])}\nmu_z_D = {_num(mu[2])}\n"
    )
    commands = [
        ["levels", "propanediol", f"--jmax={JMAX_LEVELS}"],
        ["levels", str(molecule), f"--jmax={JMAX_LEVELS}", f"--csv={work / 'levels.csv'}"],
    ]
    levels = 2 * (JMAX_LEVELS + 1) ** 2
    lines = sum((2 * j + 1) * (2 * j + 2) // 2 for j in range(JTOP_LINES + 1))
    lines += sum((2 * j + 1) * (2 * j + 3) for j in range(JTOP_LINES))
    info = {
        "constants_MHz": {"propanediol": PROPANEDIOL_MHZ, str(molecule): (a, b, c)},
        "mu2": sum(m * m for m in mu),
    }
    return Workload("spectrum", commands, levels + lines, str(molecule), info)


# ---------------------------------------------------------------- line list


def line_list(molecule: str) -> dict:
    """Levels up to JTOP_LINES and the reduced element of every Delta-J <= 1 level pair.

    Calls go through the module attributes, so a traced pass sees them.
    """
    from chiraloop import cli, dipole, rotor

    config = cli.load_molecule(molecule)
    constants, dip = config.constants(), config.dipole()
    levels = {J: rotor.rotor_levels(constants, J) for J in range(JTOP_LINES + 1)}
    lines = {}
    for J in range(JTOP_LINES + 1):
        for i, low in enumerate(levels[J]):
            for up in levels[J][i:]:
                lines[(J, low.tau, J, up.tau)] = dipole.reduced_matrix_element(up, low, dip).value
            for up in levels.get(J + 1, ()):
                lines[(J, low.tau, J + 1, up.tau)] = dipole.reduced_matrix_element(up, low, dip).value
    return {
        "freqs": {J: [lv.freq for lv in lvs] for J, lvs in levels.items()},
        "taus": {J: [lv.tau for lv in lvs] for J, lvs in levels.items()},
        "lines": lines,
    }


# ------------------------------------------------------------------- checks


def _table(stdout: str) -> tuple[list[str], list[list[str]]]:
    lines = stdout.splitlines()
    return lines[0].split(), [ln.split() for ln in lines[1:]]


def _quantities(stdout: str) -> dict[str, str]:
    _, rows = _table(stdout)
    return {row[0]: row[1] for row in rows if len(row) == 2}


def _csv_matches(stdout_rows: list[list[str]], headers: list[str], csv_text: str | None) -> bool:
    if csv_text is None:
        return False
    parsed = list(csv.reader(io.StringIO(csv_text)))
    return parsed[0] == headers and parsed[1:] == stdout_rows


def reference_block(A: float, B: float, C: float, J: int) -> np.ndarray:
    """Rigid-rotor J block in the prolate |J,K) basis, MHz (textbook formula)."""
    n, jj = 2 * J + 1, J * (J + 1)
    h = np.zeros((n, n))
    for i in range(n):
        K = i - J
        h[i, i] = A * K * K + 0.5 * (B + C) * (jj - K * K)
    for i in range(n - 2):
        K = i - J
        h[i, i + 2] = h[i + 2, i] = (
            0.25 * (B - C) * math.sqrt(jj - K * (K + 1)) * math.sqrt(jj - (K + 1) * (K + 2))
        )
    return h


def check(workload: Workload, outputs: list[dict], lines: dict | None) -> tuple[list[list[str]], dict]:
    """Failures per operation (commands, then the line list) and diagnostics.

    An operation fails on a non-zero exit code or a failed check.  The
    diagnostics include known defects, which are recorded and not failed.
    """
    failures = [
        [] if out["rc"] == 0 else [f"exit code {out['rc']}: {out['stderr'].strip()[-300:]}"]
        for out in outputs
    ]
    diag: dict = {}
    checker = {"synthesis": _check_synthesis, "dynamics": _check_dynamics, "spectrum": _check_spectrum}
    for i, (argv, out) in enumerate(zip(workload.commands, outputs)):
        if out["rc"] == 0:
            try:
                failures[i] += checker[workload.name](argv, out, diag, workload)
            except (ValueError, IndexError, KeyError) as exc:
                failures[i].append(f"unreadable output: {type(exc).__name__}: {exc}")
    if lines is not None:
        try:
            failures.append(_check_line_list(lines, workload, diag))
        except (ValueError, IndexError, KeyError) as exc:
            failures.append([f"unreadable line list: {type(exc).__name__}: {exc}"])
    return failures, diag


def _check_synthesis(argv: list[str], out: dict, diag: dict, workload: Workload) -> list[str]:
    problems = []
    closed = attempts = 0
    if argv[1] == "enumerate":
        _, rows = _table(out["stdout"])
        keys = {tuple(int(x) for x in row[:5]) for row in rows if row[5] == "true"}
        closed, attempts = len(keys), len(rows)
        if len(rows) != 27 or keys != TABLE_ROWS:
            problems.append(f"closed rows {sorted(keys)} of {len(rows)} are not the six table rows")
    elif argv[1] == "sample":
        q = _quantities(out["stdout"])
        if q["closure_iff_orthogonal"] != "true":
            problems.append("closure_iff_orthogonal is not true")
        if not float(q["orthogonal_max_residual"]) < CLOSURE_TOL_MHZ:
            problems.append(f"orthogonal_max_residual {q['orthogonal_max_residual']} >= 1e-9")
        closed = int(q["random_closed"]) + int(q["orthogonal_closed"])
        attempts = int(q["random_samples"]) + int(q["orthogonal_samples"])
    else:
        problems += _check_verdict(out["stdout"])
        closed, attempts = _quantities(out["stdout"])["closed"] == "true", 1
    diag["closed"] = diag.get("closed", 0) + closed
    diag["verdicts"] = diag.get("verdicts", 0) + attempts
    return problems


def _check_verdict(stdout: str) -> list[str]:
    """The verdict must follow from the residuals and |Omega| printed beside it.

    Values printed within rounding of the tolerance accept either verdict.
    """
    q = _quantities(stdout)
    names = ["|<c'|H|b>|", "|<c''|H|b>|", "|<c|H|b'>|", "|<c|H|b''>|"]
    residuals = [float(q[n]) for n in names]
    omegas = [float(q[f"|Omega{i}|_MHz"]) for i in (1, 2, 3)]
    problems = []
    if float(q["residual_max_MHz"]) != max(residuals):
        problems.append("residual_max_MHz is not the largest residual")
    closed = q["closed"] == "true"
    if closed == ("failure" in q):
        problems.append("failure row does not match the verdict")
    r = float(q["residual_max_MHz"])
    if closed and r > CLOSURE_TOL_MHZ * 1.001:
        problems.append(f"closed with residual {r:.3e} MHz")
    if not closed and r < CLOSURE_TOL_MHZ * 0.999 and min(omegas) > 1e-4:
        problems.append(f"not closed with residual {r:.3e} and |Omega| {omegas}")
    return problems


def _check_dynamics(argv: list[str], out: dict, diag: dict, workload: Workload) -> list[str]:
    problems = []
    text = out["stdout"]
    if argv[0] == "contrast":
        *table_lines, last = text.rstrip("\n").splitlines()
        text = "\n".join(table_lines)
    headers, rows = _table(text)
    expected = _steps(*(SIMULATE if argv[0] == "simulate" else CONTRAST))
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    if argv[0] == "simulate":
        if rows[0][1] != "1.000000":
            problems.append(f"P_a(0) = {rows[0][1]}")
        worst_sum = max(abs(sum(float(x) for x in row[1:5]) - 1.0) for row in rows)
        worst_leak = max(float(row[4]) for row in rows)
        diag["max_leakage"] = worst_leak
        if worst_sum > POPULATION_SUM_TOL:
            problems.append(f"populations plus leakage differ from 1 by {worst_sum:.3e}")
        if not worst_leak < 1e-10:
            problems.append(f"leakage {worst_leak:.3e} on a closed configuration")
    else:
        if rows[0][1] != "1.000000" or rows[0][4] != "1.000000":
            problems.append(f"P_a_R(0), P_a_L(0) = {rows[0][1]}, {rows[0][4]}")
        for cols in ((1, 4), (4, 7)):
            worst = max(abs(sum(float(x) for x in row[cols[0]:cols[1]]) - 1.0) for row in rows)
            if worst > POPULATION_SUM_TOL:
                problems.append(f"populations of one enantiomer differ from 1 by {worst:.3e}")
        column_max = max(rows, key=lambda row: float(row[7]))[7]
        if last != f"max |P_c_R - P_c_L| = {column_max}":
            problems.append(f"{last!r} does not match the dP_c column maximum {column_max}")
        if not _csv_matches(rows, headers, out["csv"]):
            problems.append("CSV does not match the table")
    return problems


def _parse_levels(stdout: str) -> dict[int, list[tuple[int, float, list[float]]]]:
    """J -> [(tau, freq, coefficients over K = -J..J)] from a levels table."""
    _, rows = _table(stdout)
    levels: dict[int, list] = {}
    for J, tau, freq, K, coeff in rows:
        J, tau = int(J), int(tau)
        block = levels.setdefault(J, [])
        if not block or block[-1][0] != tau:
            block.append((tau, float(freq), []))
        block[-1][2].append(float(coeff))
    return levels


def _check_spectrum(argv: list[str], out: dict, diag: dict, workload: Workload) -> list[str]:
    problems = []
    A, B, C = workload.info["constants_MHz"][argv[1]]
    levels = _parse_levels(out["stdout"])
    if sorted(levels) != list(range(JMAX_LEVELS + 1)):
        return [f"levels table covers J = {sorted(levels)}"]
    mixed = 0
    for J, block in levels.items():
        if [b[0] for b in block] != list(range(-J, J + 1)) or any(len(b[2]) != 2 * J + 1 for b in block):
            problems.append(f"J={J}: labels or coefficients incomplete")
            continue
        freqs = [b[1] for b in block]
        exact = np.linalg.eigvalsh(reference_block(A, B, C, J))
        if freqs != sorted(freqs) or max(abs(f - e) for f, e in zip(freqs, exact)) > 0.005 + 1e-6:
            problems.append(f"J={J}: printed frequencies differ from eigvalsh")
        for _, _, coeffs in block:
            v = np.array(coeffs)
            # Printed to 1e-6, so a definite-parity pair differs by at most 1e-6.
            if min(np.abs(v - v[::-1]).max(), np.abs(v + v[::-1]).max()) > 1.5e-6:
                mixed += 1
    diag.setdefault("mixed_parity_levels", {})[argv[1]] = mixed
    if len(argv) > 3:
        headers, rows = _table(out["stdout"])
        if not _csv_matches(rows, headers, out["csv"]):
            problems.append("CSV does not match the table")
    return problems


def _check_line_list(lines: dict, workload: Workload, diag: dict) -> list[str]:
    problems = []
    A, B, C = workload.info["constants_MHz"][workload.molecule]
    for J, freqs in lines["freqs"].items():
        exact = np.linalg.eigvalsh(reference_block(A, B, C, J))
        worst = max(abs(f - e) for f, e in zip(freqs, exact))
        if worst > 1e-6 or lines["taus"][J] != list(range(-J, J + 1)):
            problems.append(f"J={J}: level frequencies differ from eigvalsh by {worst:.3e} MHz")
    strength: dict = {}
    for (J, tl, Ju, tu), value in lines["lines"].items():
        s = abs(value) ** 2
        strength[(J, tl)] = strength.get((J, tl), 0.0) + s
        if (Ju, tu) != (J, tl):
            strength[(Ju, tu)] = strength.get((Ju, tu), 0.0) + s
    worst = 0.0
    for (J, tau), total in strength.items():
        if J < JTOP_LINES:
            worst = max(worst, abs(total / ((2 * J + 1) * workload.info["mu2"]) - 1.0))
    if not worst < 1e-9:
        problems.append(f"line-strength sum rule off by {worst:.3e} relative")
    diag["sum_rule_worst"] = worst
    return problems
