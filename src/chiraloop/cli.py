"""Command line front end: molecule catalog, level tables, loop synthesis,
and dynamics runs, with aligned text tables and optional CSV output.

Exit codes: 0 success, 2 validation failure (bad arguments, config or
molecule files), 1 internal error.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, loop
from .dipole import BodyDipole
from .fields import _wrap_phase, linear_components
from .rotor import AsymTopLevel, RangeError, RotationalConstants, rotor_levels
from .rotor import DegenerateLevelsWarning, transition_frequency

__all__ = ["ParseError", "MoleculeConfig", "parse_molecule_config", "load_molecule", "run", "main"]

_KEYS = ("name", "A_MHz", "B_MHz", "C_MHz", "mu_x_D", "mu_y_D", "mu_z_D")

_TRIADS = {"a": (-1, 1), "b": (-1, 0), "c": (0, 1)}

_AXES = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}

# Longest table a command builds (time steps of `simulate` and `contrast`,
# K rows of `levels`): every row is held in memory.
MAX_TABLE_ROWS = 1_000_000


class ParseError(ValueError):
    """Malformed molecule config file."""


@dataclass(frozen=True)
class MoleculeConfig:
    name: str
    A: float
    B: float
    C: float
    mu_x: float
    mu_y: float
    mu_z: float

    def constants(self) -> RotationalConstants:
        return RotationalConstants(self.A, self.B, self.C)

    def dipole(self) -> BodyDipole:
        return BodyDipole(self.mu_x, self.mu_y, self.mu_z)


def parse_molecule_config(text: str) -> MoleculeConfig:
    """Parse the line-based `key = value` molecule format.

    Keys are exactly name, A_MHz, B_MHz, C_MHz, mu_x_D, mu_y_D, mu_z_D;
    `#` starts a comment.  Units are fixed (MHz, Debye).
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ParseError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key '{key}'")
        if not value:
            raise ParseError(f"line {lineno}: empty value for '{key}'")
        values[key] = value

    missing = [k for k in _KEYS if k not in values]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}")

    numbers = {}
    for key in _KEYS[1:]:
        try:
            numbers[key] = float(values[key])
        except ValueError:
            raise ParseError(f"key '{key}': not a number: {values[key]!r}") from None
        if not math.isfinite(numbers[key]):
            raise ParseError(f"key '{key}': not a finite number: {values[key]!r}")

    config = MoleculeConfig(
        name=values["name"],
        A=numbers["A_MHz"],
        B=numbers["B_MHz"],
        C=numbers["C_MHz"],
        mu_x=numbers["mu_x_D"],
        mu_y=numbers["mu_y_D"],
        mu_z=numbers["mu_z_D"],
    )
    config.constants()  # raises RangeError unless A >= B >= C > 0
    return config


def bundled_molecules() -> list[str]:
    root = importlib.resources.files("chiraloop") / "data"
    return sorted(p.name[: -len(".mol")] for p in root.iterdir() if p.name.endswith(".mol"))


def load_molecule(name_or_path: str) -> MoleculeConfig:
    """Load a bundled molecule by name or any molecule config file by path."""
    resource = importlib.resources.files("chiraloop") / "data" / f"{name_or_path}.mol"
    if resource.is_file():
        return parse_molecule_config(resource.read_text())
    path = Path(name_or_path)
    if path.is_file():
        return parse_molecule_config(path.read_text())
    raise ParseError(
        f"unknown molecule '{name_or_path}' (bundled: {', '.join(bundled_molecules())})"
    )


def _triad(config: MoleculeConfig, which: str) -> tuple[AsymTopLevel, AsymTopLevel, AsymTopLevel]:
    try:
        tau_b, tau_c = _TRIADS[which]
    except KeyError:
        raise ValueError(f"triad must be one of a, b, c; got '{which}'") from None
    constants = config.constants()
    ground = rotor_levels(constants, 0)[0]
    j1 = {level.tau: level for level in rotor_levels(constants, 1)}
    return ground, j1[tau_b], j1[tau_c]


def _split3(text: str, kind: str, cast) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--{kind} needs three comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError:
        raise ValueError(f"--{kind}: could not parse {text!r}") from None


def _parse_general_field(text: str) -> dict[int, tuple[float, float]]:
    comps = {}
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"--field component must be sigma:amp:phase, got {part!r}")
        sigma, amp, phase = int(pieces[0]), float(pieces[1]), float(pieces[2])
        comps[sigma] = (amp, phase)
    return comps


def _drive_components(args) -> list[dict[int, tuple[float, float]]]:
    """The three drives' {sigma: (amplitude, phase)} from --pol, --sigma or --field."""
    amps = _split3(args.amp, "amp", float) if args.amp else (1.0, 1.0, 1.0)
    phases = _split3(args.phase, "phase", float) if args.phase else (0.0, 0.0, 0.0)

    pol = getattr(args, "pol", None)
    sigma = getattr(args, "sigma", None)
    general = getattr(args, "field", None)
    config = getattr(args, "config", None)
    if config:
        if all(ch.upper() in _AXES for ch in config) and len(config) == 3:
            pol = config
        else:
            sigma = config

    given = [x for x in (pol, sigma, general) if x]
    if len(given) != 1:
        raise ValueError("specify the drives with exactly one of --pol, --sigma, --field")

    if pol:
        letters = [ch.upper() for ch in pol]
        if len(letters) != 3 or any(ch not in _AXES for ch in letters):
            raise ValueError(f"--pol must be three of X, Y, Z, got {pol!r}")
        return [linear_components(_AXES[ch], a, p) for ch, a, p in zip(letters, amps, phases)]
    if sigma:
        sigmas = _split3(sigma, "sigma", int)
        if any(s not in (-1, 0, 1) for s in sigmas):
            raise ValueError(f"--sigma components must be -1, 0 or 1, got {sigma!r}")
        return [{s: (amp, phase)} for s, amp, phase in zip(sigmas, amps, phases)]
    if len(general) != 3:
        raise ValueError("--field must be given exactly three times")
    return [_parse_general_field(text) for text in general]


def _loop_spec(config: MoleculeConfig, args) -> loop.LoopSpec:
    comps = _drive_components(args)
    return loop.LoopSpec.resonant(_triad(config, args.triad), config.dipole(), comps)


def _emit(headers: list[str], rows: list[list[str]], csv_path: str | None) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    if csv_path:
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(headers)
            writer.writerows(rows)


def cmd_levels(args) -> int:
    n = args.jmax
    if n < 0:
        raise ValueError(f"--jmax must be >= 0, got {n}")
    if (n + 1) * (2 * n + 1) * (2 * n + 3) // 3 > MAX_TABLE_ROWS:  # sum of (2J+1)^2
        raise ValueError(f"--jmax {n} asks for more than {MAX_TABLE_ROWS} table rows")
    constants = load_molecule(args.molecule).constants()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateLevelsWarning)
        blocks = [rotor_levels(constants, J) for J in range(n + 1)]
    degenerate = [str(w.message.J) for w in caught if w.category is DegenerateLevelsWarning]
    if degenerate:
        print(
            f"warning: degenerate levels in the J = {', '.join(degenerate)} blocks; "
            "their tau order is not physically defined",
            file=sys.stderr,
        )
    rows = []
    for J, levels in enumerate(blocks):
        for level in levels:
            head = [str(J), str(level.tau), f"{level.freq:.2f}"]
            for K, c in zip(range(-J, J + 1), level.coeffs.tolist()):
                cell = f"{c:.6f}"
                # a coefficient that rounds to zero prints unsigned
                rows.append([*head, str(K), "0.000000" if cell == "-0.000000" else cell])
    _emit(["J", "tau", "freq_MHz", "K", "coeff"], rows, args.csv)
    return 0


def cmd_transitions(args) -> int:
    config = load_molecule(args.molecule)
    a, b, c = _triad(config, args.triad)
    rows = [
        ["nu1", f"(1,{b.tau})", "(0,0)", f"{transition_frequency(b, a):.2f}"],
        ["nu2", f"(1,{c.tau})", f"(1,{b.tau})", f"{transition_frequency(c, b):.2f}"],
        ["nu3", f"(1,{c.tau})", "(0,0)", f"{transition_frequency(c, a):.2f}"],
    ]
    _emit(["line", "upper", "lower", "freq_MHz"], rows, args.csv)
    return 0


def cmd_loops_enumerate(args) -> int:
    config = load_molecule(args.molecule)
    levels = _triad(config, args.triad)
    rows = []
    for cand in loop.enumerate_pure_polarizations(levels, config.dipole()):
        rows.append(
            [
                str(cand.sigma1),
                str(cand.sigma2),
                str(cand.sigma3),
                str(cand.m_b),
                str(cand.m_c),
                "true" if cand.closed else "false",
                f"{cand.omega_abs[0]:.4f}",
                f"{cand.omega_abs[1]:.4f}",
                f"{cand.omega_abs[2]:.4f}",
                f"{cand.max_residual:.3e}",
            ]
        )
    _emit(
        ["sigma1", "sigma2", "sigma3", "Mb", "Mc", "closed", "|O1|", "|O2|", "|O3|", "residual_max"],
        rows,
        args.csv,
    )
    return 0


def cmd_loops_verify(args) -> int:
    config = load_molecule(args.molecule)
    spec = _loop_spec(config, args)
    diag = loop.loop_diagnostics(spec)
    o1, o2, o3 = (abs(o) for o in diag.omegas)
    ratio = f"{1.0:.2f}:{o2 / o1:.2f}:{o3 / o1:.2f}" if o1 > 0 else "undefined"
    # in (-pi, pi], so the sign of a rounding-level zero imaginary part
    # cannot turn +pi into -pi
    phase = _wrap_phase(np.angle(loop.loop_product(loop.SingleLoopHamiltonian(*diag.omegas))))
    names = ["|<c'|H|b>|", "|<c''|H|b>|", "|<c|H|b'>|", "|<c|H|b''>|"]
    rows = [[name, f"{abs(r):.3e}"] for name, r in zip(names, diag.residuals)]
    rows += [
        ["residual_max_MHz", f"{diag.max_residual:.3e}"],
        ["|Omega1|_MHz", f"{o1:.4f}"],
        ["|Omega2|_MHz", f"{o2:.4f}"],
        ["|Omega3|_MHz", f"{o3:.4f}"],
        ["ratio", ratio],
        ["loop_phase_rad", f"{phase:.4f}"],
        ["closed", "true" if diag.closed else "false"],
    ]
    if diag.failure:
        rows.append(["failure", diag.failure])
    _emit(["quantity", "value"], rows, args.csv)
    return 0


def cmd_loops_sample(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    config = load_molecule(args.molecule)
    levels = _triad(config, args.triad)
    dip = config.dipole()
    rng = np.random.default_rng(args.seed)

    n_random = args.samples
    n_orth = max(1, args.samples // 10)
    closed_random = 0
    orthogonal_random = 0
    consistent = True
    for _ in range(n_random):
        dirs = rng.normal(size=(3, 3))
        closed, _ = loop.verify_linear_orthogonality(*dirs, levels, dip)
        units = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        dots = [abs(units[i] @ units[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        orthogonal = max(dots) < 1e-8
        closed_random += closed
        orthogonal_random += orthogonal
        consistent &= closed == orthogonal

    closed_orth = 0
    max_residual_orth = 0.0
    for _ in range(n_orth):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        closed, residual = loop.verify_linear_orthogonality(q[:, 0], q[:, 1], q[:, 2], levels, dip)
        closed_orth += closed
        max_residual_orth = max(max_residual_orth, residual)

    rows = [
        ["random_samples", str(n_random)],
        ["random_closed", str(closed_random)],
        ["random_orthogonal", str(orthogonal_random)],
        ["orthogonal_samples", str(n_orth)],
        ["orthogonal_closed", str(closed_orth)],
        ["orthogonal_max_residual", f"{max_residual_orth:.3e}"],
        ["closure_iff_orthogonal", "true" if consistent and closed_orth == n_orth else "false"],
    ]
    _emit(["quantity", "value"], rows, args.csv)
    return 0


def _time_grid(args) -> np.ndarray:
    """Output times 0, dt, 2 dt, ... up to --t (us), validated before allocation."""
    if not (0 <= args.t < math.inf and 0 < args.dt < math.inf):  # NaN fails too
        raise ValueError(f"need finite --t >= 0 and --dt > 0, got {args.t} and {args.dt}")
    if not args.t / args.dt < MAX_TABLE_ROWS:
        raise ValueError(f"--t / --dt asks for more than {MAX_TABLE_ROWS} time steps")
    steps = int(round(args.t / args.dt))
    return np.arange(steps + 1) * args.dt


def cmd_simulate(args) -> int:
    times = _time_grid(args)
    config = load_molecule(args.molecule)
    spec = _loop_spec(config, args)
    pops = dynamics.loop_populations(spec, times, (1.0, 0.0, 0.0))
    rows = []
    for t, (pa, pb, pc) in zip(times, pops):
        leak = max(0.0, 1.0 - (pa + pb + pc))
        rows.append([f"{t:.4f}", f"{pa:.6f}", f"{pb:.6f}", f"{pc:.6f}", f"{leak:.3e}"])
    _emit(["t_us", "P_a", "P_b", "P_c", "leakage"], rows, args.csv)
    return 0


def cmd_contrast(args) -> int:
    times = _time_grid(args)
    config = load_molecule(args.molecule)
    spec = _loop_spec(config, args)
    right, left = (
        dynamics.loop_populations(s, times, (1.0, 0.0, 0.0)) for s in (spec, spec.mirrored())
    )
    d_pc = np.abs(right[:, 2] - left[:, 2])
    rows = [
        [f"{t:.4f}"] + [f"{p:.6f}" for p in (*r, *l, d)]
        for t, r, l, d in zip(times, right, left, d_pc)
    ]
    _emit(
        ["t_us", "P_a_R", "P_b_R", "P_c_R", "P_a_L", "P_b_L", "P_c_L", "dP_c"],
        rows,
        args.csv,
    )
    print(f"max |P_c_R - P_c_L| = {d_pc.max():.6f}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiraloop",
        description="Rotational structure and single-loop drive configurations "
        "for chiral asymmetric-top molecules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("molecule", help="bundled molecule name or config file path")
        p.add_argument("--csv", help="also write the table to this CSV file")

    p = sub.add_parser("levels", help="rotational level energies and coefficients")
    add_common(p)
    p.add_argument("--jmax", type=int, default=2)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("transitions", help="triad transition frequencies")
    add_common(p)
    p.add_argument("--triad", default="a", choices=("a", "b", "c"))
    p.set_defaults(func=cmd_transitions)

    loops = sub.add_parser("loops", help="loop enumeration and verification")
    loops_sub = loops.add_subparsers(dest="loops_command", required=True)

    p = loops_sub.add_parser("enumerate", help="all 27 pure-polarization candidates")
    add_common(p)
    p.add_argument("--triad", default="a", choices=("a", "b", "c"))
    p.set_defaults(func=cmd_loops_enumerate)

    p = loops_sub.add_parser("verify", help="closure residuals and Rabi table")
    add_common(p)
    p.add_argument("--triad", default="a", choices=("a", "b", "c"))
    p.add_argument("--pol", help="three linear polarization axes, e.g. ZXY")
    p.add_argument("--sigma", help="three pure spherical components, e.g. 1,-1,0")
    p.add_argument(
        "--field",
        action="append",
        help="general drive as sigma:amp:phase[,sigma:amp:phase...]; repeat 3 times",
    )
    p.add_argument("--amp", help="three amplitudes in V/cm, e.g. 1,0.75,2.75")
    p.add_argument("--phase", help="three phases in rad")
    p.set_defaults(func=cmd_loops_verify)

    p = loops_sub.add_parser("sample", help="random-direction orthogonality check")
    add_common(p)
    p.add_argument("--triad", default="a", choices=("a", "b", "c"))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="fixes the sampling RNG")
    p.set_defaults(func=cmd_loops_sample)

    for name, help_text in (
        ("simulate", "population time series and leakage"),
        ("contrast", "R vs L population difference"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.add_argument("--triad", default="a", choices=("a", "b", "c"))
        p.add_argument(
            "--config",
            required=True,
            help="loop drives: polarization letters (ZXY) or sigmas (1,-1,0)",
        )
        p.add_argument("--amp", help="three amplitudes in V/cm")
        p.add_argument("--phase", help="three phases in rad")
        p.add_argument("--t", type=float, default=2.0, help="total time, us")
        p.add_argument("--dt", type=float, default=0.02, help="output step, us")
        p.set_defaults(func=cmd_simulate if name == "simulate" else cmd_contrast)

    return parser


def run(argv: list[str]) -> int:
    """Run the CLI on argv (no program name); returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, RangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
