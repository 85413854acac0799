"""Command line front end: molecule catalog, level tables, loop synthesis,
and dynamics runs, with aligned text tables and optional CSV output.

Exit codes: 0 success, 2 validation failure (bad arguments, config or
molecule files, a --csv file or stdout that cannot be written), 1 internal
error, 141 stdout closed early (as by `| head`).  Diagnostics go to stderr.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import dynamics, loop
from .dipole import BodyDipole
from .fields import _wrap_phase, linear_components, stacked_linear_components
from .rotor import AsymTopLevel, RangeError, RotationalConstants, rotor_levels
from .rotor import DegenerateLevelsWarning, transition_frequency

__all__ = ["ParseError", "MoleculeConfig", "parse_molecule_config", "load_molecule", "run", "main"]

_KEYS = ("name", "A_MHz", "B_MHz", "C_MHz", "mu_x_D", "mu_y_D", "mu_z_D")

_TRIADS = {"a": (-1, 1), "b": (-1, 0), "c": (0, 1)}

_AXES = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}

# Longest table a command builds (time steps of `simulate` and `contrast`,
# K rows of `levels`): it bounds the float columns held in memory and the run
# time, as the text is written a block at a time.
MAX_TABLE_ROWS = 1_000_000
MEMO_ENTRIES = 16  # kept by each memo of the CLI: parsed bundled molecules, J <= 1 levels
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


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


@functools.lru_cache(maxsize=MEMO_ENTRIES)  # package data cannot change while the process runs
def _bundled_config(name: str) -> MoleculeConfig | None:
    if name not in bundled_molecules():
        return None
    resource = importlib.resources.files("chiraloop") / "data" / f"{name}.mol"
    return parse_molecule_config(resource.read_text())


def load_molecule(name_or_path: str) -> MoleculeConfig:
    """Load a bundled molecule by name (parsed once per process) or any molecule
    config file by path (read on every call, as the file can change)."""
    config = _bundled_config(name_or_path)
    if config is not None:
        return config
    path = Path(name_or_path)
    if path.is_file():
        return parse_molecule_config(path.read_text())
    raise ParseError(
        f"unknown molecule '{name_or_path}' (bundled: {', '.join(bundled_molecules())})"
    )


def _level_blocks(constants: RotationalConstants, js) -> tuple[list[list[AsymTopLevel]], str]:
    """rotor_levels of each J in js, and one stderr line naming the J blocks that
    hold degenerate levels ("" if none) in place of a DegenerateLevelsWarning each."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateLevelsWarning)
        blocks = [rotor_levels(constants, J) for J in js]
    degenerate = [str(w.message.J) for w in caught if w.category is DegenerateLevelsWarning]
    return blocks, (f"warning: degenerate levels in the J = {', '.join(degenerate)} blocks; "
                    "their tau order is not physically defined\n") if degenerate else ""


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _low_levels(config: MoleculeConfig) -> tuple[AsymTopLevel, tuple[AsymTopLevel, ...], str]:
    """The J = 0 level, the J = 1 levels by tau + 1 and their degeneracy warning,
    built once per molecule value for every triad of every command."""
    ((ground,), j1), warning = _level_blocks(config.constants(), (0, 1))
    for level in (ground, *j1):
        level.coeffs.setflags(write=False)  # every later command is handed these arrays
    return ground, tuple(j1), warning


def _triad(config: MoleculeConfig, which: str) -> tuple[AsymTopLevel, AsymTopLevel, AsymTopLevel]:
    try:
        tau_b, tau_c = _TRIADS[which]
    except KeyError:
        raise ValueError(f"triad must be one of a, b, c; got '{which}'") from None
    ground, j1, warning = _low_levels(config)
    sys.stderr.write(warning)
    return ground, j1[tau_b + 1], j1[tau_c + 1]


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
        try:
            sigma, amp, phase = int(pieces[0]), float(pieces[1]), float(pieces[2])
        except ValueError:
            raise ValueError(f"--field: could not parse component {part!r}") from None
        if sigma in comps:
            raise ValueError(f"--field {text!r} gives sigma={sigma} more than once")
        comps[sigma] = (amp, phase)
    return comps


def _drive_components(args) -> list[dict[int, tuple[float, float]]]:
    """The three drives' {sigma: (amplitude, phase)} from --pol, --sigma or --field."""
    amps = _split3(args.amp, "amp", float) if args.amp is not None else (1.0, 1.0, 1.0)
    phases = _split3(args.phase, "phase", float) if args.phase is not None else (0.0, 0.0, 0.0)

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
    if args.amp is not None or args.phase is not None:
        raise ValueError("--field takes no --amp or --phase: each component gives its own")
    if len(general) != 3:
        raise ValueError("--field must be given exactly three times")
    return [_parse_general_field(text) for text in general]


def _loop_spec(config: MoleculeConfig, args) -> loop.LoopSpec:
    comps = _drive_components(args)
    return loop.LoopSpec.resonant(loop.Triad(*_triad(config, args.triad), config.dipole()), comps)


def _csv_field(text: str) -> str:
    """A CSV field quoted as csv.writer quotes it (excel dialect, minimal quoting)."""
    return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\r\n') else text


@functools.cache
def _quad_table() -> np.ndarray:
    """Four characters as uint32: 0 to 9999 with blanks for leading zeros
    ("   0", "  42"), then with the zeros ("0042"), then four blanks."""
    i, places = np.arange(10**4)[:, None], 10 ** np.arange(3, -1, -1)
    zeros = i // places % 10 + 48
    blanks = np.where((i < places) & (places > 1), 32, zeros)
    return np.concatenate([blanks, zeros, [[32] * 4]]).astype(np.uint8).view(np.uint32).ravel()


class _Column:
    """A float column's `fmt % x` cells as right-aligned ASCII bytes, a block at a time.

    `%.Nf` cells (N <= 15) are rounded and spelled in numpy; the rest take
    `fmt % x` once per distinct value (bit pattern), up front."""

    def __init__(self, fmt: str, column: np.ndarray):
        fixed = fmt[:2] == "%." and fmt[-1:] == "f" and fmt[2:-1].isdigit()
        self.n = int(fmt[2:-1]) if fixed and int(fmt[2:-1]) <= 15 else None
        self.column, self.keys = column, column.view(np.int64)
        exact = self._rounded(column)[1]
        # a fixed-point text never shortens as |x| grows: the largest cell of each sign is widest
        signs = (column[exact], column[exact & np.signbit(column)])
        widest = [fmt % cells[np.abs(cells).argmax()] for cells in signs if cells.size]
        # an index flag keeps np.unique from importing numpy.ma
        self.distinct, first = np.unique(self.keys[~exact], return_index=True)
        texts = [fmt % x for x in column[~exact][first].tolist()]
        self.width = max(map(len, texts + widest), default=0)
        table = "".join(t.rjust(self.width) for t in texts).encode("ascii")
        self.table = np.frombuffer(table, np.uint8).reshape(len(texts), self.width)

    def _rounded(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """q = rint(|x| 10**n), and where q is the rounding `%.{n}f` prints: 10**n is exact, so
        scaled is within scaled * 2**-53 of |x| 10**n and rounds as `%` does (half to even)
        unless within scaled * 2**-52 of a half-integer, as NaN and any scaled >= 2**51 are."""
        if self.n is None:
            return x, np.zeros(len(x), bool)
        scaled = np.minimum(np.abs(x), 2.0**51) * 10.0**self.n  # no overflow; NaN stays NaN
        exact = np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-52
        return np.where(exact, np.rint(scaled), 0.0), exact

    def render(self, rows: slice) -> np.ndarray:
        """The cells of rows as a (rows, width) uint8 block."""
        x, keys = self.column[rows], self.keys[rows]
        q, exact = self._rounded(x)
        if not exact.any():
            return self.table[np.searchsorted(self.distinct, keys)]
        n, whole = self.n, np.floor(q / 10.0**self.n)  # every step is exact, as q < 2**51
        # four characters at a time, right to left: the decimals with their zeros, the integer
        # part with zeros below its top digit and blanks above it, the dot over decimal padding
        quads = (-(-n // 4), -(-len(str(int(whole.max()))) // 4))
        size = 4 * sum(quads) + self.width
        text, dot = np.full((len(x), size), 32, np.uint8), size - n - (n > 0)
        for part, count, end, zeros in ((q - whole * 10.0**n, quads[0], size, True),
                                        (whole, quads[1], dot, False)):
            high = [np.floor(part / 10.0 ** (4 * j)) for j in range(count)] + [0.0]
            cells = text[:, end - 4 * count : end].view(np.uint32)
            for j in range(count):
                index = high[j] - high[j + 1] * 1e4 + 1e4 * (zeros or high[j + 1] > 0)
                if j and not zeros:
                    index[high[j] == 0] = 2e4
                cells[:, -1 - j] = _quad_table().take(index.astype(np.intp))
        text[:, dot : dot + (n > 0)] = 46
        text = text[:, 4 * sum(quads) :]
        negative = np.signbit(x) & exact
        text[negative, np.argmax(text[negative] != 32, axis=1) - 1] = 45
        text[~exact] = self.table[np.searchsorted(self.distinct, keys[~exact])]
        return text


def _write(target: str, op, *args, **kwargs):
    """op(*args, **kwargs), its OSError (but a closed pipe's) raised as a ValueError naming target."""
    try:
        return op(*args, **kwargs)
    except BrokenPipeError:  # run() answers it with EXIT_BROKEN_PIPE
        raise
    except OSError as exc:
        raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from None


def _emit(headers: list[str], rows: np.ndarray | list[list[str]], csv_path: str | None,
          formats: list[str] | None = None) -> None:
    """Write a table to stdout, right-aligned, and to csv_path as CSV if given.

    rows is a 2-D float array with one column per header and one % conversion
    per column in formats, or a short list of rows of strings, written as given.
    Float rows are rendered as bytes (`_Column`), EVOLVE_BLOCK_ROWS at a time; a
    float's text holds no space, so its CSV is the same bytes, unpadded, with commas."""
    texts, columns = [headers], []  # the lines Python writes: the header, and any strings
    if isinstance(rows, np.ndarray):
        columns = [_Column(f, rows[:, i]) for i, f in enumerate(formats)]
        widths = [max(len(h), c.width) for h, c in zip(headers, columns)]
        ends = np.cumsum(widths) + 2 * np.arange(len(widths))  # where each column's cells end
    else:  # a few rows of strings: cell by cell in Python costs less than numpy's set-up
        texts += rows
        widths = [max(map(len, column)) for column in zip(*texts)]

    to_stdout = functools.partial(_write, "stdout", sys.stdout.write)
    to_csv = functools.partial(_write, f"--csv {csv_path!r}")
    handle = None if csv_path is None else to_csv(open, csv_path, "w", newline="")
    try:
        to_stdout("".join("  ".join(map(str.rjust, r, widths)) + "\n" for r in texts))
        if handle:
            to_csv(handle.write, "".join(",".join(map(_csv_field, r)) + "\r\n" for r in texts))
        for start in range(0, len(rows) if columns else 0, dynamics.EVOLVE_BLOCK_ROWS):
            block = slice(start, start + dynamics.EVOLVE_BLOCK_ROWS)
            line = np.full((len(rows[block]), ends[-1] + 1), 32, np.uint8)
            for column, end in zip(columns, ends):
                line[:, end - column.width : end] = column.render(block)
            line[:, -1] = 10
            to_stdout(line.tobytes().decode("ascii"))
            if handle:
                line[:, ends[:-1]] = 44
                to_csv(handle.write, line[line != 32].tobytes().decode("ascii").replace("\n", "\r\n"))
    finally:
        if handle:
            to_csv(handle.close)


def cmd_levels(args) -> int:
    n = args.jmax
    if n < 0:
        raise ValueError(f"--jmax must be >= 0, got {n}")
    if (n + 1) * (2 * n + 1) * (2 * n + 3) // 3 > MAX_TABLE_ROWS:  # sum of (2J+1)^2
        raise ValueError(f"--jmax {n} asks for more than {MAX_TABLE_ROWS} table rows")
    blocks, warning = _level_blocks(load_molecule(args.molecule).constants(), range(n + 1))
    sys.stderr.write(warning)
    # one row per (level, K): J, tau and freq repeat over K, K repeats over levels
    table = np.concatenate([np.column_stack((
        np.full(len(lv) ** 2, J), np.repeat([(v.tau, v.freq) for v in lv], len(lv), axis=0),
        np.tile(np.arange(-J, J + 1), len(lv)), np.ravel([v.coeffs for v in lv]),
    )) for J, lv in enumerate(blocks)])
    # a coefficient that rounds to zero prints unsigned: 5e-7 as a double lies
    # just below 5e-7, so these are exactly the ones that print as -0.000000
    table[np.abs(table[:, 4]) <= 5e-7, 4] = 0.0
    _emit(["J", "tau", "freq_MHz", "K", "coeff"], table, args.csv, ["%d", "%d", "%.2f", "%d", "%.6f"])
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
    rows = [
        [*map(str, (c.sigma1, c.sigma2, c.sigma3, c.m_b, c.m_c)), "true" if c.closed else "false",
         *(f"{o:.4f}" for o in c.omega_abs), f"{c.max_residual:.3e}"]
        for c in loop.enumerate_pure_polarizations(levels, config.dipole())
    ]
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


def _normal_frames(rng: np.random.Generator, n: int) -> Iterator[np.ndarray]:
    """n standard-normal 3x3 matrices, LOOP_BATCH_ROWS at a time: the numbers that
    one rng.normal(size=(n, 3, 3)) draw gives."""
    for start in range(0, n, loop.LOOP_BATCH_ROWS):
        yield rng.normal(size=(min(loop.LOOP_BATCH_ROWS, n - start), 3, 3))


def _linear_verdicts(triad: loop.Triad, frames: np.ndarray) -> Iterator[loop.LoopDiagnostics]:
    """Verdicts for unit linear drives 1, 2, 3 along frames[n, 0], [n, 1], [n, 2]."""
    amps, phases = stacked_linear_components(frames.reshape(-1, 3))
    return triad.diagnostics(amps.reshape(-1, 3, 3), phases.reshape(-1, 3, 3))


def cmd_loops_sample(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = load_molecule(args.molecule)
    triad = loop.Triad(*_triad(config, args.triad), config.dipole())
    rng = np.random.default_rng(args.seed)

    # frames are drawn, projected and judged one chunk at a time, so memory
    # does not grow with --samples
    n_random = args.samples
    n_orth = max(1, args.samples // 10)
    closed_random = 0
    orthogonal_random = 0
    consistent = True
    for dirs in _normal_frames(rng, n_random):
        closed = np.fromiter((d.closed for d in _linear_verdicts(triad, dirs)), bool, len(dirs))
        units = dirs / np.linalg.norm(dirs, axis=2, keepdims=True)
        dots = np.abs(units @ units.transpose(0, 2, 1))[:, (0, 0, 1), (1, 2, 2)]
        orthogonal = dots.max(axis=1) < 1e-8
        closed_random += int(closed.sum())
        orthogonal_random += int(orthogonal.sum())
        consistent &= bool((closed == orthogonal).all())

    closed_orth = 0
    max_residual_orth = 0.0
    for frames in _normal_frames(rng, n_orth):
        q, _ = np.linalg.qr(frames)
        # drive k along column k of each random orthogonal matrix
        for diag in _linear_verdicts(triad, q.transpose(0, 2, 1)):
            closed_orth += diag.closed
            max_residual_orth = max(max_residual_orth, diag.max_residual)

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


def _driven_spec(args) -> loop.LoopSpec:
    """simulate's and contrast's drives, refused when their verdict is non_finite."""
    spec = _loop_spec(load_molecule(args.molecule), args)
    if loop.loop_diagnostics(spec).failure == "non_finite":
        raise ValueError("the drives' closure residuals or Rabi frequencies are not finite")
    return spec


def cmd_simulate(args) -> int:
    times = _time_grid(args)
    spec = _driven_spec(args)
    pops = dynamics.loop_populations(spec, times, (1.0, 0.0, 0.0))
    # fmax, like max(0.0, x), maps a NaN sum to 0
    leak = np.fmax(0.0, 1.0 - ((pops[:, 0] + pops[:, 1]) + pops[:, 2]))
    _emit(["t_us", "P_a", "P_b", "P_c", "leakage"], np.column_stack((times, pops, leak)), args.csv,
          ["%.4f", "%.6f", "%.6f", "%.6f", "%.3e"])
    return 0


def cmd_contrast(args) -> int:
    times = _time_grid(args)
    spec = _driven_spec(args)
    right, left = (
        dynamics.loop_populations(s, times, (1.0, 0.0, 0.0)) for s in (spec, spec.mirrored())
    )
    d_pc = np.abs(right[:, 2] - left[:, 2])
    _emit(
        ["t_us", "P_a_R", "P_b_R", "P_c_R", "P_a_L", "P_b_L", "P_c_L", "dP_c"],
        np.column_stack((times, right, left, d_pc)),
        args.csv,
        ["%.4f"] + ["%.6f"] * 7,
    )
    _write("stdout", sys.stdout.write, f"max |P_c_R - P_c_L| = {d_pc.max():.6f}\n")
    return 0


# An option is (name, cast, default, help): a default of _REQUIRED marks one that must be
# given, _REPEATED one that may be given again, each value kept in a list.
_REQUIRED, _REPEATED = object(), object()
_CSV = ("csv", str, None, "also write the table to this CSV file")
_JMAX = ("jmax", int, 2, "highest J")
_TRIAD = ("triad", str, "a", "the triad that forms the loop: a, b or c")
_POL = ("pol", str, None, "three linear polarization axes, e.g. ZXY")
_SIGMA = ("sigma", str, None, "three pure spherical components, e.g. 1,-1,0")
_FIELD = ("field", str, _REPEATED, "general drive as sigma:amp:phase[,sigma:amp:phase...]; give 3")
_CONFIG = ("config", str, _REQUIRED, "loop drives: polarization letters (ZXY) or sigmas (1,-1,0)")
_AMP = ("amp", str, None, "three amplitudes in V/cm, e.g. 1,0.75,2.75")
_PHASE = ("phase", str, None, "three phases in rad")
_SAMPLES = ("samples", int, 1000, "random drive frames")
_SEED = ("seed", int, 0, "fixes the sampling RNG")
_T = ("t", float, 2.0, "total time, us")
_DT = ("dt", float, 0.02, "output step, us")

# command -> (help, options); each command also takes a MOLECULE, --csv and -h or --help
_COMMANDS = {
    "levels": ("rotational level energies and coefficients", (_JMAX,)),
    "transitions": ("triad transition frequencies", (_TRIAD,)),
    "loops enumerate": ("all 27 pure-polarization candidates", (_TRIAD,)),
    "loops verify": ("closure residuals and Rabi table", (_TRIAD, _POL, _SIGMA, _FIELD, _AMP, _PHASE)),
    "loops sample": ("random-direction orthogonality check", (_TRIAD, _SAMPLES, _SEED)),
    "simulate": ("population time series and leakage", (_TRIAD, _CONFIG, _AMP, _PHASE, _T, _DT)),
    "contrast": ("R vs L population difference", (_TRIAD, _CONFIG, _AMP, _PHASE, _T, _DT)),
}


def _help(prefix: str) -> str:
    """The -h text: every command whose name starts with prefix, with its options."""
    notes = {None: "", _REQUIRED: " (required)", _REPEATED: " (repeatable)"}
    lines = ["usage: chiraloop COMMAND MOLECULE [options]; MOLECULE: a bundled name or a file path"]
    for command, (text, options) in _COMMANDS.items():
        if command.startswith(prefix):
            lines.append(f"\n{command}: {text}")
            lines += [f"  --{name:9}{help_text}{notes.get(default, f' (default: {default})')}"
                      for name, _, default, help_text in (_CSV, *options)]
    return "\n".join(lines) + "\n"


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace | None]:
    """The command that argv names and its options, read by _COMMANDS, or (prefix, None)
    for -h.  Values are taken verbatim, as --opt=value or --opt value, and an option is
    given by its exact name or by a prefix of no other option's name."""
    words = 2 if argv[:1] == ["loops"] else 1
    command = " ".join(argv[:words])
    if command not in _COMMANDS:
        group, _, last = command.rpartition(" ")
        if last in ("-h", "--help"):
            return group, None
        raise ValueError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
    options = {option[0]: option for option in (_CSV, *_COMMANDS[command][1])}
    values = {name: [] if default is _REPEATED else default for name, _, default, _ in options.values()}
    molecules = []
    rest = iter(argv[words:])
    for word in rest:
        if word in ("-h", "--help"):
            return command, None
        if word[:2] != "--":
            molecules.append(word)
            continue
        key, equals, value = word[2:].partition("=")
        matches = [key] if key in options else [name for name in options if name.startswith(key)]
        if len(matches) != 1:
            raise ValueError(f"{'ambiguous' if matches else 'unknown'} option '--{key}'")
        name, cast, default, _ = options[matches[0]]
        if not equals and (value := next(rest, None)) is None:
            raise ValueError(f"--{name} needs a value")
        try:
            value = cast(value)
        except ValueError:
            raise ValueError(f"--{name}: not {cast.__name__}: {value!r}") from None
        values[name] = [*values[name], value] if default is _REPEATED else value
    if len(molecules) != 1:
        raise ValueError(f"{command} takes one MOLECULE, got {len(molecules)}: {molecules!r}")
    missing = [f"--{name}" for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise ValueError(f"{command} needs {', '.join(missing)}")
    return command, SimpleNamespace(molecule=molecules[0], **values)


def run(argv: list[str]) -> int:
    """Run the CLI on argv (no program name); returns the exit code."""
    try:
        command, args = _parse(argv)
        if args is None:
            _write("stdout", sys.stdout.write, _help(command))
            code = 0
        else:  # looked up at each run, so that a cmd_ function rebound after import is called
            code = globals()["cmd_" + command.replace(" ", "_")](args)
        _write("stdout", sys.stdout.flush)  # a closed or full stdout shows up here, not at exit
        return code
    except BrokenPipeError:  # the reader went away; not an error of ours
        return EXIT_BROKEN_PIPE
    except (ParseError, RangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    if code == EXIT_BROKEN_PIPE:  # what is still buffered goes to devnull, not to a failing flush
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
