"""Command line front end: molecule catalog, level tables, loop synthesis,
and dynamics runs, with aligned text tables and optional CSV output.

Exit codes: 0 success, 2 validation failure (bad arguments, config or
molecule files, a --csv file or stdout that cannot be written), 1 internal
error, 141 stdout closed early (as by `| head`).  Diagnostics go to stderr.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Mapping, NamedTuple

import numpy as np

from . import dynamics, loop
from .dipole import BodyDipole
from .fields import linear_components, stacked_linear_components
from .rotor import AsymTopLevel, RotationalConstants, _levels, transition_frequency

__all__ = ["ParseError", "MoleculeConfig", "parse_molecule_config", "load_molecule", "run", "main"]

_KEYS = ("name", "A_MHz", "B_MHz", "C_MHz", "mu_x_D", "mu_y_D", "mu_z_D")

_TRIADS = {"a": (-1, 1), "b": (-1, 0), "c": (0, 1)}

_AXES = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}

# Longest table a command builds (time steps of `simulate` and `contrast`,
# K rows of `levels`): it bounds the float columns held in memory and the run
# time, as the text is written a block at a time.
MAX_TABLE_ROWS = 1_000_000
MEMO_ENTRIES = 16  # molecules whose triads the CLI keeps
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


class ParseError(ValueError):
    """Malformed molecule config file."""


class MoleculeConfig(NamedTuple):
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

    numbers = []  # the fields of MoleculeConfig after name, in _KEYS order
    for key in _KEYS[1:]:
        try:
            numbers.append(float(values[key]))
        except ValueError:
            raise ParseError(f"key '{key}': not a number: {values[key]!r}") from None
        if not math.isfinite(numbers[-1]):
            raise ParseError(f"key '{key}': not a finite number: {values[key]!r}")

    config = MoleculeConfig(values["name"], *numbers)
    config.constants()  # raises RangeError unless A >= B >= C > 0
    return config


_DATA = Path(__file__).with_name("data")


def _read_molecule(path: Path, name_or_path: str) -> MoleculeConfig | None:
    """The molecule config file at path parsed, or None when there is no file there."""
    try:
        # a byte-order mark is dropped after decoding, so codec positions are file offsets
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff") if path.is_file() else None
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, undecodable, a name too long
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read molecule file {name_or_path!r}: {reason}") from None
    return None if text is None else parse_molecule_config(text)


@functools.cache  # package data cannot change while the process runs
def bundled_molecules() -> Mapping[str, MoleculeConfig]:
    """Each bundled molecule's config by name, in name order: data/ listed and parsed once."""
    names = sorted(p.name[: -len(".mol")] for p in _DATA.iterdir() if p.name.endswith(".mol"))
    return MappingProxyType({name: _read_molecule(_DATA / f"{name}.mol", name) for name in names})


def load_molecule(name_or_path: str) -> MoleculeConfig:
    """Load a bundled molecule by name (parsed once per process) or any molecule
    config file by path (read on every call, as the file can change)."""
    config = bundled_molecules().get(name_or_path) or _read_molecule(Path(name_or_path), name_or_path)
    if config is None:
        raise ParseError(
            f"unknown molecule '{name_or_path}' (bundled: {', '.join(bundled_molecules())})"
        )
    return config


def _level_blocks(constants: RotationalConstants, js) -> tuple[list[list[AsymTopLevel]], str]:
    """The levels of each J in js, and one stderr line naming the J blocks that
    hold degenerate levels ("" if none) in place of a DegenerateLevelsWarning each."""
    built = [_levels(constants, J) for J in js]
    degenerate = ", ".join(str(J) for J, (_, tie) in zip(js, built) if tie)
    warning = (f"warning: degenerate levels in the J = {degenerate} blocks; "
               "their tau order is not physically defined\n") if degenerate else ""
    return [levels for levels, _ in built], warning


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _molecule_triads(config: MoleculeConfig) -> SimpleNamespace:
    """Per molecule value, for every command: each triad's levels (a, b, c) by name,
    their J <= 1 degeneracy warning, and each triad's Triad once it was asked for."""
    ((ground,), j1), warning = _level_blocks(config.constants(), (0, 1))
    by_tau = {level.tau: level for level in j1}
    levels = {name: (ground, by_tau[b], by_tau[c]) for name, (b, c) in _TRIADS.items()}
    return SimpleNamespace(levels=levels, warning=warning, triads={})


def _triad_levels(config: MoleculeConfig, which: str) -> tuple[AsymTopLevel, AsymTopLevel, AsymTopLevel]:
    if which not in _TRIADS:
        raise ValueError(f"triad must be one of a, b, c; got '{which}'")
    memo = _molecule_triads(config)
    sys.stderr.write(memo.warning)
    return memo.levels[which]


def _triad(config: MoleculeConfig, which: str) -> loop.Triad:
    """The Triad of --triad, built on first use; a refused one is not kept, so it is
    refused again.  Concurrent first builds are equal, and the first one stored wins."""
    levels, triads = _triad_levels(config, which), _molecule_triads(config).triads
    return triads.get(which) or triads.setdefault(which, loop.Triad(*levels, config.dipole()))


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
        if sigma not in (-1, 0, 1):
            raise ValueError(f"--field component {part!r}: sigma must be -1, 0 or 1")
        if amp < 0:
            raise ValueError(f"--field component {part!r}: amplitude must be >= 0")
        comps[sigma] = (amp, phase)
    return comps


def _loop_spec(args) -> loop.LoopSpec:
    """The loop of a command's options, read in one order: the molecule; the one drive option's
    form and signs, each error naming it (--config is axes when three of X, Y, Z, else sigmas);
    the triad's name, warning and any refusal; only then the drive values, as the library checks them."""
    config = load_molecule(args.molecule)
    amps = _split3(args.amp, "amp", float) if args.amp is not None else (1.0, 1.0, 1.0)
    phases = _split3(args.phase, "phase", float) if args.phase is not None else (0.0, 0.0, 0.0)
    given = [(name, value) for name, value in vars(args).items()
             if name in ("pol", "sigma", "field", "config") and value not in (None, [])]
    if len(given) != 1:
        raise ValueError("specify the drives with exactly one of --pol, --sigma, --field")
    [(option, text)] = given
    axes = None  # three linear drives' axes, whose values are read after the triad
    if option == "field":
        if args.amp is not None or args.phase is not None:
            raise ValueError("--field takes no --amp or --phase: each component gives its own")
        if len(text) != 3:
            raise ValueError("--field must be given exactly three times")
        comps = [_parse_general_field(field) for field in text]
    elif any(amp < 0 for amp in amps):
        raise ValueError(f"--amp values must be >= 0, got {args.amp!r}")
    elif option != "sigma" and len(text) == 3 and all(ch.upper() in _AXES for ch in text):
        axes = [_AXES[ch.upper()] for ch in text]
    elif option == "pol":
        raise ValueError(f"--pol must be three of X, Y, Z, got {text!r}")
    else:
        sigmas = _split3(text, option, int)
        if any(s not in (-1, 0, 1) for s in sigmas):
            raise ValueError(f"--{option} components must be -1, 0 or 1, got {text!r}")
        comps = [{s: (amp, phase)} for s, amp, phase in zip(sigmas, amps, phases)]
    triad = _triad(config, args.triad)
    if axes:
        comps = loop._per_drive(linear_components, axes, amps, phases)
    return loop.LoopSpec(triad, comps)


def _csv_field(text: str) -> str:
    """A CSV field quoted as csv.writer quotes it (excel dialect, minimal quoting)."""
    return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\r\n') else text


@functools.cache
def _quad_table() -> np.ndarray:
    """Four characters as uint32: 0 to 9999 with their leading zeros ("0042"), then with
    blanks for them ("   0", "  42"), then four blanks."""
    digits = np.arange(48, 58, dtype=np.uint8)  # ASCII "0" to "9"
    zeros = np.stack(np.meshgrid(digits, digits, digits, digits, indexing="ij"), -1).reshape(-1, 4)
    blanks = zeros.copy()
    blanks[:1000, 0], blanks[:100, 1], blanks[:10, 2] = 32, 32, 32
    return np.concatenate([zeros, blanks, np.full((1, 4), 32, np.uint8)]).view(np.uint32).ravel()


def _rounded(x: np.ndarray, n: int | None) -> tuple[np.ndarray, np.ndarray]:
    """q = rint(|x| 10**n) as int64 where it is the rounding `%.{n}f` prints (exact), else 0:
    10**n is exact, so scaled is within scaled * 2**-53 of |x| 10**n and rounds as `%` does
    (half to even) unless within scaled * 2**-52 of a half-integer, as any scaled >= 2**51 is."""
    if n is None:
        return x, np.zeros(x.shape, bool)
    scaled = np.fmin(np.abs(x), 2.0**51) * 10.0**n  # no overflow; NaN, like inf, is 2**51
    exact = np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-52
    q = np.rint(scaled)
    q[~exact] = 0.0
    return q.astype(np.int64), exact


class _Column:
    """A float column's width and the `fmt % x` texts of the cells `_spell` does not spell:
    all of them but for `%.Nf` (N <= 15), taken once per distinct value (bit pattern)."""

    def __init__(self, fmt: str, column: np.ndarray):
        fixed = fmt[:2] == "%." and fmt[-1:] == "f" and fmt[2:-1].isdigit()
        self.n = n = int(fmt[2:-1]) if fixed and int(fmt[2:-1]) <= 15 else None
        q, exact = _rounded(column, n)
        # a fixed-point text never shortens as |x| grows: the largest q, and the largest of
        # the negative cells (one character more), give the widest
        tops = [q[cells].max(initial=-1) for cells in (exact, exact & np.signbit(column))]
        widest = [len(str(top // 10**n)) + n + (n > 0) + minus
                  for minus, top in enumerate(tops) if top >= 0]
        keys = np.sort(column.view(np.int64)[~exact])  # a sort: np.unique's is a stable argsort
        self.distinct = np.delete(keys, np.flatnonzero(keys[1:] == keys[:-1]) + 1)
        texts = [fmt % x for x in self.distinct.view(np.float64).tolist()]
        self.width = max([*map(len, texts), *widest], default=0)
        table = "".join(t.rjust(self.width) for t in texts).encode("ascii")
        self.table = np.frombuffer(table, np.uint8).reshape(len(texts), self.width)


def _spell(columns: list[_Column], x: np.ndarray) -> np.ndarray:
    """The cells x (rows, k) of k columns of one conversion as (rows, k, width) uint8, right-aligned
    in the widest column's width: `%.Nf` cells spelled in numpy, the rest from each column's table."""
    n, width = columns[0].n, max(c.width for c in columns)
    if n is None:  # one column of another conversion: every cell from its table
        return columns[0].table[np.searchsorted(columns[0].distinct, x.view(np.int64))]
    q, exact = _rounded(x, n)
    whole = q // 10**n
    # four characters at a time, right to left: the decimals with their zeros, the integer
    # part with zeros below its top digit and blanks above it, the dot over decimal padding
    quads = (-(-n // 4), -(-len(str(whole.max())) // 4))
    size = 4 * sum(quads) + width
    text, dot = np.full((*x.shape, size), 32, np.uint8), size - n - (n > 0)
    for rest, count, end, lead in ((q - whole * 10**n, quads[0], size, False),
                                   (whole, quads[1], dot, True)):
        cells = text[..., end - 4 * count : end].view(np.uint32)
        for j in range(count):
            high = rest // 10**4 if j < count - 1 else 0
            index = rest - high * 10**4
            if lead:  # blanks above the top digit, four of them above a zero rest
                index += 10**4 * (high == 0) + (10**4 * (rest == 0) if j else 0)
            cells[..., -1 - j] = _quad_table().take(index)
            rest = high
    text[..., dot : dot + (n > 0)] = 46
    text = text[..., 4 * sum(quads) :]
    negative = np.signbit(x) & exact
    if negative.any():
        text[negative, np.argmax(text[negative] != 32, axis=1) - 1] = 45
    for j in np.flatnonzero(~exact.all(axis=0)):  # the columns with cells left to their tables
        miss, c = ~exact[:, j], columns[j]
        keys = x[miss, j].view(np.int64)
        text[miss, j, width - c.width :] = c.table[np.searchsorted(c.distinct, keys)]
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
    Float rows are rendered as bytes EVOLVE_BLOCK_ROWS at a time, with one `_spell` per
    block for all the columns of one conversion; a float's text holds no space, so its CSV
    is the same bytes, unpadded, with commas."""
    texts, columns, groups = [headers], [], {}  # the lines Python writes: the header, and any strings
    if isinstance(rows, np.ndarray):
        columns = [_Column(f, rows[:, i]) for i, f in enumerate(formats)]
        widths = [max(len(h), c.width) for h, c in zip(headers, columns)]
        ends = np.cumsum(widths) + 2 * np.arange(len(widths))  # where each column's cells end
        for i, (f, c) in enumerate(zip(formats, columns)):  # the columns of one %.Nf spell together
            groups.setdefault(i if c.n is None else f, []).append(i)
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
            block = rows[start : start + dynamics.EVOLVE_BLOCK_ROWS]
            line = np.full((len(block), ends[-1] + 1), 32, np.uint8)
            for group in groups.values():
                text = _spell([columns[i] for i in group], block[:, group])
                for j, i in enumerate(group):
                    width = columns[i].width
                    line[:, ends[i] - width : ends[i]] = text[:, j, -width:]
            line[:, -1] = 10
            to_stdout(line.tobytes().decode("ascii"))
            if handle:
                line[:, ends[:-1]] = 44
                csv = line.tobytes().translate(None, b" ").replace(b"\n", b"\r\n")
                to_csv(handle.write, csv.decode("ascii"))
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
    a, b, c = _triad_levels(load_molecule(args.molecule), args.triad)
    rows = [
        ["nu1", f"(1,{b.tau})", "(0,0)", f"{transition_frequency(b, a):.2f}"],
        ["nu2", f"(1,{c.tau})", f"(1,{b.tau})", f"{transition_frequency(c, b):.2f}"],
        ["nu3", f"(1,{c.tau})", "(0,0)", f"{transition_frequency(c, a):.2f}"],
    ]
    _emit(["line", "upper", "lower", "freq_MHz"], rows, args.csv)
    return 0


def cmd_loops_enumerate(args) -> int:
    triad = _triad(load_molecule(args.molecule), args.triad)
    rows = [
        [*map(str, (c.sigma1, c.sigma2, c.sigma3, c.m_b, c.m_c)), "true" if c.closed else "false",
         *(f"{o:.4f}" for o in c.omega_abs), f"{c.max_residual:.3e}"]
        for c in loop.enumerate_pure_polarizations(triad)
    ]
    _emit(
        ["sigma1", "sigma2", "sigma3", "Mb", "Mc", "closed", "|O1|", "|O2|", "|O3|", "residual_max"],
        rows,
        args.csv,
    )
    return 0


def cmd_loops_verify(args) -> int:
    diag = loop.loop_diagnostics(_loop_spec(args))
    o1, o2, o3 = (abs(o) for o in diag.omegas)
    ratio = f"{1.0:.2f}:{o2 / o1:.2f}:{o3 / o1:.2f}" if o1 > 0 else "undefined"
    names = ["|<c'|H|b>|", "|<c''|H|b>|", "|<c|H|b'>|", "|<c|H|b''>|"]
    rows = [[name, f"{abs(r):.3e}"] for name, r in zip(names, diag.residuals)]
    rows += [
        ["residual_max_MHz", f"{diag.max_residual:.3e}"],
        ["|Omega1|_MHz", f"{o1:.4f}"],
        ["|Omega2|_MHz", f"{o2:.4f}"],
        ["|Omega3|_MHz", f"{o3:.4f}"],
        ["ratio", ratio],
        ["loop_phase_rad", f"{loop.loop_phase(loop.SingleLoopHamiltonian(*diag.omegas)):.4f}"],
        ["closed", "true" if diag.closed else "false"],
    ]
    if diag.failure:
        rows.append(["failure", diag.failure])
    _emit(["quantity", "value"], rows, args.csv)
    return 0


def _sampled_counts(triad: loop.Triad, rng: np.random.Generator, n: int,
                    orthogonal: bool) -> tuple[int, int, bool, float]:
    """Unit linear drives 1, 2, 3 along frames[k, 0], [k, 1], [k, 2] of n standard-normal 3x3
    frames as one rng.normal(size=(n, 3, 3)) draw gives them, or of their Q factors transposed
    if orthogonal, judged LOOP_BATCH_ROWS at a time, so memory does not grow with n: how many
    close, how many have orthogonal axes, whether those agree on every frame, the largest residual."""
    n_closed = n_orthogonal = 0
    agree, largest = True, 0.0
    for start in range(0, n, loop.LOOP_BATCH_ROWS):
        frames = rng.normal(size=(min(loop.LOOP_BATCH_ROWS, n - start), 3, 3))
        if orthogonal:
            frames = np.linalg.qr(frames)[0].transpose(0, 2, 1)
        units = frames / np.linalg.norm(frames, axis=2, keepdims=True)
        dots = np.abs(units @ units.transpose(0, 2, 1))[:, (0, 0, 1), (1, 2, 2)]
        amps, phases = stacked_linear_components(frames.reshape(-1, 3))
        verdicts = triad.diagnostics(amps.reshape(-1, 3, 3), phases.reshape(-1, 3, 3))
        for diag, at_right_angles in zip(verdicts, (dots.max(axis=1) < 1e-8).tolist()):
            n_closed += diag.closed
            n_orthogonal += at_right_angles
            agree = agree and diag.closed == at_right_angles
            largest = max(largest, diag.max_residual)
    return n_closed, n_orthogonal, agree, largest


def cmd_loops_sample(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    triad = _triad(load_molecule(args.molecule), args.triad)
    rng = np.random.default_rng(args.seed)
    n_orth = max(1, args.samples // 10)
    closed_random, orthogonal_random, agree, _ = _sampled_counts(triad, rng, args.samples, False)
    closed_orth, _, _, max_residual_orth = _sampled_counts(triad, rng, n_orth, True)
    rows = [
        ["random_samples", str(args.samples)],
        ["random_closed", str(closed_random)],
        ["random_orthogonal", str(orthogonal_random)],
        ["orthogonal_samples", str(n_orth)],
        ["orthogonal_closed", str(closed_orth)],
        ["orthogonal_max_residual", f"{max_residual_orth:.3e}"],
        ["closure_iff_orthogonal", "true" if agree and closed_orth == n_orth else "false"],
    ]
    _emit(["quantity", "value"], rows, args.csv)
    return 0


def _time_grid(args) -> np.ndarray:
    """Output times 0, dt, 2 dt, ... up to --t (us), validated before allocation."""
    if not (0 <= args.t < math.inf and 0 < args.dt < math.inf):  # NaN fails too
        raise ValueError(f"need finite --t >= 0 and --dt > 0, got {args.t} and {args.dt}")
    if not args.t / args.dt < MAX_TABLE_ROWS:
        raise ValueError(f"--t / --dt asks for more than {MAX_TABLE_ROWS} time steps")
    # the last step not beyond --t; the slack keeps 0.3 / 0.1 = 2.9999999999999996 at 3
    steps = math.floor(args.t / args.dt * (1 + 1e-9))
    return np.arange(steps + 1) * args.dt


def cmd_simulate(args) -> int:
    times = _time_grid(args)
    pops = dynamics.loop_populations(_loop_spec(args), times, (1.0, 0.0, 0.0))
    leak = dynamics._leakage_rows(pops)
    _emit(["t_us", "P_a", "P_b", "P_c", "leakage"], np.column_stack((times, pops, leak)), args.csv,
          ["%.4f", "%.6f", "%.6f", "%.6f", "%.3e"])
    return 0


def cmd_contrast(args) -> int:
    times = _time_grid(args)
    spec = _loop_spec(args)
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
    except ValueError as exc:  # ParseError and RangeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    if code == EXIT_BROKEN_PIPE:  # what is still buffered goes to devnull, not to a failing flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
