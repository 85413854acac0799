"""Command line behavior: config parsing, tables, CSV, exit codes."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop import cli, dynamics
from chiraloop.cli import (
    MoleculeConfig,
    ParseError,
    bundled_molecules,
    load_molecule,
    parse_molecule_config,
    run,
)
from chiraloop.rotor import RangeError

GOOD_CONFIG = """\
# test molecule
name = demo
A_MHz = 8572.05
B_MHz = 3640.10
C_MHz = 2790.96
mu_x_D = 1.916
mu_y_D = 0.365
mu_z_D = 1.201
"""


# ---------------------------------------------------------------------------
# molecule config parsing

def test_parse_good_config():
    config = parse_molecule_config(GOOD_CONFIG)
    assert config == MoleculeConfig(
        name="demo", A=8572.05, B=3640.10, C=2790.96, mu_x=1.916, mu_y=0.365, mu_z=1.201
    )


def test_parse_bundled_propanediol():
    config = load_molecule("propanediol")
    assert (config.A, config.B, config.C) == (8572.05, 3640.10, 2790.96)
    assert (config.mu_x, config.mu_y, config.mu_z) == (1.916, 0.365, 1.201)
    assert "propanediol" in bundled_molecules()


def test_parse_missing_key_names_it():
    broken = GOOD_CONFIG.replace("C_MHz = 2790.96\n", "")
    with pytest.raises(ParseError, match="C_MHz"):
        parse_molecule_config(broken)


def test_parse_unknown_key_rejected_with_line():
    with pytest.raises(ParseError, match="line 2.*D_MHz"):
        parse_molecule_config("name = x\nD_MHz = 1\n")


def test_parse_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_molecule_config(GOOD_CONFIG + "A_MHz = 1.0\n")


def test_parse_bad_number():
    with pytest.raises(ParseError, match="A_MHz"):
        parse_molecule_config(GOOD_CONFIG.replace("8572.05", "zelve"))


def test_parse_constants_out_of_order_is_range_error():
    swapped = GOOD_CONFIG.replace("B_MHz = 3640.10", "B_MHz = 2000.0")
    with pytest.raises(RangeError):
        parse_molecule_config(swapped)


def test_load_molecule_from_path(tmp_path):
    path = tmp_path / "demo.mol"
    path.write_text(GOOD_CONFIG)
    assert load_molecule(str(path)).name == "demo"


def test_load_unknown_molecule():
    with pytest.raises(ParseError, match="unknown molecule"):
        load_molecule("unobtainium")


# ---------------------------------------------------------------------------
# subcommands

def test_transitions_table(capsys):
    assert run(["transitions", "propanediol"]) == 0
    out = capsys.readouterr().out
    assert "6431.06" in out
    assert "5781.09" in out
    assert "12212.15" in out


def test_transitions_triad_b(capsys):
    assert run(["transitions", "propanediol", "--triad", "b"]) == 0
    out = capsys.readouterr().out
    assert "6431.06" in out
    assert "4931.95" in out  # A - B
    assert "11363.01" in out  # A + C


def test_levels_table(capsys):
    assert run(["levels", "propanediol", "--jmax", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.00" in out
    assert "6431.06" in out
    assert "11363.01" in out
    assert "12212.15" in out
    assert "0.707107" in out


def test_levels_golden_stability(capsys):
    run(["levels", "propanediol", "--jmax", "2"])
    first = capsys.readouterr().out
    run(["levels", "propanediol", "--jmax", "2"])
    second = capsys.readouterr().out
    assert first == second


def test_enumerate_reproduces_table(capsys):
    assert run(["loops", "enumerate", "propanediol"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 28  # header + 27 candidates
    closed = [line for line in lines[1:] if "true" in line]
    assert len(closed) == 6
    head = [line.split()[:6] for line in lines[1:7]]
    assert head == [
        ["1", "-1", "0", "1", "0", "true"],
        ["-1", "1", "0", "-1", "0", "true"],
        ["0", "1", "1", "0", "1", "true"],
        ["0", "-1", "-1", "0", "-1", "true"],
        ["-1", "0", "-1", "-1", "-1", "true"],
        ["1", "0", "1", "1", "1", "true"],
    ]


def test_enumerate_csv_matches_table(tmp_path, capsys):
    csv_path = tmp_path / "loops.csv"
    run(["loops", "enumerate", "propanediol", "--csv", str(csv_path)])
    table_lines = capsys.readouterr().out.strip().splitlines()
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "sigma1", "sigma2", "sigma3", "Mb", "Mc", "closed", "|O1|", "|O2|", "|O3|", "residual_max",
    ]
    assert len(rows) == len(table_lines)
    for csv_row, table_line in zip(rows[1:], table_lines[1:]):
        assert csv_row == table_line.split()


def test_verify_rabi_ratio(capsys):
    assert run(
        ["loops", "verify", "propanediol", "--pol", "ZXY", "--amp", "1,0.75,2.75"]
    ) == 0
    out = capsys.readouterr().out
    assert "1.00:1.04:0.84" in out
    assert "true" in out


def test_verify_sigma_zzz_not_closed(capsys):
    assert run(["loops", "verify", "propanediol", "--sigma", "0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "zero_rabi" in out
    assert "false" in out


def test_verify_general_field_syntax(capsys):
    code = run(
        [
            "loops", "verify", "propanediol",
            "--field=1:1:0",
            "--field=-1:1:0",
            "--field=0:1:0",
        ]
    )
    assert code == 0
    assert "true" in capsys.readouterr().out


def test_simulate_closed_loop(tmp_path, capsys):
    csv_path = tmp_path / "dynamics.csv"
    code = run(
        [
            "simulate", "propanediol",
            "--config", "1,-1,0",
            "--t", "1.0", "--dt", "0.25",
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == ["t_us", "P_a", "P_b", "P_c", "leakage"]
    assert len(lines) == 6  # header + 5 steps
    assert lines[1].split()[1] == "1.000000"
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert [cell for row in rows[1:] for cell in row] == [
        cell for line in lines[1:] for cell in line.split()
    ]
    # leakage stays tiny for a closed configuration
    assert all(float(row[-1]) < 1e-10 for row in rows[1:])


def test_simulate_pol_config(capsys):
    assert run(["simulate", "propanediol", "--config", "ZXY", "--t", "0.5", "--dt", "0.25"]) == 0


def test_contrast_reports_max_difference(capsys):
    code = run(
        ["contrast", "propanediol", "--config", "1,-1,0", "--amp", "2,1,3",
         "--t", "1.0", "--dt", "0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "max |P_c_R - P_c_L|" in out
    assert "P_a_R" in out and "P_c_L" in out


def test_loops_sample_consistency(capsys):
    code = run(["loops", "sample", "propanediol", "--samples", "60", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "closure_iff_orthogonal" in out
    assert "true" in out


def test_loops_sample_seed_reproducible(capsys):
    run(["loops", "sample", "propanediol", "--samples", "40", "--seed", "3"])
    first = capsys.readouterr().out
    run(["loops", "sample", "propanediol", "--samples", "40", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_molecule_exits_2(capsys):
    assert run(["transitions", "unobtainium"]) == 2
    assert "unknown molecule" in capsys.readouterr().err


def test_bad_flag_exits_2():
    assert run(["transitions", "propanediol", "--nope"]) == 2


def test_missing_subcommand_exits_2():
    assert run([]) == 2


def test_conflicting_field_options_exit_2(capsys):
    code = run(
        ["loops", "verify", "propanediol", "--pol", "ZXY", "--sigma", "1,-1,0"]
    )
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_bad_pol_letters_exit_2(capsys):
    assert run(["loops", "verify", "propanediol", "--pol", "ZQX"]) == 2


def test_range_error_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.mol"
    path.write_text(GOOD_CONFIG.replace("B_MHz = 3640.10", "B_MHz = 2000.0"))
    assert run(["transitions", str(path)]) == 2


@pytest.mark.parametrize("command", ["simulate", "contrast"])
@pytest.mark.parametrize(
    "grid",
    [
        ["--dt", "0"],
        ["--dt", "-0.1"],
        ["--t", "-1"],
        ["--t", "1e12", "--dt", "1e-9"],
        ["--t", "1e300", "--dt", "1e-300"],
        ["--t", "nan"],
        ["--dt", "inf"],
    ],
)
def test_bad_time_grid_exits_2(command, grid, capsys):
    assert run([command, "propanediol", "--config", "1,-1,0", *grid]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--t" in captured.err
    assert captured.out == ""


def test_negative_jmax_exits_2(capsys):
    assert run(["levels", "propanediol", "--jmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--jmax" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("jmax", ["90", "1000000"])
def test_jmax_over_row_budget_exits_2_before_any_level(jmax, capsys, monkeypatch):
    """--jmax 89 is sum (2J+1)^2 = 971,970 rows, --jmax 90 is 1,004,731."""

    def no_levels(*args):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(cli, "rotor_levels", no_levels)
    assert run(["levels", "propanediol", "--jmax", jmax]) == 2
    captured = capsys.readouterr()
    assert "table rows" in captured.err
    assert captured.out == ""


def test_overflowing_rotational_constants_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.mol"
    path.write_text(
        GOOD_CONFIG.replace("A_MHz = 8572.05", "A_MHz = 1e308")
        .replace("B_MHz = 3640.10", "B_MHz = 1e307")
        .replace("C_MHz = 2790.96", "C_MHz = 1e306")
    )
    assert run(["levels", str(path), "--jmax", "2"]) == 2
    captured = capsys.readouterr()
    assert "J=2" in captured.err and "not finite" in captured.err
    assert captured.out == ""


def test_degenerate_blocks_give_one_warning_line(capsys):
    assert run(["levels", "propanediol", "--jmax", "20"]) == 0
    captured = capsys.readouterr()
    blocks = ", ".join(str(J) for J in range(9, 21))
    assert captured.err.splitlines() == [
        f"warning: degenerate levels in the J = {blocks} blocks; "
        "their tau order is not physically defined"
    ]
    assert len(captured.out.splitlines()) == 1 + sum((2 * J + 1) ** 2 for J in range(21))


def test_zero_duration_gives_one_row(capsys):
    assert run(["simulate", "propanediol", "--config", "1,-1,0", "--t", "0"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2  # header + t = 0


def test_negative_samples_exit_2(capsys):
    assert run(["loops", "sample", "propanediol", "--samples", "-5"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_non_finite_amplitude_exits_2(capsys):
    assert run(["loops", "verify", "propanediol", "--sigma", "1,-1,0", "--amp", "inf,1,1"]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "closed" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["loops", "verify", "propanediol", "--sigma", "1,-1,0", "--amp", "1e-320,1,1"],
        ["simulate", "propanediol", "--config", "ZXY", "--amp", "1e-170,1,1"],
    ],
)
def test_underflowing_amplitude_exits_2(argv, capsys):
    """The square of the first drive's amplitude underflows, so its total is 0."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "underflow" in captured.err
    assert captured.out == ""


def test_repeated_sigma_in_one_field_exits_2(capsys):
    fields = ["--field=1:1:0,1:2:0", "--field=-1:1:0", "--field=0:1:0"]
    assert run(["loops", "verify", "propanediol", *fields]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "sigma=1 more than once" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "contrast"])
@pytest.mark.parametrize("amp", ["1e308", "1e200"])
def test_non_finite_verdict_drives_exit_2(command, amp, capsys):
    """Drives that loops verify judges non_finite print no NaN (1e308) or
    meaningless (1e200) populations, and raise no numpy warning."""
    argv = [command, "propanediol", "--config", "ZXY", "--t", "0.01", "--dt", "0.005"]
    assert run([*argv, "--amp", ",".join([amp] * 3)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not finite" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_unwritable_csv_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    assert run(["transitions", "propanediol", "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(path) in captured.err
    assert len(captured.err.splitlines()) == 1


def test_parser_is_built_once_and_keeps_no_state(capsys):
    fields = ["--field=1:1:0", "--field=-1:0.75:0", "--field=0:2.75:0"]
    argv = ["loops", "verify", "propanediol", *fields]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(["loops", "verify", "propanediol", "--field=1:1:0", "--no-such-flag"]) == 2
    capsys.readouterr()
    assert run(argv) == 0  # the --field list of the failed parse is not carried over
    assert capsys.readouterr().out == first
    assert cli._parser() is cli._parser()


def test_non_finite_molecule_value_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.mol"
    path.write_text(GOOD_CONFIG.replace("mu_x_D = 1.916", "mu_x_D = nan"))
    with pytest.raises(ParseError, match="mu_x_D"):
        parse_molecule_config(path.read_text())
    assert run(["loops", "verify", str(path), "--sigma", "1,-1,0"]) == 2
    captured = capsys.readouterr()
    assert "mu_x_D" in captured.err
    assert "closed" not in captured.out


def test_overflowing_amplitude_is_not_closed(capsys):
    assert run(["loops", "verify", "propanediol", "--sigma", "1,-1,0", "--amp", "1e200,1,1"]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.strip().splitlines()[1:])
    assert rows["closed"] == "false"
    assert rows["failure"] == "non_finite"


def test_loop_phase_canonical(capsys):
    """The ZXY loop product is real and negative with a signed-zero
    imaginary part; its phase prints as +pi, never -pi."""
    assert run(["loops", "verify", "propanediol", "--pol", "ZXY"]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.strip().splitlines()[1:])
    assert rows["loop_phase_rad"] == "3.1416"


def _module_env() -> dict:
    import chiraloop

    src = str(Path(chiraloop.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_stderr_clean():
    env = _module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "chiraloop.cli", "transitions", "propanediol"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "12212.15" in proc.stdout


# ---------------------------------------------------------------------------
# closed stdout

class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141_in_process(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(["levels", "propanediol", "--jmax", "3"]) == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_141_without_traceback():
    """`chiraloop simulate ... | head -1`: the reader leaves after one line."""
    with subprocess.Popen(
        [sys.executable, "-m", "chiraloop.cli", "simulate", "propanediol", "--config", "ZXY",
         "--t", "20", "--dt", "0.002"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    ) as proc:
        assert proc.stdout.readline().split()[0] == b"t_us"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 141
    assert stderr == b""


# ---------------------------------------------------------------------------
# table emission

SPECIAL_VALUES = [
    0.0, -0.0, -1e-9, -4.9e-7, 5e-7, -5e-7, 9.9999996, -9.9999996, 9.9999995, 99.995, 0.99995,
    9.9995e99, 1e100, -1e100, 1e-100, -1e-100, 1e-300, 5e-324, 1.7e308, -1.7e308,
    math.nan, -math.nan, math.inf, -math.inf,
]

WIDTH_FORMATS = ["%.2f", "%.4f", "%.6f", "%.3e", "%d"]


def _brute_width(fmt, values):
    return max((len(fmt % x) for x in values), default=0)


@settings(max_examples=400, deadline=None)
@given(
    fmt=st.sampled_from(WIDTH_FORMATS),
    values=st.lists(st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats()), max_size=12),
)
def test_column_width_matches_brute_force(fmt, values):
    if fmt == "%d":  # %d has no text for a non-finite value
        values = [x for x in values if math.isfinite(x)]
    assert cli._Column(fmt, np.array(values, dtype=float)).width == _brute_width(fmt, values)


@pytest.mark.parametrize("fmt", WIDTH_FORMATS)
def test_column_width_edge_values(fmt):
    values = [x for x in SPECIAL_VALUES if fmt != "%d" or math.isfinite(x)]
    for column in [[], *([x] for x in values), values, [0.0, -0.0], [-0.0, -0.0]]:
        assert cli._Column(fmt, np.array(column, dtype=float)).width == _brute_width(fmt, column)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from('ab ,"\r\n|:'), max_size=8))
def test_csv_field_quotes_as_csv_writer(text):
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, "x"])
    assert cli._csv_field(text) + ",x\r\n" == buffer.getvalue()


def _reference_table(headers, cells):
    """The table and CSV text of right-justified per-cell strings, one row at a time."""
    widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(headers)]
    text = "".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n" for row in [headers, *cells])
    buffer = io.StringIO()
    csv.writer(buffer).writerows([headers, *cells])
    return text, buffer.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    formats=st.lists(st.sampled_from(WIDTH_FORMATS[:-1]), min_size=1, max_size=4),
    data=st.data(),
)
def test_emit_matches_per_cell_formatting(formats, data):
    """Tables longer than one block come out as per-cell formatting gives them."""
    n = data.draw(st.integers(0, 8))
    value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())
    rows = np.array(
        data.draw(st.lists(st.lists(value, min_size=len(formats), max_size=len(formats)),
                           min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, len(formats))
    headers = [f"c{i}" for i in range(len(formats))]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dynamics, "EVOLVE_BLOCK_ROWS", 3):
        path = Path(tmp) / "table.csv"
        with contextlib.redirect_stdout(out):
            cli._emit(headers, rows, str(path), formats)
        written = path.read_bytes().decode()
    cells = [[f % x for f, x in zip(formats, row)] for row in rows.tolist()]
    assert (out.getvalue(), written) == _reference_table(headers, cells)


def _near_ties(n):
    """Cells whose |x| 10**n lies on or next to a half-integer, or at 2**51 and 2**52."""
    ties = [0.0078125, 0.125, 2.5, 0.5 / 10**n, 2.5 / 10**n, 12345.5 / 10**n]
    ties += [2.0**51 / 10**n, 2.0**52 / 10**n]
    cells = []
    for x in ties:
        cells += [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
    return cells + [-x for x in cells]


@pytest.mark.parametrize("fmt", ["%.0f", "%.2f", "%.4f", "%.6f"])
def test_fixed_point_cells_match_percent_formatting(fmt):
    """Cells near a rounding tie, at the rounding guard's bounds, and at the
    edges of the float range come out as `fmt % x` gives them."""
    n = int(fmt[2:-1])
    values = _near_ties(n) + [
        5e-324, 0.0, -0.0, -1e-9, 1e300, -1e300, math.nan, math.inf, -math.inf,
        9.9999996, 10001.0, 1e8 + 0.25, 100000000.0, -123456789012.0, 1e15, 2.0**52,
    ]
    rows = np.array([values, values[::-1], [1.0] * len(values)], dtype=float).T
    headers = ["a", "b", "c"]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dynamics, "EVOLVE_BLOCK_ROWS", 7):
        path = Path(tmp) / "table.csv"
        with contextlib.redirect_stdout(out):
            cli._emit(headers, rows, str(path), [fmt] * 3)
        written = path.read_bytes().decode()
    cells = [[fmt % x for x in row] for row in rows.tolist()]
    assert max(len(c) for row in cells for c in row) > 300  # the 1e300 cell
    assert (out.getvalue(), written) == _reference_table(headers, cells)


def test_tables_do_not_import_numpy_ma(tmp_path):
    """numpy.ma costs 10-14 ms to import; no table needs it."""
    script = (
        "import sys\n"
        "from chiraloop import cli\n"
        "assert cli.run(['simulate', 'propanediol', '--config', 'ZXY', '--t', '0.1']) == 0\n"
        f"assert cli.run(['levels', 'propanediol', '--csv', {str(tmp_path / 'l.csv')!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_module_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_emit_string_table_quotes_csv(tmp_path, capsys):
    path = tmp_path / "t.csv"
    assert run(["transitions", "propanediol", "--csv", str(path)]) == 0
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "line,upper,lower,freq_MHz"
    assert lines[1].startswith('nu1,"(1,-1)","(0,0)",')
