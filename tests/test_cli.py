"""Command line behavior: config parsing, tables, CSV, exit codes."""

import contextlib
import csv
import errno
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop import cli, dynamics, loop
from chiraloop.cli import (
    MoleculeConfig,
    ParseError,
    bundled_molecules,
    load_molecule,
    parse_molecule_config,
    run,
)
from chiraloop.fields import linear_components
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("name demo\n", "line 1: expected 'key = value', got 'name demo'"),
        (GOOD_CONFIG.replace("A_MHz = 8572.05", "A_MHz =  # none"), "line 3: empty value for 'A_MHz'"),
    ],
    ids=["no-equals", "empty-value"],
)
def test_parse_malformed_line_names_it(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_molecule_config(text)
    assert str(excinfo.value) == message


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


def test_verify_small_leak_times_1e8_is_not_closed(capsys):
    """The drives of the verify_small_leak golden, whose largest residual is
    9.0e-10 MHz, times 1e8: they leak at this scale too."""
    fields = [
        ((1, 1.2728232239707524e-08, 0.8890122483827381),
         (0, 1.7688024063092044e-08, 1.6674408940429402),
         (-1, 5.185749510088329e-09, 2.523727209565692)),
        ((1, 6.7387708124941385e-09, 0.6749556019830414),
         (0, 4.968869351317691e-09, -1.4665665713443095),
         (-1, 3.952330882173437e-09, -0.25246503949351906)),
        ((1, 1.429953779947541e-08, -0.9348620760500412),
         (0, 1.6131856270493757e-08, 0.4059734343853938),
         (-1, 1.2430144163165125e-08, 1.6190026652218368)),
    ]
    argv = ["loops", "verify", "propanediol"] + [
        "--field=" + ",".join(f"{s}:{amp * 1e8!r}:{phase!r}" for s, amp, phase in drive)
        for drive in fields
    ]
    assert run(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-2:] == [["closed", "false"], ["failure", "not_closed"]]


@pytest.mark.parametrize("option", ["--amp=5,5,5", "--phase=1,2,3"])
def test_amp_or_phase_with_field_exits_2(option, capsys):
    """A --field gives each component its amplitude and phase; --amp or --phase
    next to it would be silently ignored, so it is an error."""
    fields = ["--field=1:1:0", "--field=-1:0.75:0", "--field=0:2.75:0"]
    assert run(["loops", "verify", "propanediol", *fields, option]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --field takes no --amp or --phase: each component gives its own\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["loops", "verify", "propanediol", "--pol", "ZXY", "--amp="],
         "--amp needs three comma-separated values, got ''"),
        (["loops", "verify", "propanediol", "--sigma", "1,-1,0", "--phase="],
         "--phase needs three comma-separated values, got ''"),
        (["simulate", "propanediol", "--config", "ZXY", "--t", "0", "--amp="],
         "--amp needs three comma-separated values, got ''"),
        (["loops", "verify", "propanediol", "--sigma=", "--pol=ZXY"],
         "specify the drives with exactly one of --pol, --sigma, --field"),
        (["loops", "verify", "propanediol", "--pol="], "--pol must be three of X, Y, Z, got ''"),
    ],
    ids=["verify-pol-amp", "verify-sigma-phase", "simulate-amp", "verify-empty-sigma-and-pol",
         "verify-empty-pol"],
)
def test_empty_amp_or_phase_exits_2(argv, message, capsys):
    """An empty --amp, --phase or drive option is a bad value, not an absent one."""
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["simulate", "contrast"])
@pytest.mark.parametrize(
    "config, message",
    [
        ("ZZ", "--config needs three comma-separated values, got 'ZZ'"),
        ("XYW", "--config needs three comma-separated values, got 'XYW'"),
        ("1,-1,x", "--config: could not parse '1,-1,x'"),
        ("2,0,0", "--config components must be -1, 0 or 1, got '2,0,0'"),
        ("", "--config needs three comma-separated values, got ''"),
    ],
    ids=["two-letters", "not-an-axis", "not-an-integer", "not-a-sigma", "empty"],
)
def test_config_errors_name_config(command, config, message, capsys):
    """A --config that is not three of X, Y, Z is read as sigmas, and its errors
    name --config, the option these commands take."""
    assert run([command, "propanediol", f"--config={config}", "--t", "0"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63), samples=st.integers(0, 40), which=st.sampled_from("abc"))
def test_loops_sample_counts_each_frame_as_one_spec_judges_it(seed, samples, which):
    """loops sample's table is that of its frames, re-drawn here from the seed (the random
    family, then the orthogonal one) and each judged alone by verify_linear_orthogonality."""
    rng = np.random.default_rng(seed)
    n_orth = max(1, samples // 10)
    random_frames = rng.normal(size=(samples, 3, 3))
    orthogonal_frames = np.linalg.qr(rng.normal(size=(n_orth, 3, 3)))[0].transpose(0, 2, 1)
    triad = cli._triad(load_molecule("propanediol"), which)
    closed = [loop.verify_linear_orthogonality(*frame, triad)[0] for frame in random_frames]
    at_right_angles = [max(abs(u @ v) / math.sqrt((u @ u) * (v @ v))
                           for u, v in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2]))) < 1e-8
                       for f in random_frames]
    orthogonal = [loop.verify_linear_orthogonality(*frame, triad) for frame in orthogonal_frames]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["loops", "sample", "propanediol", f"--triad={which}",
                    f"--samples={samples}", f"--seed={seed}"])
    assert code == 0
    assert dict(line.split() for line in out.getvalue().splitlines()[1:]) == {
        "random_samples": str(samples),
        "random_closed": str(sum(closed)),
        "random_orthogonal": str(sum(at_right_angles)),
        "orthogonal_samples": str(n_orth),
        "orthogonal_closed": str(sum(c for c, _ in orthogonal)),
        "orthogonal_max_residual": f"{max(r for _, r in orthogonal):.3e}",
        "closure_iff_orthogonal": "true" if closed == at_right_angles and all(c for c, _ in orthogonal)
                                  else "false",
    }


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Every `chiraloop ...` line of README's "Command line" block exits 0 with
    nothing on stderr."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("chiraloop ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)  # where a --csv example would write
    for argv in commands:
        assert run(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv


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


@pytest.mark.parametrize("t, dt, times", [
    ("1", "0.6", ["0.0000", "0.6000"]),  # t / dt = 1.67: no row beyond --t
    ("0.3", "0.1", ["0.0000", "0.1000", "0.2000", "0.3000"]),  # t / dt = 2.9999999999999996
])
def test_time_grid_ends_at_the_last_step_not_beyond_t(t, dt, times, capsys):
    assert run(["simulate", "propanediol", "--config", "ZXY", "--t", t, "--dt", dt]) == 0
    assert [row.split()[0] for row in capsys.readouterr().out.splitlines()[1:]] == times


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

    monkeypatch.setattr(cli, "_levels", no_levels)
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


def test_degenerate_triad_gives_one_warning_line(tmp_path, capsys):
    # A = B: the two lowest J = 1 levels are degenerate
    path = tmp_path / "oblate.mol"
    path.write_text(GOOD_CONFIG.replace("8572.05", "5000").replace("3640.10", "5000")
                    .replace("2790.96", "3000"))
    warning = ("warning: degenerate levels in the J = 1 blocks; "
               "their tau order is not physically defined")
    for _ in range(2):  # the levels are built once; every command prints their warning
        assert run(["transitions", str(path)]) == 0
        assert capsys.readouterr().err.splitlines() == [warning]
        # its exit code is left open: triad a's spectator level 1_0 lies at f_ba
        run(["loops", "verify", str(path), "--triad", "a", "--pol", "ZXY"])
        assert capsys.readouterr().err.splitlines()[0] == warning


def test_errors_keep_their_order_around_the_warning(tmp_path, capsys):
    """The drives are read before the triad name, and the triad's warning is
    written before the drives' values are checked."""
    path = tmp_path / "oblate.mol"
    path.write_text(GOOD_CONFIG.replace("8572.05", "5000").replace("3640.10", "5000")
                    .replace("2790.96", "3000"))
    assert run(["loops", "verify", str(path), "--triad", "x", "--sigma", "1,-1,2"]) == 2
    assert capsys.readouterr() == ("", "error: --sigma components must be -1, 0 or 1, got '1,-1,2'\n")
    assert run(["loops", "verify", str(path), "--triad", "a", "--sigma", "1,-1,0",
                "--amp", "inf,1,1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: degenerate levels in the J = 1 blocks; their tau order is not physically defined",
        "error: drive 1: sigma=1: amplitude and phase must be finite",
    ]


@pytest.mark.parametrize("bad", ["inf amplitude", "nan phase"])
@pytest.mark.parametrize(
    "command, drive, error",
    [
        ("loops verify", "--pol=ZXY", "drive 1: amplitude must be finite and >= 0, phase finite"),
        ("loops verify", "--sigma=1,-1,0", "drive 1: sigma=1: amplitude and phase must be finite"),
        ("loops verify", "--field", "drive 1: sigma=1: amplitude and phase must be finite"),
        ("simulate", "--config=ZXY", "drive 1: amplitude must be finite and >= 0, phase finite"),
        ("simulate", "--config=1,-1,0", "drive 1: sigma=1: amplitude and phase must be finite"),
        ("contrast", "--config=ZXY", "drive 1: amplitude must be finite and >= 0, phase finite"),
        ("contrast", "--config=1,-1,0", "drive 1: sigma=1: amplitude and phase must be finite"),
    ],
    ids=["pol", "sigma", "field", "simulate-axes", "simulate-sigmas", "contrast-axes",
         "contrast-sigmas"],
)
def test_every_drive_option_reads_its_values_after_the_triad(tmp_path, capsys, command, drive,
                                                            error, bad):
    """On the A = B top, a non-finite drive value is read after the triad under every
    drive option: triad a gives the warning and then the value's error, an unknown
    triad only its name's error, and triad b the warning and then the triad's refusal."""
    path = tmp_path / "oblate.mol"
    path.write_text(GOOD_CONFIG.replace("8572.05", "5000").replace("3640.10", "5000")
                    .replace("2790.96", "3000"))
    if drive == "--field":
        drives = ["--field=1:inf:0" if bad == "inf amplitude" else "--field=1:1:nan",
                  "--field=-1:1:0", "--field=0:1:0"]
    else:
        drives = [drive, "--amp=inf,1,1" if bad == "inf amplitude" else "--phase=nan,0,0"]
    warning = ("warning: degenerate levels in the J = 1 blocks; "
               "their tau order is not physically defined\n")
    for triad, err in [("a", f"{warning}error: {error}\n"),
                       ("x", "error: triad must be one of a, b, c; got 'x'\n"),
                       ("b", f"{warning}error: upper level at 8000.0 MHz is not above lower "
                             "at 8000.0 MHz\n")]:
        assert run([*command.split(), str(path), "--triad", triad, *drives]) == 2
        assert capsys.readouterr() == ("", err)


def test_field_sigma_outside_the_three_is_refused_naming_the_option(tmp_path, capsys):
    """A --field sigma is checked with the component's form, before the triad, so the
    A = B top gives the same one line as propanediol, and no warning."""
    path = tmp_path / "oblate.mol"
    path.write_text(GOOD_CONFIG.replace("8572.05", "5000").replace("3640.10", "5000")
                    .replace("2790.96", "3000"))
    for molecule in ("propanediol", str(path)):
        assert run(["loops", "verify", molecule, "--field=2:1:0", "--field=-1:1:0",
                    "--field=0:1:0"]) == 2
        assert capsys.readouterr() == ("", "error: --field component '2:1:0': sigma must be -1, 0 or 1\n")
        assert run(["loops", "verify", molecule, "--field=1:1:0", "--field=-1:1:0,-2:1:0",
                    "--field=0:1:0"]) == 2
        assert capsys.readouterr() == ("", "error: --field component '-2:1:0': sigma must be -1, 0 or 1\n")


def _captured(argv: list[str]) -> tuple[int, str, str]:
    """run(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    triad=st.sampled_from("abc"),
    axes=st.text("XYZ", min_size=3, max_size=3),
    amps=st.lists(st.one_of(st.sampled_from([2.0**-500, 2.0**500]), st.floats(2.0**-500, 2.0**500)),
                  min_size=3, max_size=3),
    phases=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
)
def test_pol_and_its_field_spelling_give_one_spec(triad, axes, amps, phases):
    """--pol P --amp A --phase F and the same drives as three --field options, each
    component's amplitude and phase spelled by repr from linear_components, print the
    same bytes: the two spellings build one spec."""
    verify = ["loops", "verify", "propanediol", f"--triad={triad}"]
    fields = [",".join(f"{s}:{a!r}:{p!r}" for s, (a, p) in
                       linear_components(cli._AXES[axis], amp, phase).items())
              for axis, amp, phase in zip(axes, amps, phases)]
    linear = _captured([*verify, f"--pol={axes}", f"--amp={','.join(map(repr, amps))}",
                        f"--phase={','.join(map(repr, phases))}"])
    assert _captured([*verify, *(f"--field={f}" for f in fields)]) == linear


def test_degenerate_triad_gives_one_error_text(tmp_path, capsys):
    """On A = B the two lowest J = 1 levels coincide, so triad b has no
    b -> c line: the line table and the verdict refuse it with one message."""
    path = tmp_path / "oblate.mol"
    path.write_text(GOOD_CONFIG.replace("8572.05", "5000").replace("3640.10", "5000")
                    .replace("2790.96", "3000"))
    assert run(["transitions", str(path), "--triad", "b"]) == 2
    table = capsys.readouterr()
    assert run(["loops", "verify", str(path), "--triad", "b", "--sigma", "1,-1,0"]) == 2
    verdict = capsys.readouterr()
    assert table.err.splitlines()[-1] == (
        "error: upper level at 8000.0 MHz is not above lower at 8000.0 MHz"
    )
    assert verdict.err == table.err
    assert table.out == verdict.out == ""


def test_rewritten_molecule_file_is_read_again(tmp_path, capsys):
    path = tmp_path / "demo.mol"
    texts = [GOOD_CONFIG, GOOD_CONFIG.replace("8572.05", "9000")]
    outputs = []
    for text in texts:
        path.write_text(text)
        assert run(["transitions", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    cli._molecule_triads.cache_clear()
    assert run(["transitions", str(path)]) == 0
    assert capsys.readouterr().out == outputs[1] != outputs[0]


def test_a_bundled_molecule_is_parsed_once_among_molecule_files(tmp_path, monkeypatch):
    """propanediol, 20 molecule files and propanediol again: propanediol is parsed
    once, each file once, the data directory is listed once, and the one memo, the
    bundled catalog, holds the bundled names and no file path."""
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_molecule_config(text)

    monkeypatch.setattr(cli, "parse_molecule_config", counting)
    cli.bundled_molecules.cache_clear()
    paths = []
    for i in range(20):
        paths.append(tmp_path / f"demo{i}.mol")
        paths[-1].write_text(GOOD_CONFIG.replace("name = demo", f"name = demo{i}"))
    first = load_molecule("propanediol")
    assert [load_molecule(str(path)).name for path in paths] == [f"demo{i}" for i in range(20)]
    assert load_molecule("propanediol") is first
    assert len(parsed) == 21
    info = cli.bundled_molecules.cache_info()
    assert (info.hits, info.misses, info.currsize) == (21, 1, 1)
    assert not {str(path) for path in paths} & set(bundled_molecules())


def test_repeated_verdicts_build_the_levels_once(monkeypatch, capsys):
    """100 loops verify runs on one molecule, then loops enumerate and loops
    sample on each triad, build its J = 0 and J = 1 blocks once (two
    rotor_levels calls, not two per run) and each triad's Triad once (nine
    reduced elements, not three per command)."""
    calls = {"levels": 0, "elements": 0}

    def counting(key, function):
        def counted(*args):
            calls[key] += 1
            return function(*args)
        return counted

    monkeypatch.setattr(cli, "_levels", counting("levels", cli._levels))
    monkeypatch.setattr(loop, "reduced_matrix_element",
                        counting("elements", loop.reduced_matrix_element))
    cli._molecule_triads.cache_clear()
    for triad in "abc" * 33 + "a":
        assert run(["loops", "verify", "propanediol", f"--triad={triad}", "--pol=ZXY"]) == 0
    for triad in "abc":
        assert run(["loops", "enumerate", "propanediol", f"--triad={triad}"]) == 0
        assert run(["loops", "sample", "propanediol", f"--triad={triad}", "--samples=10"]) == 0
    assert calls["levels"] <= 2
    assert calls["elements"] == 9
    assert capsys.readouterr().err == ""


def test_rewritten_dipole_gives_its_new_rabi_frequencies(tmp_path, capsys):
    """A file whose dipole lines alone change between two runs is a new
    molecule value, so the second run judges the new dipole."""
    path = tmp_path / "demo.mol"
    argv = ["loops", "verify", str(path), "--pol", "ZXY"]
    outputs = []
    for text in (GOOD_CONFIG, GOOD_CONFIG.replace("mu_x_D = 1.916", "mu_x_D = 3.832")
                 .replace("mu_y_D = 0.365", "mu_y_D = 0.73").replace("mu_z_D = 1.201", "mu_z_D = 2.402")):
        path.write_text(text)
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    cli._molecule_triads.cache_clear()
    assert run(argv) == 0
    assert capsys.readouterr().out == outputs[1]
    omegas = [[line for line in out.splitlines() if line.lstrip().startswith("|Omega")]
              for out in outputs]
    assert len(omegas[0]) == 3 and omegas[0] != omegas[1]


def test_signed_zero_dipoles_share_a_memo_entry(tmp_path, capsys):
    """mu_y = 0.0 and -0.0 are one MoleculeConfig value, so the second file
    of a process is handed the first file's triads: each file's output is
    the one it gives on its own, in either order, as their reduced
    elements are bit-equal."""
    paths = []
    for text in ("0.0", "-0.0"):
        paths.append(tmp_path / f"mu_y_{text}.mol")
        paths[-1].write_text(GOOD_CONFIG.replace("mu_y_D = 0.365", f"mu_y_D = {text}"))
    configs = [load_molecule(str(path)) for path in paths]
    assert configs[0] == configs[1] and math.copysign(1.0, configs[1].mu_y) == -1.0
    for which in "abc":
        triads = [loop.Triad(*cli._triad_levels(c, which), c.dipole()) for c in configs]
        bits = [[(g.real.hex(), g.imag.hex()) for g in (t.gamma_ba, t.gamma_cb, t.gamma_ca)]
                for t in triads]
        assert bits[0] == bits[1]

    def outputs(path):
        commands = [["loops", "verify", str(path), "--pol", "ZXY"], ["loops", "enumerate", str(path)],
                    ["contrast", str(path), "--config", "ZXY", "--t", "0.1", "--dt", "0.05"]]
        return [(run(argv), capsys.readouterr()) for argv in commands]

    alone = []
    for path in paths:
        cli._molecule_triads.cache_clear()
        alone.append(outputs(path))
    for order in ((0, 1), (1, 0)):
        cli._molecule_triads.cache_clear()
        for i in order:
            assert outputs(paths[i]) == alone[i]
    assert all(code == 0 and err == "" for code, (_, err) in alone[0] + alone[1])


# A = B: the two lowest J = 1 levels tie, and the J > 1 blocks hold ties too;
# triad b's levels coincide, so it is refused
OBLATE = MoleculeConfig("oblate", 5000.0, 5000.0, 3000.0, 1.916, 0.365, 1.201)


def _in_threads(target, count):
    """target's results from count threads released at once, switching often."""
    barrier, results = threading.Barrier(count), []

    def run_target():
        barrier.wait(timeout=10)
        results.append(target())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run_target) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(results) == count
    return results


def test_level_blocks_in_threads_give_the_single_thread_line():
    """4 threads that each build the A = B top's J = 0..5 blocks 100 times
    read the warning line one thread alone reads on every call, and none
    raises: no thread's degeneracy reaches another's line or escapes as a
    warning."""
    constants = OBLATE.constants()
    line = cli._level_blocks(constants, range(6))[1]
    assert line == ("warning: degenerate levels in the J = 1, 2, 3, 4, 5 blocks; "
                    "their tau order is not physically defined\n")
    lines = _in_threads(lambda: [cli._level_blocks(constants, range(6))[1] for _ in range(100)], 4)
    assert lines == [[line] * 100] * 4


def test_concurrent_first_builds_give_equal_triads():
    """Threads that all miss the memo at once build equal Triads, or meet one
    refusal, and store the warning line one thread alone gives; once the race
    is over, every command is handed the Triad that was stored.  The A = B
    top races 50 times over, as a lost warning line shows in few rounds."""
    def values(t):
        return t.gamma_ba, t.gamma_cb, t.gamma_ca, t.f_ba, t.f_cb, t.f_ca

    def build(config, which):
        try:
            return cli._triad(config, which)
        except ValueError as exc:
            return type(exc), str(exc)

    for config, rounds, warned in ((load_molecule("propanediol"), 1, False), (OBLATE, 50, True)):
        line = cli._level_blocks(config.constants(), (0, 1))[1]
        assert bool(line) == warned
        for _ in range(rounds):
            cli._molecule_triads.cache_clear()
            results = _in_threads(lambda: [(which, build(config, which)) for which in "abc"], 8)
            assert cli._molecule_triads(config).warning == line
            for which, triad in (pair for result in results for pair in result):
                stored = build(config, which)
                if isinstance(triad, tuple):  # a refusal
                    assert triad == stored
                    continue
                assert values(triad) == values(stored)
                assert cli._triad(config, which) is stored


def test_zero_duration_gives_one_row(capsys):
    assert run(["simulate", "propanediol", "--config", "1,-1,0", "--t", "0"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2  # header + t = 0


def test_negative_samples_exit_2(capsys):
    assert run(["loops", "sample", "propanediol", "--samples", "-5"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_negative_seed_exits_2(capsys):
    assert run(["loops", "sample", "propanediol", "--seed=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("component", ["x:1:0", "1:x:0", "1:1:x"])
def test_unparsable_field_component_names_it(component, capsys):
    fields = [f"--field={component}", "--field=0:1:0", "--field=1:1:0"]
    assert run(["loops", "verify", "propanediol", *fields]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --field: could not parse component '{component}'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["loops", "verify", "propanediol", "--pol", "ZXY", "--amp", "-1,1,1"],
         "--amp values must be >= 0, got '-1,1,1'"),
        (["loops", "verify", "propanediol", "--sigma", "1,-1,0", "--amp", "1,-0.5,1"],
         "--amp values must be >= 0, got '1,-0.5,1'"),
        (["contrast", "propanediol", "--config", "ZXY", "--amp", "1,1,-inf", "--t", "0.1"],
         "--amp values must be >= 0, got '1,1,-inf'"),
        (["simulate", "propanediol", "--config", "1,-1,0", "--amp", "-1,1,1", "--t", "0.1"],
         "--amp values must be >= 0, got '-1,1,1'"),
        (["loops", "verify", "propanediol", "--field=1:-1:0", "--field=-1:1:0", "--field=0:1:0"],
         "--field component '1:-1:0': amplitude must be >= 0"),
    ],
    ids=["pol", "sigma", "config-axes", "config-sigmas", "field"],
)
def test_negative_amplitude_is_refused_naming_its_option(argv, message, capsys):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_negative_zero_amplitude_passes_the_sign_check(capsys):
    """-0.0 is not negative: beside another component it is an absent one, and alone
    it is a drive of zero amplitude."""
    fields = ["--field=1:-0.0:0,0:1:0", "--field=-1:1:0", "--field=0:1:0"]
    assert run(["loops", "verify", "propanediol", *fields]) == 0
    assert capsys.readouterr().err == ""
    assert run(["loops", "verify", "propanediol", "--sigma", "1,-1,0", "--amp", "-0.0,1,1"]) == 2
    assert capsys.readouterr().err == "error: drive 1: drive field needs at least one nonzero amplitude\n"


@pytest.mark.parametrize(
    "drives, message",
    [
        (["--pol", "ZXY", "--amp", "1,inf,1"], "drive 2: amplitude must be finite and >= 0, phase finite"),
        (["--pol", "ZXY", "--phase", "0,0,nan"], "drive 3: amplitude must be finite and >= 0, phase finite"),
        (["--sigma", "1,-1,0", "--amp", "1,0,1"], "drive 2: drive field needs at least one nonzero amplitude"),
        (["--sigma", "1,-1,0", "--amp", "1,1,inf"], "drive 3: sigma=0: amplitude and phase must be finite"),
        (["--field=1:1:0", "--field=-1:1:nan", "--field=0:1:0"],
         "drive 2: sigma=-1: amplitude and phase must be finite"),
        (["--sigma", "1,-1,0", "--amp", "1,1,1e-170"],
         "drive 3: drive amplitudes underflow: the total amplitude of a drive is 0"),
        (["--pol", "ZXY", "--amp", "1,1e-170,1"],
         "drive 2: drive amplitudes underflow: the total amplitude of a drive is 0"),
    ],
    ids=["pol-inf", "pol-nan", "sigma-zero", "sigma-inf", "field-nan", "sigma-underflow",
         "pol-underflow"],
)
def test_a_drive_value_error_names_its_drive(drives, message, capsys):
    """A drive value the library refuses after the triad is reported with the number of
    its drive, 1 to 3 as field1 to field3, before the library's own words."""
    assert run(["loops", "verify", "propanediol", *drives]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_internal_error_exits_1_with_one_line(monkeypatch, capsys):
    """An exception that is not a ValueError is a fault of the program: exit 1, one line."""
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_levels", broken)
    assert run(["levels", "propanediol"]) == 1
    assert capsys.readouterr() == ("", "internal error: RuntimeError: boom\n")


@pytest.mark.parametrize(
    "argv, option, value, code",
    [
        (["loops", "verify", "propanediol"], "--sigma", "-1,1,0", 0),
        (["simulate", "propanediol", "--t", "0.1", "--dt", "0.05"], "--config", "-1,0,-1", 0),
        (["loops", "verify", "propanediol", "--pol", "ZXY"], "--phase", "-.5,0,1", 0),
        (["loops", "verify", "propanediol", "--field", "0:1:0", "--field", "1:1:0"],
         "--field", "-1:1:0", 0),
        # reaches the amplitude check, not the option parser
        (["loops", "verify", "propanediol", "--pol", "ZXY"], "--amp", "-1,0.75,2.75", 2),
        # an option prefix that the parser expands
        (["loops", "verify", "propanediol"], "--sig", "-1,1,0", 0),
        # "-" and a letter: reach the CLI's sign check and DriveField's finiteness check
        (["loops", "verify", "propanediol", "--pol", "ZXY"], "--amp", "-inf,1,1", 2),
        (["loops", "verify", "propanediol", "--sigma", "1,-1,0"], "--amp", "-nan,1,1", 2),
    ],
    ids=["sigma", "config", "phase", "field", "amp", "prefix", "inf", "nan"],
)
def test_value_starting_with_minus_works_without_equals(argv, option, value, code, capsys):
    assert run([*argv, f"{option}={value}"]) == code
    joined = capsys.readouterr()
    assert run([*argv, option, value]) == code
    assert capsys.readouterr() == joined
    assert "expected one argument" not in joined.err


# ---------------------------------------------------------------------------
# option grammar

@pytest.mark.parametrize(
    "argv, message",
    [
        (["loops", "verify", "propanediol", "--p", "ZXY"], "ambiguous option '--p'"),
        (["simulate", "propanediol", "--c", "ZXY"], "ambiguous option '--c'"),
        (["levels", "propanediol", "--jmax"], "--jmax needs a value"),
        (["transitions", "propanediol", "--triad", "d"], "triad must be one of a, b, c; got 'd'"),
        (["loops", "verify", "propanediol", "--pol", "ZXY", "--amp", "1,x,2"],
         "--amp: could not parse '1,x,2'"),
        (["loops", "verify", "propanediol", "--field", "1:2", "--field", "0:1:0", "--field", "1:1:0"],
         "--field component must be sigma:amp:phase, got '1:2'"),
        (["loops", "verify", "propanediol", "--field=1:1:0", "--field=0:1:0"],
         "--field must be given exactly three times"),
        (["loops", "verify", "propanediol", *["--field=1:1:0"] * 4],
         "--field must be given exactly three times"),
        (["loops", "verify", "propanediol", "demo.mol", "--pol", "ZXY"],
         "loops verify takes one MOLECULE, got 2: ['propanediol', 'demo.mol']"),
    ],
    ids=["pol-or-phase", "csv-or-config", "no-value", "triad", "amp-not-a-number",
         "field-two-parts", "field-twice", "field-four-times", "two-molecules"],
)
def test_bad_option_word_gives_one_error_line(argv, message, capsys):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_exact_option_name_beats_a_longer_one(capsys):
    """--t is --t, not a prefix of --triad."""
    assert run(["simulate", "propanediol", "--config", "ZXY", "--t", "0.04", "--dt", "0.02"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["0.0000", "0.0200", "0.0400"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_every_option_of_the_command(command, capsys):
    assert run([*command.split(), "-h"]) == 0
    out = capsys.readouterr().out
    for name, *_ in (cli._CSV, *cli._COMMANDS[command][1]):
        assert f"\n  --{name} " in out
    assert run([*command.split(), "propanediol", "--help"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv, prefix", [(["-h"], ""), (["--help"], ""), (["loops", "-h"], "loops")])
def test_help_without_a_command_lists_the_commands(argv, prefix, capsys):
    assert run(argv) == 0
    out = capsys.readouterr().out
    listed = [command for command in cli._COMMANDS if f"\n{command}: " in out]
    assert listed == [command for command in cli._COMMANDS if command.startswith(prefix)]


def test_run_calls_the_handler_the_module_holds(monkeypatch, capsys):
    """A cmd_ function rebound after import (as a tracer does) is the one run() calls."""
    calls = []
    monkeypatch.setattr(cli, "cmd_loops_verify", lambda args: calls.append(args.sigma) or 0)
    assert run(["loops", "verify", "propanediol", "--sigma", "-1,1,0"]) == 0
    assert calls == ["-1,1,0"]


# values of the fuzz set that every option and molecule-file key must survive, then good ones
ARGV_VALUES = [
    "nan", "-inf", "1e400", "", "1e-320", "0x10", "\u0663", "-1,1,0", "-1", "x", "-h",
    "0", "1", "0.05", "c", "ZXY", "XYX", "1,-1,0", "-1:1:0", "0:1:0,1:0.5:1", "1,0.75,2.75",
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_or_2(data):
    """Fail closed over the grammar of every command: both option forms, exact names,
    unique and ambiguous prefixes, an option with no value, bad or good values, and a
    molecule file with one key spoiled.  No value draws a grid of more than 150 rows.
    An error names only options of the command, but where it echoes an unknown or
    ambiguous option word."""
    command = data.draw(st.sampled_from(list(cli._COMMANDS)))
    options = [name for name, *_ in (cli._CSV, *cli._COMMANDS[command][1])]
    names = options + ["help"]
    keys = sorted({name[:i] for name in names for i in range(len(name) + 1)}) + ["nope"]
    molecule = st.one_of(st.just("propanediol"), st.sampled_from(["demo.mol", "", "-1,1,0"]))
    argv = [*command.split(), data.draw(molecule)]
    for _ in range(data.draw(st.integers(0, 5))):
        key, value = data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(ARGV_VALUES))
        argv += [f"--{key}={value}"] if data.draw(st.booleans()) else [f"--{key}", value]
    if data.draw(st.booleans()):
        argv.append(f"--{data.draw(st.sampled_from(keys))}")
    spoiled, bad = data.draw(st.sampled_from(cli._KEYS)), data.draw(st.sampled_from(ARGV_VALUES))
    config = "".join(f"{spoiled} = {bad}\n" if line.startswith(f"{spoiled} ") else line + "\n"
                     for line in GOOD_CONFIG.splitlines())
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:  # where demo.mol and any --csv file go
        os.chdir(tmp)
        try:
            Path("demo.mol").write_text(config)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 2), (argv, spoiled, bad, lines)
    assert all(line.startswith(("warning: ", "error: ")) for line in lines), (argv, lines)
    errors = [line for line in lines if line.startswith("error: ")]
    assert errors == (lines[-1:] if code == 2 else []), (argv, lines)
    named = {name for line in errors if not line.startswith(("error: unknown option",
                                                              "error: ambiguous option"))
             for name in re.findall(r"--([a-z]+)", line)}
    assert named <= set(options), (argv, lines)


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


@pytest.mark.parametrize("command", ["simulate", "contrast"])
def test_overflowing_phase_exits_2(command, capsys):
    """Drives of 1e150 V/cm over 1e300 us: the phase 2 pi E t overflows, so no NaN
    row is printed and no numpy warning reaches stderr."""
    argv = [command, "propanediol", "--config", "ZXY", "--amp", "1e150,1e150,1e150",
            "--t", "1e300", "--dt", "2e299"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: phase 2 pi E t overflows: max |E| 3.243e+149 MHz, max |t| 1.000e+300 us\n"
    )


@pytest.mark.parametrize(
    "name", [pytest.param("missing/x.csv", id="missing_dir"), pytest.param("", id="empty")]
)
def test_unwritable_csv_path_exits_2(tmp_path, capsys, name):
    path = str(tmp_path / name) if name else ""
    assert run(["transitions", "propanediol", "--csv", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(path) in captured.err
    assert f"cannot write --csv {path!r}: No such file or directory" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_undecodable_molecule_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.mol"
    path.write_bytes(b"name = \xff\n")
    assert run(["transitions", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: cannot read molecule file {str(path)!r}: "
        "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"
    ))


def test_undecodable_molecule_file_after_byte_order_mark_gives_file_offset(tmp_path, capsys):
    """The codec's position counts the mark's three bytes: 0xff is at offset 10."""
    path = tmp_path / "bombad.mol"
    path.write_bytes(b"\xef\xbb\xbfname = \xff\n")
    assert run(["transitions", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        f"error: cannot read molecule file {str(path)!r}: "
        "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n"
    ))


def test_molecule_file_with_byte_order_mark_reads_as_without(tmp_path, capsys):
    """A UTF-8 byte-order mark, as some editors write it, is dropped, not read as part of a key."""
    outputs = []
    for name, data in (("plain.mol", b""), ("bom.mol", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(data + GOOD_CONFIG.encode())
        assert run(["transitions", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


# A = B + 2 C: on triad a, f_ba = f_cb = 3 MHz
AMBIGUOUS_CONFIG = "name = amb\nA_MHz = 4\nB_MHz = 2\nC_MHz = 1\nmu_x_D = 1\nmu_y_D = 0.5\nmu_z_D = 0.7\n"


def test_ambiguous_triad_is_refused_by_every_judging_command(tmp_path, capsys):
    path = str(tmp_path / "amb.mol")
    Path(path).write_text(AMBIGUOUS_CONFIG)
    refused = [
        ["loops", "verify", path, "--sigma", "1,-1,0"],
        ["loops", "enumerate", path],
        ["loops", "sample", path, "--samples", "10"],
        ["simulate", path, "--config", "1,-1,0", "--t", "1", "--dt", "0.1"],
        ["contrast", path, "--config", "1,-1,0", "--t", "1", "--dt", "0.1"],
    ]
    for argv in refused:
        assert run([*argv, "--triad", "a"]) == 2
        assert capsys.readouterr() == ("", (
            "error: transitions f_ba = 3.0 MHz and f_cb = 3.0 MHz are closer than 0.002 MHz, "
            "so one drive can be resonant with both\n"
        ))
    for argv in (["transitions", path, "--triad", "a"], [*refused[0], "--triad", "b"]):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out and err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("jmax", ["0", "8"])  # 0's CSV fails at the close, 8's (26 kB) at a write
def test_csv_write_failure_exits_2(capsys, jmax):
    assert run(["levels", "propanediol", "--jmax", jmax, "--csv", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("J  tau")
    assert captured.err == "error: cannot write --csv '/dev/full': No space left on device\n"


def test_parser_is_built_once_and_keeps_no_state(capsys):
    fields = ["--field=1:1:0", "--field=-1:0.75:0", "--field=0:2.75:0"]
    argv = ["loops", "verify", "propanediol", *fields]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(["loops", "verify", "propanediol", "--field=1:1:0", "--no-such-flag"]) == 2
    capsys.readouterr()
    assert run(argv) == 0  # the --field list of the failed parse is not carried over
    assert capsys.readouterr().out == first


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


def _verify_rows(argv: list[str]) -> dict[str, str]:
    """The quantity -> value rows `loops verify` prints for argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["loops", "verify", "propanediol", *argv]) == 0
    return dict(line.split() for line in out.getvalue().strip().splitlines()[1:])


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(-500, 500),
    drives=st.sampled_from([["--sigma=1,-1,0"], ["--sigma=0,1,1"], ["--pol=ZXY"], ["--pol=YZX"]]),
    phases=st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3),
)
def test_loop_phase_does_not_depend_on_the_drive_scale(k, drives, phases):
    """All three amplitudes 2**k scale each Omega by 2**k exactly: the loop phase
    printed is the one at amplitude 1, though the unscaled product overflows for k
    above about 340 and underflows for k below about -350."""
    phase = "--phase=" + ",".join(map(repr, phases))
    unit = _verify_rows([*drives, "--amp=1,1,1", phase])
    amp = "--amp=" + ",".join([repr(2.0**k)] * 3)
    scaled = _verify_rows([*drives, amp, phase])
    assert scaled["loop_phase_rad"] == unit["loop_phase_rad"]
    spec = cli._loop_spec(cli._parse(["loops", "verify", "propanediol", *drives, amp, phase])[1])
    h = loop.SingleLoopHamiltonian(*loop.loop_diagnostics(spec).omegas)
    assert f"{loop.loop_phase(h):.4f}" == scaled["loop_phase_rad"]


def test_verify_at_amplitude_2_to_400_prints_the_unit_loop_phase(capsys):
    """The whole table at amplitudes 2**400 V/cm, where each |Omega| is near 1e120 MHz
    and their product would overflow: the loop phase is the one at 1 V/cm."""
    amp = repr(2.0**400)
    argv = ["loops", "verify", "propanediol", "--sigma", "1,-1,0", "--amp", f"{amp},{amp},{amp}",
            "--phase", "0.3,0.2,0.1"]
    assert run(argv) == 0
    rows = [
        ("quantity", "value"),
        *((name, "0.000e+00") for name in
          ("|<c'|H|b>|", "|<c''|H|b>|", "|<c|H|b'>|", "|<c|H|b''>|", "residual_max_MHz")),
        ("|Omega1|_MHz", "9013714317366687716476449457717553294985910468059604874076460259370611119084"
                         "08389146525498654633262052075764055770398720.0000"),
        ("|Omega2|_MHz", "1245337076916014543331804896504004932391691298954304412259842296307633447819"
                         "583034709104913204316219747720143657295151104.0000"),
        ("|Omega3|_MHz", "2739388614353739257654836468813054947909565850945626268767385413973498717377"
                         "60906249948048020827149467862568168373354496.0000"),
        ("ratio", "1.00:1.38:0.30"),
        ("loop_phase_rad", "1.9708"),  # an overflowing product reads 2.3562, a multiple of pi/4
        ("closed", "true"),
    ]
    width = max(len(value) for _, value in rows)
    assert capsys.readouterr().out == "".join(f"{q:>16}  {v:>{width}}\n" for q, v in rows)


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
# closed or full stdout

class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141_in_process(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(["levels", "propanediol", "--jmax", "3"]) == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_with_csv_exits_141(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(["levels", "propanediol", "--jmax", "3", "--csv", str(tmp_path / "x.csv")]) == 141
    assert capsys.readouterr().err == ""


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


class _FullOnFlush(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("stdout", [_FullDisk, _FullOnFlush])
@pytest.mark.parametrize(
    "argv",
    [
        ["levels", "propanediol", "--jmax", "0"],
        ["loops", "verify", "propanediol", "--help"],
        ["contrast", "propanediol", "--config", "ZXY", "--t", "0.1"],
    ],
    ids=["levels", "help", "contrast"],
)
def test_full_stdout_exits_2_in_process(argv, stdout, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", stdout())
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


def test_molecule_read_error_is_not_a_stdout_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "demo.mol"
    path.write_text(GOOD_CONFIG)

    def unreadable(self, *args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(Path, "read_text", unreadable)
    assert run(["transitions", str(path)]) in (1, 2)
    err = capsys.readouterr().err
    assert "Input/output error" in err and "stdout" not in err


@pytest.mark.parametrize(
    "error", [OSError(errno.EIO, "Input/output error"), PermissionError(errno.EACCES, "Permission denied")],
    ids=["EIO", "EACCES"],
)
def test_unreadable_molecule_file_exits_2(tmp_path, capsys, monkeypatch, error):
    path = tmp_path / "demo.mol"
    path.write_text(GOOD_CONFIG)

    def unreadable(self, *args, **kwargs):
        raise error

    monkeypatch.setattr(Path, "read_text", unreadable)
    assert run(["transitions", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read molecule file {str(path)!r}: {error.strerror}\n")


def test_overlong_molecule_name_exits_2(capsys):
    assert run(["transitions", "x" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read molecule file 'xxx") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["levels", "propanediol", "--jmax", "0"],  # fails at the flush after the table
        ["simulate", "propanediol", "--config", "ZXY", "--t", "2", "--dt", "0.002"],  # at a write
    ],
    ids=["flush", "write"],
)
def test_full_stdout_exits_2(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "chiraloop.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=_module_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write stdout: No space left on device\n"


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


def _group_table():
    """Six %.6f columns of six widths and a %.3e column, with the cells the shared
    speller leaves to each column's table spread over their rows and columns."""
    rows = np.random.default_rng(25).uniform(-1, 1, (12, 7)) * 10.0 ** np.array([0, 2, 4, 6, 8, 10, 0])
    tie = 0.0078125  # 7812.5 millionths, exactly
    specials = [math.nan, math.inf, -math.inf, 1e300, 2**51 / 10**6, tie,
                math.nextafter(tie, math.inf), math.nextafter(tie, -math.inf), -0.0, -4.9e-7]
    for k, x in enumerate(specials):
        rows[k + 1, k % 6] = x
    rows[[3, 5, 8, 10], 6] = [math.nan, -math.inf, -0.0, 1e300]
    return rows, ["%.6f"] * 6 + ["%.3e"]


@pytest.mark.parametrize("block_rows", [3, 7])
@pytest.mark.parametrize("rows_taken", [slice(0, 0), slice(4, 5), slice(None)], ids=["0", "1", "12"])
def test_emit_group_matches_per_cell_formatting(block_rows, rows_taken):
    """Columns that share one `%.Nf` conversion are spelled together, yet every cell,
    width and CSV field comes out as per-cell `%` formatting gives it."""
    rows, formats = _group_table()
    rows = rows[rows_taken]
    headers = [f"c{i}" for i in range(len(formats))]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dynamics, "EVOLVE_BLOCK_ROWS", block_rows):
        path = Path(tmp) / "table.csv"
        with contextlib.redirect_stdout(out):
            cli._emit(headers, rows, str(path), formats)
        written = path.read_bytes().decode()
    cells = [[f % x for f, x in zip(formats, row)] for row in rows.tolist()]
    if len(cells) == 12:
        assert len({max(len(row[i]) for row in cells) for i in range(6)}) == 6  # six widths
    assert (out.getvalue(), written) == _reference_table(headers, cells)


def test_one_spell_per_conversion_per_block(tmp_path, monkeypatch):
    """A contrast-shaped table is spelled with one `_spell` call per `%.Nf` conversion
    per block: its %.4f column alone, and its seven %.6f columns together."""
    calls, spell = [], cli._spell

    def counted(columns, x):
        calls.append((columns[0].n, x.shape))
        return spell(columns, x)

    monkeypatch.setattr(cli, "_spell", counted)
    rows = np.random.default_rng(0).random((4097, 8))
    with contextlib.redirect_stdout(io.StringIO()):
        cli._emit([f"c{i}" for i in range(8)], rows, str(tmp_path / "t.csv"), ["%.4f"] + ["%.6f"] * 7)
    step = dynamics.EVOLVE_BLOCK_ROWS
    blocks = [min(step, 4097 - start) for start in range(0, 4097, step)]
    assert len(calls) <= 2 * len(blocks)
    assert calls == [call for r in blocks for call in ((4, (r, 1)), (6, (r, 7)))]


def test_quad_table_spells_every_four_digit_group():
    """Entry i of the digit table is the four characters of f"{i:04d}", entry 10**4 + i
    those of f"{i:4d}", and the last entry four blanks, each as one little-endian uint32."""
    texts = [f"{i:04d}" for i in range(10**4)] + [f"{i:4d}" for i in range(10**4)] + ["    "]
    oracle = [int.from_bytes(text.encode(), "little") for text in texts]
    table = cli._quad_table()
    assert table.dtype == np.uint32 and table.shape == (20_001,)
    assert table.tolist() == oracle


def test_cli_import_loads_no_rational_types():
    """The 3j symbols are integer sums: importing the CLI loads neither
    fractions nor decimal (a few ms of every command's start-up)."""
    script = (
        "import sys\n"
        "import chiraloop.cli\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_module_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_no_argparse():
    """The CLI reads its option table itself; argparse and its gettext cost ~3 ms to import."""
    script = "import sys\nimport chiraloop.cli\nprint('argparse' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_module_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
