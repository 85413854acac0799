"""Command line behavior: config parsing, tables, CSV, exit codes."""

import contextlib
import csv
import errno
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
    "argv, option",
    [
        (["loops", "verify", "propanediol", "--pol", "ZXY"], "amp"),
        (["loops", "verify", "propanediol", "--sigma", "1,-1,0"], "phase"),
        (["simulate", "propanediol", "--config", "ZXY", "--t", "0"], "amp"),
    ],
    ids=["verify-pol-amp", "verify-sigma-phase", "simulate-amp"],
)
def test_empty_amp_or_phase_exits_2(argv, option, capsys):
    """An empty --amp or --phase is a bad value, not an absent one."""
    assert run([*argv, f"--{option}="]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --{option} needs three comma-separated values, got ''\n"
    assert captured.out == ""


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


def test_degenerate_triad_gives_one_warning_line(tmp_path, capsys):
    # A = B: the two lowest J = 1 levels are degenerate
    path = tmp_path / "oblate.mol"
    path.write_text(GOOD_CONFIG.replace("8572.05", "5000").replace("3640.10", "5000")
                    .replace("2790.96", "3000"))
    for _ in range(2):  # the levels are built once; every command prints their warning
        assert run(["transitions", str(path)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: degenerate levels in the J = 1 blocks; "
            "their tau order is not physically defined"
        ]


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
    cli._low_levels.cache_clear()
    assert run(["transitions", str(path)]) == 0
    assert capsys.readouterr().out == outputs[1] != outputs[0]


def test_repeated_verdicts_build_the_levels_once(monkeypatch, capsys):
    """100 loops verify runs on one molecule build its J = 0 and J = 1 blocks
    once: two rotor_levels calls, not two per run."""
    calls = 0
    rotor_levels = cli.rotor_levels

    def counting(*args):
        nonlocal calls
        calls += 1
        return rotor_levels(*args)

    monkeypatch.setattr(cli, "rotor_levels", counting)
    cli._low_levels.cache_clear()
    for triad in "abc" * 33 + "a":
        assert run(["loops", "verify", "propanediol", f"--triad={triad}", "--pol=ZXY"]) == 0
    assert calls <= 2
    assert capsys.readouterr().err == ""


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
        # "-" and a letter: reach the finiteness checks of linear_components and DriveField
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
    ],
    ids=["pol-or-phase", "csv-or-config", "no-value", "triad"],
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
    molecule file with one key spoiled.  No value draws a grid of more than 150 rows."""
    command = data.draw(st.sampled_from(list(cli._COMMANDS)))
    names = [name for name, *_ in (cli._CSV, *cli._COMMANDS[command][1])] + ["help"]
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
