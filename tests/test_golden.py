"""Byte-for-byte pins of the `simulate`, `contrast`, `levels` and `loops` tables and CSV files.

The `simulate` and `contrast` files under tests/golden/ were written by the
per-step propagation loops that `dynamics.evolve` replaced, the `levels`
files by the cyclic Jacobi solver that the Wang-block `eigh` replaced, and
the `loops` files by the per-builder spec construction and the two-pass
closure evaluation that `LoopSpec.resonant` and the single
`loop_diagnostics` pass replaced (`sample_large` and `sample_empty` by the
one-verdict-at-a-time sampling that `Triad.diagnostics` replaced, and
`levels_j8` and `simulate_one_row` by the row-at-a-time string emission
that the block writer `cli._emit` replaced), each from the argv in CASES.  A change to the propagator, the rotor solver, the
loop evaluation or the emission path must reproduce them exactly; never
regenerate them to make this test pass.  No case writes to stderr, so a
stray warning or diagnostic fails here too.
"""

import gzip
from itertools import zip_longest
from pathlib import Path

import pytest

from chiraloop.cli import run

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; a "--csv" entry is completed with a temporary path.
CASES = {
    # the two README examples
    "readme_simulate": [
        "simulate", "propanediol", "--config", "1,-1,0", "--amp", "3,2,4",
        "--t", "2", "--dt", "0.02",
    ],
    "readme_contrast": [
        "contrast", "propanediol", "--config", "1,-1,0", "--amp", "2.85,2.08,4.72",
        "--t", "2", "--dt", "0.1",
    ],
    # 50,001 rows, more than one evolution block; the leakage column
    # prints rounding-level values, so it pins the arithmetic bit for bit
    "long_simulate": [
        "simulate", "propanediol", "--config", "ZXY", "--amp", "1,0.75,2.75",
        "--t", "100", "--dt", "0.002",
    ],
    "contrast_csv": [
        "contrast", "propanediol", "--config", "ZXY", "--amp", "1,0.75,2.75",
        "--phase", "0.3,-1.2,2.0", "--t", "5", "--dt", "0.005", "--csv",
    ],
    # X, Y, X drives are not mutually orthogonal: order-one leakage
    "leaky_simulate": [
        "simulate", "propanediol", "--config", "XYX", "--t", "5", "--dt", "0.01", "--csv",
    ],
    # a one-row grid: every header is wider than its column's cell
    "simulate_one_row": [
        "simulate", "propanediol", "--config", "1,-1,0", "--t", "0", "--csv",
    ],
    # every level to J = 2 with its K expansion, zeros printed unsigned
    "levels": ["levels", "propanediol", "--jmax", "2", "--csv"],
    # 969 rows with coefficients of both signs and ulp-split doublets
    "levels_j8": ["levels", "propanediol", "--jmax", "8", "--csv"],
    # the 27-row pure-polarization table of each triad
    "enumerate_a": ["loops", "enumerate", "propanediol", "--triad", "a"],
    "enumerate_b": ["loops", "enumerate", "propanediol", "--triad", "b"],
    "enumerate_c": ["loops", "enumerate", "propanediol", "--triad", "c", "--csv"],
    "sample": ["loops", "sample", "propanediol", "--samples", "300", "--seed", "7"],
    # the benchmark's sample size, more than one evaluation chunk
    "sample_large": [
        "loops", "sample", "propanediol", "--triad", "c", "--samples", "1800", "--seed", "11",
    ],
    # no random sample at all, one orthogonal one
    "sample_empty": ["loops", "sample", "propanediol", "--samples", "0"],
    # one verdict per way of giving the drives, and one per failure kind
    "verify_pol": [
        "loops", "verify", "propanediol", "--triad", "b", "--pol", "ZXY",
        "--amp", "1,0.75,2.75", "--phase", "0.3,-2,1",
    ],
    "verify_not_closed": ["loops", "verify", "propanediol", "--triad", "b", "--pol", "XYX"],
    "verify_zero_rabi": ["loops", "verify", "propanediol", "--triad", "b", "--sigma", "0,0,0"],
    "verify_sigma": [
        "loops", "verify", "propanediol", "--triad", "b", "--sigma", "1,0,1",
        "--amp", "2,1,0.5", "--phase=-1,-2,-3",
    ],
    "verify_field": [
        "loops", "verify", "propanediol", "--triad", "b", "--field=1:1:0.2,0:0.5:-1",
        "--field=-1:1:0", "--field=0:2:1,1:1:-3",
    ],
    "verify_non_finite": [
        "loops", "verify", "propanediol", "--pol", "ZXY", "--amp", "1e200,1e200,1e200",
    ],
}


def golden_path(name: str, suffix: str) -> Path:
    """The golden file of a case; large ones are stored gzip-compressed."""
    plain = GOLDEN / f"{name}.{suffix}"
    return plain if plain.exists() else plain.with_name(plain.name + ".gz")


def read_golden(name: str, suffix: str) -> bytes:
    path = golden_path(name, suffix)
    data = path.read_bytes()
    return gzip.decompress(data) if path.suffix == ".gz" else data


def assert_same_bytes(actual: bytes, expected: bytes, what: str) -> None:
    """Exact comparison that names the first differing line and shows both."""
    if actual == expected:
        return
    pairs = zip_longest(actual.split(b"\n"), expected.split(b"\n"))
    for lineno, (got, want) in enumerate(pairs, start=1):
        if got != want:
            pytest.fail(
                f"{what} differs from its golden file at line {lineno}:\n"
                f"  got:      {got!r}\n  expected: {want!r}",
                pytrace=False,
            )


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsysbinary):
    argv = list(CASES[name])
    csv_path = tmp_path / "out.csv"
    if argv[-1] == "--csv":
        argv.append(str(csv_path))
    assert run(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b"", "a golden case writes nothing to stderr"
    assert_same_bytes(captured.out, read_golden(name, "out"), "stdout")
    if csv_path.exists():
        assert_same_bytes(csv_path.read_bytes(), read_golden(name, "csv"), "CSV")
