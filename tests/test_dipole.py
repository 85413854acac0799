"""Spherical components, reduced matrix elements, and the Rabi convention
of the coupling blocks."""

import cmath
import gzip
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop import dipole as dipole_module
from chiraloop.dipole import (
    DEBYE_VCM_TO_MHZ,
    BodyDipole,
    enantiomer,
    reduced_matrix_element,
    spherical_components,
)
from chiraloop.dynamics import assemble_full_hamiltonian, coupling_block
from chiraloop.fields import DriveField
from chiraloop.loop import Triad
from chiraloop.rotor import DegenerateLevelsWarning, RotationalConstants, rotor_levels

from conftest import PROPANEDIOL, PROPANEDIOL_DIPOLE, random_loop_spec, reference_reduced_element

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)
ROOT6 = math.sqrt(6.0)

component = st.floats(min_value=0.05, max_value=5.0)

# A generic asymmetric top with all three dipole components nonzero.
FIXED_TOP = RotationalConstants(A=9000.0, B=4000.0, C=2500.0)
FIXED_TOP_DIPOLE = BodyDipole(mu_x=1.2, mu_y=-0.7, mu_z=2.1)

REDUCED_GOLDEN = Path(__file__).parent / "golden" / "reduced_j8.txt.gz"


def test_calibration_constant():
    # 1 Debye * 1 V/cm / h, in MHz
    assert DEBYE_VCM_TO_MHZ == pytest.approx(
        3.33564e-30 * 100.0 / 6.62607015e-34 / 1e6, rel=1e-15
    )
    assert DEBYE_VCM_TO_MHZ == pytest.approx(0.503412, abs=1e-6)


# ---------------------------------------------------------------------------
# spherical components and the mirror operation

def test_spherical_components_z_dipole():
    assert spherical_components(BodyDipole(0, 0, 1)) == (0j, 1 + 0j, 0j)


def test_spherical_components_x_dipole():
    minus, zero, plus = spherical_components(BodyDipole(1, 0, 0))
    assert minus == pytest.approx(-1 / ROOT2)
    assert zero == 0
    assert plus == pytest.approx(1 / ROOT2)


def test_spherical_components_propanediol():
    minus, zero, plus = spherical_components(PROPANEDIOL_DIPOLE)
    assert plus == pytest.approx((1.916 + 0.365j) / ROOT2)
    assert minus == pytest.approx(-(1.916 - 0.365j) / ROOT2)
    assert zero == 1.201


def test_enantiomer_definition():
    assert enantiomer(BodyDipole(1.916, 0.365, 1.201)) == BodyDipole(1.916, 0.365, -1.201)


def test_enantiomer_involution():
    d = BodyDipole(0.3, -1.2, 2.5)
    assert enantiomer(enantiomer(d)) == d


@settings(max_examples=60, deadline=None)
@given(x=component, y=component, z=component)
def test_enantiomer_flips_chirality_product(x, y, z):
    d = BodyDipole(x, y, z)
    assert enantiomer(d).chirality_product == -d.chirality_product


# ---------------------------------------------------------------------------
# reduced matrix elements on the worked-example triad

def test_reduced_elements_propanediol(triad_a, dipole):
    a, b, c = triad_a
    g_ba = reduced_matrix_element(b, a, dipole).value
    g_cb = reduced_matrix_element(c, b, dipole).value
    g_ca = reduced_matrix_element(c, a, dipole).value
    assert abs(g_ba) == pytest.approx(1.201, abs=1e-9)
    assert abs(g_cb) == pytest.approx(ROOT6 * 1.916 / 2.0, abs=1e-9)
    assert abs(g_ca) == pytest.approx(0.365, abs=1e-9)
    # the quoted transition-dipole magnitudes
    assert abs(g_ba) / ROOT3 == pytest.approx(0.693, abs=1e-3)
    assert abs(g_cb) / ROOT6 == pytest.approx(0.958, abs=1e-3)
    assert abs(g_ca) / ROOT3 == pytest.approx(0.211, abs=1e-3)


def test_reduced_element_tags(triad_a, dipole):
    a, b, c = triad_a
    element = reduced_matrix_element(c, a, dipole)
    assert element.upper == (1, 1)
    assert element.lower == (0, 0)


def test_reduced_element_delta_j_two_is_exact_zero(constants, dipole):
    ground = rotor_levels(constants, 0)[0]
    j2 = rotor_levels(constants, 2)[0]
    assert reduced_matrix_element(j2, ground, dipole).value == 0j


@settings(max_examples=40, deadline=None)
@given(
    triple=st.tuples(
        st.floats(min_value=1.0, max_value=9000.0),
        st.floats(min_value=1.0, max_value=9000.0),
        st.floats(min_value=1.0, max_value=9000.0),
    ).map(sorted),
    x=component,
    y=component,
    z=component,
)
def test_single_component_proportionality_any_constants(triple, x, y, z):
    """Each loop leg's |Gamma| tracks exactly one dipole component, for any
    asymmetric top, on all three (J,tau) triad choices."""
    c0, b0, a0 = triple
    constants = RotationalConstants(A=2 * a0 + 2, B=b0 + 1, C=c0)
    d = BodyDipole(x, y, z)
    ground = rotor_levels(constants, 0)[0]
    j1 = {level.tau: level for level in rotor_levels(constants, 1)}

    # triad (a): |0,0> -> |1,-1> -> |1,1>
    assert abs(reduced_matrix_element(j1[-1], ground, d).value) == pytest.approx(z, rel=1e-12)
    assert abs(reduced_matrix_element(j1[1], j1[-1], d).value) == pytest.approx(
        ROOT6 * x / 2, rel=1e-12
    )
    assert abs(reduced_matrix_element(j1[1], ground, d).value) == pytest.approx(y, rel=1e-12)
    # triad (b): |0,0> -> |1,-1> -> |1,0>
    assert abs(reduced_matrix_element(j1[0], j1[-1], d).value) == pytest.approx(
        ROOT6 * y / 2, rel=1e-12
    )
    assert abs(reduced_matrix_element(j1[0], ground, d).value) == pytest.approx(x, rel=1e-12)
    # triad (c): |0,0> -> |1,0> -> |1,1>
    assert abs(reduced_matrix_element(j1[1], j1[0], d).value) == pytest.approx(
        ROOT6 * z / 2, rel=1e-12
    )


@pytest.mark.parametrize("tau_b,tau_c", [(-1, 1), (-1, 0), (0, 1)])
def test_gamma_product_flips_exactly_with_enantiomer(constants, dipole, tau_b, tau_c):
    ground = rotor_levels(constants, 0)[0]
    j1 = {level.tau: level for level in rotor_levels(constants, 1)}
    b, c = j1[tau_b], j1[tau_c]

    def product(d):
        return (
            reduced_matrix_element(b, ground, d).value
            * reduced_matrix_element(c, b, d).value
            * reduced_matrix_element(c, ground, d).value
        )

    assert product(enantiomer(dipole)) == -product(dipole)


def test_two_sign_flips_leave_magnitudes_and_product(triad_a, dipole):
    """Flipping any two component signs is an axis relabeling: every |Gamma|
    and the Gamma product are untouched."""
    a, b, c = triad_a
    pairs = [
        BodyDipole(-dipole.mu_x, -dipole.mu_y, dipole.mu_z),
        BodyDipole(-dipole.mu_x, dipole.mu_y, -dipole.mu_z),
        BodyDipole(dipole.mu_x, -dipole.mu_y, -dipole.mu_z),
    ]
    legs = [(b, a), (c, b), (c, a)]
    base = [reduced_matrix_element(u, l, dipole).value for u, l in legs]
    base_product = base[0] * base[1] * base[2]
    for flipped in pairs:
        values = [reduced_matrix_element(u, l, flipped).value for u, l in legs]
        for v, w in zip(values, base):
            assert abs(v) == abs(w)
        assert values[0] * values[1] * values[2] == base_product


def reduced_element_lines(jmax=8):
    """One line per ordered level pair with |Delta J| <= 1 up to jmax, on
    propanediol and the fixed top: the molecule, (J, tau) of the upper and
    the lower level, then float.hex of the real and imaginary parts."""
    lines = []
    for name, constants, d in (
        ("propanediol", PROPANEDIOL, PROPANEDIOL_DIPOLE),
        ("fixed_top", FIXED_TOP, FIXED_TOP_DIPOLE),
    ):
        levels = [rotor_levels(constants, J) for J in range(jmax + 1)]
        for J_u in range(jmax + 1):
            for J_l in range(max(J_u - 1, 0), min(J_u + 1, jmax) + 1):
                for up in levels[J_u]:
                    for low in levels[J_l]:
                        value = reduced_matrix_element(up, low, d).value
                        lines.append(
                            f"{name} {J_u} {up.tau} {J_l} {low.tau} "
                            f"{value.real.hex()} {value.imag.hex()}"
                        )
    return lines


def test_reduced_elements_match_golden_bit_for_bit():
    """Every Delta J <= 1 element up to J = 8 keeps its bits; the golden was
    written by the per-K loop over w_coupling that the coupling-term table
    replaced.  Never regenerate it to make this test pass."""
    expected = gzip.decompress(REDUCED_GOLDEN.read_bytes()).decode().splitlines()
    actual = reduced_element_lines()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


def _bits(z):
    return z.real.hex(), z.imag.hex()


dipole_component = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(min_value=-5.0, max_value=5.0)
)


@settings(max_examples=40, deadline=None)
@given(
    abc=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=3, max_size=3).map(
        lambda v: sorted(v, reverse=True)
    ),
    mu=st.tuples(dipole_component, dipole_component, dipole_component),
    J_l=st.integers(min_value=0, max_value=6),
    delta=st.integers(min_value=-2, max_value=2),
)
def test_reduced_element_equals_per_k_reference_bit_for_bit(abc, mu, J_l, delta):
    """Any A >= B >= C and any dipole, zero components included: every element
    between two J <= 6 blocks with |Delta J| <= 1 has the per-K route's bits,
    and |Delta J| = 2 gives an exact 0j."""
    J_u = J_l + delta
    if not 0 <= J_u <= 6:
        J_u = J_l - delta
    constants = RotationalConstants(*abc)
    d = BodyDipole(*mu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLevelsWarning)
        uppers, lowers = rotor_levels(constants, J_u), rotor_levels(constants, J_l)
    for up in uppers:
        for low in lowers:
            value = reduced_matrix_element(up, low, d).value
            if abs(delta) == 2:
                assert _bits(value) == _bits(0j)
            else:
                assert _bits(value) == _bits(reference_reduced_element(up, low, d))


def test_line_list_tabulates_each_coupling_term_once(monkeypatch):
    """A J <= 12 line list (every Delta J <= 1 pair, upper block J or J + 1,
    as bench/workloads.line_list builds it) evaluates each coupling
    coefficient once per J pair: under 5,000 w_coupling calls where the
    per-K route made 224,507, and at most 3 tables per J."""
    calls = 0
    w_coupling = dipole_module.w_coupling

    def counting(*args):
        nonlocal calls
        calls += 1
        return w_coupling(*args)

    monkeypatch.setattr(dipole_module, "w_coupling", counting)
    dipole_module._coupling_terms.cache_clear()
    jtop = 12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLevelsWarning)
        levels = [rotor_levels(FIXED_TOP, J) for J in range(jtop + 1)]
    lines = 0
    for J in range(jtop + 1):
        for i, low in enumerate(levels[J]):
            for up in levels[J][i:] + (levels[J + 1] if J < jtop else []):
                reduced_matrix_element(up, low, FIXED_TOP_DIPOLE)
                lines += 1
    assert lines == 4135
    assert 0 < calls <= 5000
    assert dipole_module._coupling_terms.cache_info().currsize <= 3 * (jtop + 1)


# ---------------------------------------------------------------------------
# symmetric-top elements: the no-go the asymmetric mixing evades

def symtop_j01(mu_z):
    """The J = 0 level and the J = 1 levels by K = 0, then the Wang pair of
    K = +-1, of a prolate symmetric top (B = C), and a dipole along its axis."""
    top = RotationalConstants(A=9000.0, B=3000.0, C=3000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLevelsWarning)  # the K = +-1 pair
        ground, (k0, *k1) = rotor_levels(top, 0)[0], rotor_levels(top, 1)
    return ground, k0, k1, BodyDipole(0.0, 0.0, mu_z)


def test_symtop_z_dipole_allowed_transition():
    ground, k0, _, d = symtop_j01(2.0)
    from chiraloop.wigner import w_coupling

    value = reduced_matrix_element(k0, ground, d).value
    assert value == pytest.approx(ROOT3 * 2.0 * w_coupling(1, 0, 0, 0, 0), abs=1e-14)
    assert abs(value) == pytest.approx(2.0, abs=1e-14)


def test_symtop_z_dipole_k_changing_transition_is_zero():
    ground, _, k1, d = symtop_j01(2.0)
    assert [reduced_matrix_element(level, ground, d).value for level in k1] == [0j, 0j]


def test_symtop_single_component_blocks_every_cyclic_triad():
    """With only mu_z, every cyclic triad of the J = 0 level and two J = 1
    levels of a symmetric top has a vanishing leg, so no loop forms."""
    ground, k0, k1, d = symtop_j01(1.0)
    for b, c in ((k0, k1[0]), (k0, k1[1]), (k1[0], k1[1])):
        legs = ((b, ground), (c, b), (c, ground))
        product = math.prod(reduced_matrix_element(u, l, d).value for u, l in legs)
        assert product == 0j


# ---------------------------------------------------------------------------
# the Rabi convention, read from coupling-block entries: 2 <b,M|H|a> is
# Omega(M <- 0) of a sigma = M drive up from the J=0 ground state

def rabi_up(triad_a, dipole, sigma, amplitude=1.0, phase=0.0):
    """Omega(b, M <- a) for M = +1, 0, -1 of a pure sigma drive, from coupling_block."""
    a, b, _ = triad_a
    field = DriveField.pure(sigma, amplitude, b.freq - a.freq, phase)
    return 2.0 * coupling_block(b, a, field, dipole)[:, 0]


def test_rabi_magnitude_example(triad_a, dipole):
    omega = rabi_up(triad_a, dipole, 1)[0]
    assert abs(omega) == pytest.approx(1.201 / ROOT3 * DEBYE_VCM_TO_MHZ, abs=1e-12)
    assert abs(omega) == pytest.approx(0.349, abs=1e-3)


def test_rabi_selection_rule_exact_zero(triad_a, dipole):
    assert rabi_up(triad_a, dipole, 0)[0] == 0j  # M = +1 from a sigma = 0 drive
    assert rabi_up(triad_a, dipole, -1)[1] == 0j  # M = 0 from a sigma = -1 drive


def test_rabi_m0_to_m0_between_j1_levels_is_exact_zero(triad_a, dipole):
    a, b, c = triad_a
    block = coupling_block(c, b, DriveField.pure(0, 1.0, c.freq - b.freq), dipole)
    assert block[1, 1] == 0j


def test_rabi_phase_factor(triad_a, dipole):
    base = rabi_up(triad_a, dipole, 1)[0]
    rotated = rabi_up(triad_a, dipole, 1, phase=0.7)[0]
    assert rotated == pytest.approx(base * cmath.exp(0.7j), rel=1e-12)


def test_rabi_all_sigma_components_give_minus_gamma_over_root3(triad_a, dipole):
    """Driving up from the J=0 ground state, every polarization component
    couples with the same strength -Gamma E / sqrt(3) (into its own M)."""
    a, b, c = triad_a
    gamma = reduced_matrix_element(b, a, dipole).value
    for sigma in (-1, 0, 1):
        omega = rabi_up(triad_a, dipole, sigma)[1 - sigma]
        assert omega == pytest.approx(-gamma * DEBYE_VCM_TO_MHZ / ROOT3, rel=1e-12)


def test_rabi_negative_amplitude_rejected(triad_a, dipole):
    """A DriveField folds a negative amplitude into its phase; the stacked
    verdict, whose amplitudes enter the Rabi convention as given, rejects it."""
    amps = np.ones((1, 3, 3))
    amps[0, 0, 0] = -1.0
    with pytest.raises(ValueError, match=">= 0"):
        Triad(*triad_a, dipole).diagnostics(amps, np.zeros((1, 3, 3)))


@pytest.mark.parametrize(
    "amplitude,phase",
    [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)],
)
def test_rabi_non_finite_amplitude_or_phase_rejected(triad_a, dipole, amplitude, phase):
    """No coupling block sees a non-finite component: its DriveField refuses it."""
    with pytest.raises(ValueError, match="finite"):
        rabi_up(triad_a, dipole, 1, amplitude, phase)


def test_rabi_precomputed_gamma_matches(triad_a, dipole):
    """The full Hamiltonian's legs, built with the reduced elements of
    spec.triad, equal coupling_block's, which computes them, exactly."""
    spec = random_loop_spec(np.random.default_rng(6), triad_a, dipole)
    a, b, c = triad_a
    h = assemble_full_hamiltonian(spec)
    for rows, cols, (upper, lower, field) in (
        (slice(1, 4), slice(0, 1), (b, a, spec.field1)),
        (slice(4, 7), slice(1, 4), (c, b, spec.field2)),
        (slice(4, 7), slice(0, 1), (c, a, spec.field3)),
    ):
        assert np.array_equal(h[rows, cols], coupling_block(upper, lower, field, dipole))


@pytest.mark.parametrize(
    "components", [(math.nan, 0.3, 1.2), (1.9, math.inf, 1.2), (1.9, 0.3, -math.inf)]
)
def test_non_finite_dipole_rejected(components):
    with pytest.raises(ValueError):
        BodyDipole(*components)


# ---------------------------------------------------------------------------
# symmetry of the cyclic triads

@pytest.mark.parametrize("taus", [(-1, 1), (-1, 0), (0, 1)], ids=["a", "b", "c"])
def test_triad_legs_use_three_different_dipole_components(taus, ground, j1_levels):
    # A single-loop Delta configuration needs one a-, one b- and one c-type line.
    a, b, c = ground, j1_levels[taus[0]], j1_levels[taus[1]]
    units = {
        "x": BodyDipole(1.0, 0.0, 0.0),
        "y": BodyDipole(0.0, 1.0, 0.0),
        "z": BodyDipole(0.0, 0.0, 1.0),
    }
    used = []
    for upper, lower in ((b, a), (c, b), (c, a)):
        nonzero = [
            axis for axis, unit in units.items()
            if abs(reduced_matrix_element(upper, lower, unit).value) > 1e-12
        ]
        assert len(nonzero) == 1
        used.extend(nonzero)
    assert sorted(used) == ["x", "y", "z"]
