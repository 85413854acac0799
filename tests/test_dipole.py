"""Spherical components, reduced matrix elements, and Rabi frequencies."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop.dipole import (
    DEBYE_VCM_TO_MHZ,
    BodyDipole,
    enantiomer,
    rabi_frequency,
    reduced_matrix_element,
    spherical_components,
    symtop_reduced_element,
)
from chiraloop.rotor import RotationalConstants, rotor_levels

from conftest import PROPANEDIOL_DIPOLE

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)
ROOT6 = math.sqrt(6.0)

component = st.floats(min_value=0.05, max_value=5.0)


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


# ---------------------------------------------------------------------------
# symmetric-top elements: the no-go the asymmetric mixing evades

def test_symtop_z_dipole_allowed_transition():
    d = BodyDipole(0.0, 0.0, 2.0)
    value = symtop_reduced_element(1, 0, 0, 0, d)
    from chiraloop.wigner import w_coupling

    assert value == pytest.approx(ROOT3 * 2.0 * w_coupling(1, 0, 0, 0, 0), abs=1e-14)
    assert abs(value) == pytest.approx(2.0, abs=1e-14)


def test_symtop_z_dipole_k_changing_transition_is_zero():
    d = BodyDipole(0.0, 0.0, 2.0)
    assert symtop_reduced_element(1, 1, 0, 0, d) == 0j


def test_symtop_single_component_blocks_every_cyclic_triad():
    """With only mu_z, every cyclic triad inside {(0,0)} U {(1,K)} has a
    vanishing leg, so no loop forms; exhaustive over K."""
    d = BodyDipole(0.0, 0.0, 1.0)
    for k_b in (-1, 0, 1):
        for k_c in (-1, 0, 1):
            if k_b == k_c:
                continue
            product = (
                symtop_reduced_element(1, k_b, 0, 0, d)
                * symtop_reduced_element(1, k_c, 1, k_b, d)
                * symtop_reduced_element(1, k_c, 0, 0, d)
            )
            assert product == 0j


def test_symtop_domain_error():
    with pytest.raises(ValueError):
        symtop_reduced_element(1, 2, 0, 0, BodyDipole(1, 1, 1))


# ---------------------------------------------------------------------------
# Rabi frequencies

def test_rabi_magnitude_example(triad_a, dipole):
    a, b, c = triad_a
    omega = rabi_frequency(b, 1, a, 0, 1, 1.0, 0.0, dipole)
    assert abs(omega) == pytest.approx(1.201 / ROOT3 * DEBYE_VCM_TO_MHZ, abs=1e-12)
    assert abs(omega) == pytest.approx(0.349, abs=1e-3)


def test_rabi_selection_rule_exact_zero(triad_a, dipole):
    a, b, c = triad_a
    assert rabi_frequency(b, 1, a, 0, 0, 1.0, 0.0, dipole) == 0j
    assert rabi_frequency(b, 0, a, 0, -1, 1.0, 0.0, dipole) == 0j


def test_rabi_m0_to_m0_between_j1_levels_is_exact_zero(triad_a, dipole):
    a, b, c = triad_a
    assert rabi_frequency(c, 0, b, 0, 0, 1.0, 0.0, dipole) == 0j


def test_rabi_phase_factor(triad_a, dipole):
    a, b, c = triad_a
    base = rabi_frequency(b, 1, a, 0, 1, 1.0, 0.0, dipole)
    rotated = rabi_frequency(b, 1, a, 0, 1, 1.0, 0.7, dipole)
    assert rotated == pytest.approx(base * cmath.exp(0.7j), rel=1e-12)


def test_rabi_all_sigma_components_give_minus_gamma_over_root3(triad_a, dipole):
    """Driving up from the J=0 ground state, every polarization component
    couples with the same strength -Gamma E / sqrt(3) (into its own M)."""
    a, b, c = triad_a
    gamma = reduced_matrix_element(b, a, dipole).value
    for sigma in (-1, 0, 1):
        omega = rabi_frequency(b, sigma, a, 0, sigma, 1.0, 0.0, dipole)
        assert omega == pytest.approx(-gamma * DEBYE_VCM_TO_MHZ / ROOT3, rel=1e-12)


def test_rabi_negative_amplitude_rejected(triad_a, dipole):
    a, b, c = triad_a
    with pytest.raises(ValueError):
        rabi_frequency(b, 1, a, 0, 1, -1.0, 0.0, dipole)


def test_rabi_precomputed_gamma_matches(triad_a, dipole):
    a, b, c = triad_a
    gamma = reduced_matrix_element(c, b, dipole).value
    direct = rabi_frequency(c, 0, b, 1, -1, 0.8, 0.3, dipole)
    seeded = rabi_frequency(c, 0, b, 1, -1, 0.8, 0.3, dipole, gamma=gamma)
    assert direct == seeded


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
