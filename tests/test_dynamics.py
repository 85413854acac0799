"""Full 7-level Hamiltonian assembly, propagation, leakage, and contrast."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop import loop
from chiraloop.dipole import DEBYE_VCM_TO_MHZ, _coupling_terms, reduced_matrix_element
from chiraloop.dynamics import (
    EVOLVE_BLOCK_ROWS,
    ResonanceAmbiguityError,
    assemble_full_hamiltonian,
    compare_full_vs_reduced,
    coupling_block,
    enantiomer_contrast,
    evolve,
    leakage,
    loop_frame,
    loop_populations,
    propagate,
)
from chiraloop.fields import DriveField
from chiraloop.loop import LoopSpec, Triad, build_single_loop, loop_product
from chiraloop.rotor import RotationalConstants, rotor_levels

from conftest import X, Y, Z, linear_loop_spec, pure_loop_spec, random_loop_spec, reference_rabi
from conftest import rk4_propagate

T_GRID = np.linspace(0.0, 2.0, 101)


def ket(level: str, M: int) -> int:
    """Index of the sublevel (level, M) of b or c in the 7 kets: a, then b and
    c with M = +1, 0, -1 each."""
    return {"b": 2, "c": 5}[level] - M


@pytest.fixture(scope="module")
def circular_spec(triad_a, dipole):
    """Pure polarizations (sigma1, sigma2, sigma3) = (+1, -1, 0)."""
    return pure_loop_spec(triad_a, dipole, (1, -1, 0))


@pytest.fixture(scope="module")
def linear_spec(triad_a, dipole):
    """Linear Z, X, Y drives with the worked-example amplitude ratio."""
    return linear_loop_spec(triad_a, dipole, (Z, X, Y), amplitudes=(1.0, 0.75, 2.75))


def equal_omega_spec(triad, dip, omega_mhz, phase2=0.0):
    """Amplitudes chosen so all three loop Rabi magnitudes equal omega_mhz."""
    a, b, c = triad
    g1 = abs(reduced_matrix_element(b, a, dip).value)
    g2 = abs(reduced_matrix_element(c, b, dip).value)
    g3 = abs(reduced_matrix_element(c, a, dip).value)
    amplitudes = (
        omega_mhz * math.sqrt(3) / (g1 * DEBYE_VCM_TO_MHZ),
        omega_mhz * math.sqrt(6) / (g2 * DEBYE_VCM_TO_MHZ),
        omega_mhz * math.sqrt(3) / (g3 * DEBYE_VCM_TO_MHZ),
    )
    return pure_loop_spec(triad, dip, (1, -1, 0), amplitudes, phases=(0.0, phase2, 0.0))


# ---------------------------------------------------------------------------
# assembly

def test_circular_config_coupling_pattern(circular_spec):
    h = assemble_full_hamiltonian(circular_spec)
    nonzero = {(i, j) for i in range(7) for j in range(7) if h[i, j] != 0}
    # basis: 0=a, (1..3)=(b,+1),(b,0),(b,-1), (4..6)=(c,+1),(c,0),(c,-1)
    expected = {(0, 1), (0, 5), (1, 5), (2, 6)}
    expected |= {(j, i) for i, j in expected}
    assert nonzero == expected


def test_circular_config_two_decoupled_sublevels(circular_spec):
    h = assemble_full_hamiltonian(circular_spec)
    decoupled = [i for i in range(7) if not np.any(h[i, :]) and not np.any(h[:, i])]
    assert decoupled == [ket("b", -1), ket("c", 1)]


def test_assembled_hamiltonian_is_hermitian(linear_spec):
    h = assemble_full_hamiltonian(linear_spec)
    assert np.abs(h - h.conj().T).max() == 0.0


def test_restriction_to_loop_frame_equals_single_loop(circular_spec, linear_spec):
    for spec in (circular_spec, linear_spec):
        h7 = assemble_full_hamiltonian(spec)
        frame = loop_frame(spec)
        restricted = frame.conj() @ h7 @ frame.T
        h3 = build_single_loop(spec).matrix()
        assert np.abs(restricted - h3).max() < 1e-12


def test_tiny_amplitudes_give_tiny_matrix(triad_a, dipole):
    spec = pure_loop_spec(triad_a, dipole, (1, -1, 0), amplitudes=(1e-300,) * 3)
    h = assemble_full_hamiltonian(spec)
    assert np.abs(h).max() < 1e-299


def test_resonance_ambiguity_detected():
    # A = B + 2C makes f_ba == f_cb, so one drive matches two transitions
    constants = RotationalConstants(A=4.0, B=2.0, C=1.0)
    ground = rotor_levels(constants, 0)[0]
    j1 = {level.tau: level for level in rotor_levels(constants, 1)}
    from conftest import PROPANEDIOL_DIPOLE

    spec = LoopSpec(
        triad=Triad(ground, j1[-1], j1[1], PROPANEDIOL_DIPOLE),
        field1=DriveField.pure(1, 1.0, j1[-1].freq),
        field2=DriveField.pure(-1, 1.0, j1[1].freq - j1[-1].freq),
        field3=DriveField.pure(0, 1.0, j1[1].freq),
    )
    with pytest.raises(ResonanceAmbiguityError):
        assemble_full_hamiltonian(spec)


def test_coupling_block_shape_and_selection(triad_a, dipole):
    a, b, c = triad_a
    field = DriveField.pure(-1, 1.0, c.freq - b.freq)
    block = coupling_block(c, b, field, dipole)
    assert block.shape == (3, 3)
    # sigma=-1 couples (b,M) -> (c,M-1): entries (c0<-b+1) and (c-1<-b0)
    nonzero = {(i, j) for i in range(3) for j in range(3) if block[i, j] != 0}
    assert nonzero == {(1, 0), (2, 1)}


@pytest.fixture(scope="module")
def levels_to_j4(constants):
    return [rotor_levels(constants, J) for J in range(5)]


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("j_upper, j_lower", list(itertools.product(range(5), repeat=2)))
def test_coupling_block_entries_are_half_rabi_frequencies(j_upper, j_lower, levels_to_j4, dipole):
    """Every block up to J = 4, square or not, in both orders, holds half of
    reference_rabi per entry bit for bit (a zero as the +0.0 it is added to),
    so a |Delta J| > 1 block is +0.0 throughout; it builds no coupling-term
    table."""
    field = DriveField(1000.0, {-1: (0.7, 2.9), 0: (1.3, -0.4), 1: (0.2, 1.1)})
    uppers, lowers = levels_to_j4[j_upper], levels_to_j4[j_lower]
    tables = _coupling_terms.cache_info().currsize
    for upper, lower in itertools.product((uppers[0], uppers[-1]), (lowers[0], lowers[-1])):
        block = coupling_block(upper, lower, field, dipole)
        assert block.shape == (2 * j_upper + 1, 2 * j_lower + 1)
        for (i, m_upper), (j, m_lower) in itertools.product(
            enumerate(range(j_upper, -j_upper - 1, -1)), enumerate(range(j_lower, -j_lower - 1, -1))
        ):
            sigma = m_upper - m_lower
            want = 0j
            if abs(sigma) <= 1:
                half = 0.5 * reference_rabi(
                    upper, m_upper, lower, m_lower, sigma,
                    field.amplitude(sigma), field.phase(sigma), dipole,
                )
                want = complex(0.0 + half.real, 0.0 + half.imag)
            assert _bits(complex(block[i, j])) == _bits(want)
    if abs(j_upper - j_lower) > 1:
        assert _coupling_terms.cache_info().currsize == tables


# ---------------------------------------------------------------------------
# propagation

def test_propagate_t0_is_identity(circular_spec):
    h = assemble_full_hamiltonian(circular_spec)
    psi0 = np.zeros(7, dtype=complex)
    psi0[0] = 1.0
    assert np.array_equal(propagate(h, psi0, 0.0), psi0)


def test_two_level_rabi_analytic():
    h = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)  # |Omega| = 1 MHz
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for t in (0.1, 0.25, 0.37, 0.5):
        psi = propagate(h, psi0, t)
        assert abs(psi[1]) ** 2 == pytest.approx(math.sin(math.pi * t) ** 2, abs=1e-10)
    assert abs(propagate(h, psi0, 0.5)[1]) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_propagation_norm_conserved(linear_spec):
    h = assemble_full_hamiltonian(linear_spec)
    rng = np.random.default_rng(2)
    psi0 = rng.normal(size=7) + 1j * rng.normal(size=7)
    psi0 /= np.linalg.norm(psi0)
    for t in (0.3, 1.7, 9.4):
        assert np.linalg.norm(propagate(h, psi0, t)) == pytest.approx(1.0, abs=1e-12)


def test_propagation_semigroup(linear_spec):
    h = assemble_full_hamiltonian(linear_spec)
    rng = np.random.default_rng(4)
    psi0 = rng.normal(size=7) + 1j * rng.normal(size=7)
    psi0 /= np.linalg.norm(psi0)
    once = propagate(h, psi0, 1.3)
    twice = propagate(h, propagate(h, psi0, 0.8), 0.5)
    assert np.abs(once - twice).max() < 1e-12


def test_propagate_matches_rk4_oracle(linear_spec):
    h = assemble_full_hamiltonian(linear_spec)
    psi0 = np.zeros(7, dtype=complex)
    psi0[0] = 1.0
    exact = propagate(h, psi0, 0.4)
    stepped = rk4_propagate(h, psi0, 0.4, steps=6000)
    assert np.abs(exact - stepped).max() < 1e-8


def test_propagate_rejects_unnormalized(circular_spec):
    h = assemble_full_hamiltonian(circular_spec)
    with pytest.raises(ValueError):
        propagate(h, np.ones(7, dtype=complex), 1.0)


def test_propagate_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        propagate(bad, np.array([1.0, 0.0], dtype=complex), 1.0)


# ---------------------------------------------------------------------------
# leakage

def test_leakage_closed_configurations(circular_spec, linear_spec):
    assert leakage(circular_spec, (1, 0, 0), T_GRID) <= 1e-10
    assert leakage(linear_spec, (1, 0, 0), T_GRID) <= 1e-10
    assert leakage(linear_spec, (0.4, 0.5j, 0.3), T_GRID) <= 1e-10


def test_leakage_open_configuration(triad_a, dipole):
    spec = linear_loop_spec(triad_a, dipole, (Z, X, X))
    assert leakage(spec, (1, 0, 0), T_GRID) > 1e-3


def test_leakage_rotated_field2(triad_a, dipole):
    tilted = (math.cos(math.radians(5.0)), math.sin(math.radians(5.0)), 0.0)
    spec = linear_loop_spec(triad_a, dipole, (Z, tilted, Y), amplitudes=(1.0, 0.75, 2.75))
    assert leakage(spec, (1, 0, 0), T_GRID) > 1e-4


def test_decoupled_state_never_enters_loop(circular_spec):
    h = assemble_full_hamiltonian(circular_spec)
    frame = loop_frame(circular_spec)
    psi0 = np.zeros(7, dtype=complex)
    psi0[ket("c", 1)] = 1.0
    for t in (0.0, 0.7, 1.9):
        psi = propagate(h, psi0, t)
        assert float(np.sum(np.abs(frame.conj() @ psi) ** 2)) == 0.0


# ---------------------------------------------------------------------------
# full vs reduced

def test_full_vs_reduced_closed(circular_spec, linear_spec):
    assert compare_full_vs_reduced(circular_spec, T_GRID) <= 1e-10
    assert compare_full_vs_reduced(linear_spec, T_GRID) <= 1e-10


def test_full_vs_reduced_perturbed(triad_a, dipole):
    tilted = (math.cos(math.radians(5.0)), math.sin(math.radians(5.0)), 0.0)
    spec = linear_loop_spec(triad_a, dipole, (Z, tilted, Y), amplitudes=(1.0, 0.75, 2.75))
    assert compare_full_vs_reduced(spec, T_GRID) > 1e-4


def test_bare_basis_evolution_matches_dressed_projection(linear_spec):
    """Evolving in the sublevel basis then projecting equals evolving the
    3-level loop Hamiltonian directly (closed configuration)."""
    frame = loop_frame(linear_spec)
    h7 = assemble_full_hamiltonian(linear_spec)
    h3 = build_single_loop(linear_spec).matrix()
    psi3 = np.array([0.6, 0.48j, 0.64], dtype=complex)
    psi3 /= np.linalg.norm(psi3)
    for t in (0.3, 1.1):
        via_full = frame.conj() @ propagate(h7, psi3 @ frame, t)
        via_loop = propagate(h3, psi3, t)
        assert np.abs(via_full - via_loop).max() < 1e-12


# ---------------------------------------------------------------------------
# enantiomer contrast

def test_contrast_t0_identical(circular_spec):
    right, left = enantiomer_contrast(circular_spec, 0.0)
    assert right == (1.0, 0.0, 0.0)
    assert left == (1.0, 0.0, 0.0)


def test_contrast_large_for_equal_rabi(triad_a, dipole):
    spec = equal_omega_spec(triad_a, dipole, 0.5)
    # zero drive phases put the loop phase at +-pi/2, the chirality-odd
    # extremum; one Rabi period is 1/0.5 us = 2 us
    worst = 0.0
    for t in np.linspace(0.0, 2.0, 81):
        right, left = enantiomer_contrast(spec, float(t))
        worst = max(worst, abs(right[2] - left[2]))
    assert worst > 0.1


def test_contrast_vanishes_at_real_loop_phase(triad_a, dipole):
    """Populations are even in the loop phase, so configurations at phase 0
    or pi (real loop product) cannot distinguish the mirror pair."""
    spec = equal_omega_spec(triad_a, dipole, 0.5)
    phase = np.angle(loop_product(build_single_loop(spec)))
    spec0 = equal_omega_spec(triad_a, dipole, 0.5, phase2=-phase)
    assert abs(loop_product(build_single_loop(spec0)).imag) < 1e-12
    for t in (0.3, 0.9, 1.7):
        right, left = enantiomer_contrast(spec0, t)
        assert abs(right[2] - left[2]) < 1e-10


def test_contrast_negligible_without_field2(triad_a, dipole):
    """An (effectively) absent middle drive leaves no loop, so no mirror
    asymmetry; zero amplitude itself is not representable in a DriveField."""
    a, b, c = triad_a
    strong = equal_omega_spec(triad_a, dipole, 0.5)
    import dataclasses

    spec = dataclasses.replace(
        strong, field2=DriveField.pure(-1, 1e-12, c.freq - b.freq)
    )
    for t in (0.4, 1.3, 2.0):
        right, left = enantiomer_contrast(spec, t)
        assert max(abs(r - l) for r, l in zip(right, left)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(taus=st.sampled_from([(-1, 1), (-1, 0), (0, 1)]), seed=st.integers(0, 2**32 - 1))
def test_mirror_image_evolves_as_drives_shifted_by_pi(taus, seed, ground, j1_levels, dipole):
    """Parity: the mirror image under drives F evolves as the original under
    -F, every component phase shifted by pi, for general drives on each triad."""
    levels = (ground, j1_levels[taus[0]], j1_levels[taus[1]])
    spec = random_loop_spec(np.random.default_rng(seed), levels, dipole)
    shifted = LoopSpec.resonant(spec.triad, [
        {sigma: (amp, phase + math.pi) for sigma, (amp, phase) in f.comps.items()}
        for f in (spec.field1, spec.field2, spec.field3)
    ])
    times = np.linspace(0.0, 5.0, 101)
    left = loop_populations(spec.mirrored(), times, (1.0, 0.0, 0.0))
    assert np.abs(left - loop_populations(shifted, times, (1.0, 0.0, 0.0))).max() <= 1e-12


def test_populations_depend_only_on_magnitudes_and_loop_phase(triad_a, dipole):
    """Gauge family: shifting drive phases with chi3 = chi1 + chi2 moves no
    observable; and a pure-polarization configuration reproducing the same
    (|Omega|, loop phase) data gives the same populations."""
    spec = equal_omega_spec(triad_a, dipole, 0.5)
    shifted = pure_loop_spec(
        triad_a,
        dipole,
        (1, -1, 0),
        amplitudes=tuple(f.total for f in (spec.field1, spec.field2, spec.field3)),
        phases=(0.4, 1.1, 1.5),  # chi3 = chi1 + chi2
    )
    assert abs(
        loop_product(build_single_loop(shifted)) - loop_product(build_single_loop(spec))
    ) < 1e-12
    for t in (0.5, 1.2):
        base_r, base_l = enantiomer_contrast(spec, t)
        shift_r, shift_l = enantiomer_contrast(shifted, t)
        assert np.allclose(base_r, shift_r, atol=1e-12)
        assert np.allclose(base_l, shift_l, atol=1e-12)


# ---------------------------------------------------------------------------
# evolution over a time grid

def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 7),
    times=st.lists(
        st.floats(-50.0, 50.0, allow_nan=False).filter(lambda t: t != 0.0), max_size=40
    ),
)
def test_evolve_rows_equal_propagate(seed, dim, times):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    psi0 = random_state(rng, dim)
    grid = evolve(h, psi0, times)
    assert grid.shape == (len(times), dim)
    for row, t in zip(grid, times):
        single = propagate(h, psi0, t)
        if dim == 1:
            # numpy merges a one-column grid into a single SIMD complex
            # multiply (fused multiply-add), so it can differ from a
            # one-row grid in the last bit
            assert np.abs(row - single).max() <= 4 * np.finfo(float).eps
        else:
            assert np.array_equal(row, single)
        assert abs(np.linalg.norm(row) - 1.0) <= 1e-12


def test_evolve_across_blocks_equals_propagate(linear_spec):
    h = assemble_full_hamiltonian(linear_spec)
    psi0 = random_state(np.random.default_rng(5), 7)
    times = 0.013 * np.arange(1, 2 * EVOLVE_BLOCK_ROWS + 4)
    grid = evolve(h, psi0, times)
    edges = [0, EVOLVE_BLOCK_ROWS - 1, EVOLVE_BLOCK_ROWS, 2 * EVOLVE_BLOCK_ROWS, len(times) - 1]
    for k in edges + list(range(0, len(times), 211)):
        assert np.array_equal(grid[k], propagate(h, psi0, times[k]))


def test_evolve_empty_grid(linear_spec):
    h = assemble_full_hamiltonian(linear_spec)
    psi0 = np.zeros(7, dtype=complex)
    psi0[0] = 1.0
    assert evolve(h, psi0, []).shape == (0, 7)
    assert leakage(linear_spec, (1, 0, 0), []) == 0.0


def test_evolve_rejects_non_finite_input():
    h = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="normalized"):
        evolve(h, np.array([math.nan, 0.0], dtype=complex), [1.0])
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(np.array([[math.nan, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]), [1.0])
    with pytest.raises(ValueError, match="1-D"):
        evolve(h, np.array([1.0, 0.0]), [[1.0]])
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            evolve(h, np.array([1.0, 0.0]), [0.0, t])
        with pytest.raises(ValueError, match="finite"):
            propagate(h, np.array([1.0, 0.0]), t)


def test_loop_populations_match_contrast(linear_spec):
    """The grid path and the single-time path give the same numbers."""
    times = [0.3, 1.1, 1.9]
    pops = loop_populations(linear_spec, times, (1, 0, 0))
    assert pops.shape == (3, 3)
    for row, t in zip(pops, times):
        assert tuple(row) == enantiomer_contrast(linear_spec, t)[0]


def test_full_vs_reduced_rejects_zero_amplitudes(linear_spec):
    with pytest.raises(ValueError, match="all zero"):
        compare_full_vs_reduced(linear_spec, T_GRID, (0, 0, 0))
