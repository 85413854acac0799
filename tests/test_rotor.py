"""Rotor block construction, eigenpairs against numpy's solver, closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop.rotor import (
    DegenerateLevelsWarning,
    OrderingError,
    RangeError,
    RotationalConstants,
    rotor_hamiltonian_block,
    rotor_levels,
    transition_frequency,
)

constants_strategy = st.tuples(
    st.floats(min_value=1.0, max_value=20000.0),
    st.floats(min_value=1.0, max_value=20000.0),
    st.floats(min_value=1.0, max_value=20000.0),
).map(sorted)


def _constants_from(sorted_triple):
    c, b, a = sorted_triple
    # spread the values so every J block is comfortably non-degenerate
    return RotationalConstants(A=2.0 * a + 2.0, B=b + 1.0, C=c)


# ---------------------------------------------------------------------------
# constants validation

def test_constants_ordering_enforced():
    with pytest.raises(RangeError):
        RotationalConstants(A=1.0, B=2.0, C=0.5)
    with pytest.raises(RangeError):
        RotationalConstants(A=3.0, B=2.0, C=-1.0)
    RotationalConstants(A=3.0, B=2.0, C=2.0)  # equalities allowed


# ---------------------------------------------------------------------------
# Hamiltonian block

def test_block_j0_is_zero(constants):
    block = rotor_hamiltonian_block(constants, 0)
    assert block.shape == (1, 1)
    assert block[0, 0] == 0.0


def test_block_j1_eigenvalues_closed_form(constants):
    block = rotor_hamiltonian_block(constants, 1)
    evals = np.sort(np.linalg.eigvalsh(block))
    expected = np.sort(
        [constants.B + constants.C, constants.A + constants.C, constants.A + constants.B]
    )
    assert np.allclose(evals, expected, atol=1e-9)


def test_block_spherical_top_j2_is_diagonal():
    sphere = RotationalConstants(A=1.0, B=1.0, C=1.0)
    block = rotor_hamiltonian_block(sphere, 2)
    assert np.allclose(block, 6.0 * np.eye(5), atol=0.0)


def test_block_matches_explicit_elements(constants):
    J = 3
    block = rotor_hamiltonian_block(constants, J)
    jj = J * (J + 1)
    for K in range(-J, J + 1):
        diag = constants.A * K**2 + 0.5 * (constants.B + constants.C) * (jj - K**2)
        assert block[K + J, K + J] == pytest.approx(diag, rel=1e-15)
    for K in range(-J, J - 1):
        off = (
            0.25
            * (constants.B - constants.C)
            * math.sqrt(jj - K * (K + 1))
            * math.sqrt(jj - (K + 1) * (K + 2))
        )
        assert block[K + J, K + J + 2] == pytest.approx(off, rel=1e-15)
    assert np.allclose(block, block.T, atol=0.0)
    # no other nonzeros
    mask = np.ones_like(block, dtype=bool)
    np.fill_diagonal(mask, False)
    mask &= ~np.eye(2 * J + 1, k=2, dtype=bool) & ~np.eye(2 * J + 1, k=-2, dtype=bool)
    assert np.all(block[mask] == 0.0)


# ---------------------------------------------------------------------------
# eigenpairs

def test_propanediol_j1_frequencies(constants):
    levels = rotor_levels(constants, 1)
    assert [level.tau for level in levels] == [-1, 0, 1]
    assert levels[0].freq == pytest.approx(6431.06, abs=1e-9)
    assert levels[1].freq == pytest.approx(11363.01, abs=1e-9)
    assert levels[2].freq == pytest.approx(12212.15, abs=1e-9)


def test_propanediol_j1_tau0_coefficients(constants):
    level = rotor_levels(constants, 1)[1]
    expected = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert np.allclose(level.coeffs, expected, atol=1e-12)


def test_j0_level(constants):
    level = rotor_levels(constants, 0)[0]
    assert level.freq == 0.0
    assert np.allclose(level.coeffs, [1.0])
    assert level.tau == 0


@pytest.mark.filterwarnings("ignore::chiraloop.rotor.DegenerateLevelsWarning")
@settings(max_examples=50, deadline=None)
@given(triple=constants_strategy, J=st.integers(0, 8))
def test_eigen_residuals_and_trace(triple, J):
    constants = _constants_from(triple)
    block = rotor_hamiltonian_block(constants, J)
    levels = rotor_levels(constants, J)
    norm = np.linalg.norm(block)
    for level in levels:
        residual = np.linalg.norm(block @ level.coeffs - level.freq * level.coeffs)
        assert residual <= 1e-9 * max(norm, 1.0)
    trace = float(np.trace(block))
    total = sum(level.freq for level in levels)
    assert total == pytest.approx(trace, rel=1e-9)


@pytest.mark.filterwarnings("ignore::chiraloop.rotor.DegenerateLevelsWarning")
@settings(max_examples=50, deadline=None)
@given(triple=constants_strategy, J=st.integers(1, 8))
def test_matches_numpy_eigh(triple, J):
    constants = _constants_from(triple)
    block = rotor_hamiltonian_block(constants, J)
    freqs = [level.freq for level in rotor_levels(constants, J)]
    reference = np.linalg.eigvalsh(block)
    assert np.allclose(freqs, reference, rtol=1e-9, atol=1e-9)
    assert all(b >= a for a, b in zip(freqs, freqs[1:]))


@pytest.mark.filterwarnings("ignore::chiraloop.rotor.DegenerateLevelsWarning")
@settings(max_examples=30, deadline=None)
@given(triple=constants_strategy, J=st.integers(1, 6))
def test_eigenvectors_orthonormal_and_phase_fixed(triple, J):
    constants = _constants_from(triple)
    levels = rotor_levels(constants, J)
    matrix = np.array([level.coeffs for level in levels])
    assert np.allclose(matrix @ matrix.T, np.eye(2 * J + 1), atol=1e-10)
    for level in levels:
        leading = next(x for x in level.coeffs if abs(x) > 1e-10 * np.abs(level.coeffs).max())
        assert leading > 0


def test_j1_closed_form_generic():
    constants = RotationalConstants(A=11.0, B=7.0, C=2.0)
    levels = rotor_levels(constants, 1)
    assert levels[0].freq == pytest.approx(9.0, abs=1e-12)   # B + C
    assert levels[1].freq == pytest.approx(13.0, abs=1e-12)  # A + C
    assert levels[2].freq == pytest.approx(18.0, abs=1e-12)  # A + B
    root_half = 1.0 / math.sqrt(2.0)
    assert np.allclose(levels[0].coeffs, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(levels[1].coeffs, [root_half, 0.0, -root_half], atol=1e-12)
    assert np.allclose(levels[2].coeffs, [root_half, 0.0, root_half], atol=1e-12)


def test_prolate_limit_collapse():
    # B -> C: energies -> A K^2 + B (J(J+1) - K^2), eigenvectors -> |J,0) and
    # the symmetric/antisymmetric |J,K) combinations.  eps is kept large
    # enough that the second-order +-K mixing is resolvable in float64.
    eps = 1e-4
    constants = RotationalConstants(A=10.0, B=2.0 + eps, C=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLevelsWarning)
        levels = rotor_levels(constants, 2)
    jj = 6.0
    expected_energies = sorted(10.0 * K**2 + 2.0 * (jj - K**2) for K in (-2, -1, 0, 1, 2))
    assert np.allclose([level.freq for level in levels], expected_energies, atol=1e-3)

    def overlap_with_combo(level, K):
        plus = np.zeros(5)
        minus = np.zeros(5)
        plus[K + 2] += 1 / math.sqrt(2)
        plus[-K + 2] += 1 / math.sqrt(2)
        minus[K + 2] += 1 / math.sqrt(2)
        minus[-K + 2] -= 1 / math.sqrt(2)
        return max(abs(level.coeffs @ plus), abs(level.coeffs @ minus))

    assert abs(levels[0].coeffs[2]) > 1 - 1e-5  # K = 0
    for level, K in ((levels[1], 1), (levels[2], 1), (levels[3], 2), (levels[4], 2)):
        assert overlap_with_combo(level, K) > 1 - 1e-5


def test_exact_degeneracy_warns_and_is_deterministic():
    sphere = RotationalConstants(A=1.0, B=1.0, C=1.0)
    with pytest.warns(DegenerateLevelsWarning):
        first = rotor_levels(sphere, 2)
    with pytest.warns(DegenerateLevelsWarning):
        second = rotor_levels(sphere, 2)
    for x, y in zip(first, second):
        assert x.freq == y.freq
        assert np.array_equal(x.coeffs, y.coeffs)


# ---------------------------------------------------------------------------
# transition frequencies

def test_transition_frequencies(constants):
    levels = {level.tau: level for level in rotor_levels(constants, 1)}
    ground = rotor_levels(constants, 0)[0]
    assert transition_frequency(levels[1], ground) == pytest.approx(12212.15, abs=1e-9)
    assert transition_frequency(levels[1], levels[-1]) == pytest.approx(5781.09, abs=1e-9)
    assert transition_frequency(levels[-1], ground) == pytest.approx(6431.06, abs=1e-9)


def test_transition_ordering_error(constants):
    levels = rotor_levels(constants, 1)
    ground = rotor_levels(constants, 0)[0]
    with pytest.raises(OrderingError):
        transition_frequency(ground, levels[0])
    with pytest.raises(OrderingError):
        transition_frequency(ground, ground)


# ---------------------------------------------------------------------------
# Wang symmetry

@pytest.mark.filterwarnings("ignore::chiraloop.rotor.DegenerateLevelsWarning")
@settings(max_examples=50, deadline=None)
@given(triple=constants_strategy, J=st.integers(0, 20))
def test_wang_parity_residuals_and_eigvalsh(triple, J):
    constants = _constants_from(triple)
    block = rotor_hamiltonian_block(constants, J)
    levels = rotor_levels(constants, J)
    norm = np.linalg.norm(block)
    for level in levels:
        mirrored = level.coeffs[::-1]
        assert np.array_equal(level.coeffs, mirrored) or np.array_equal(level.coeffs, -mirrored)
        residual = np.linalg.norm(block @ level.coeffs - level.freq * level.coeffs)
        assert residual <= 1e-9 * norm
    freqs = [level.freq for level in levels]
    assert np.allclose(freqs, np.linalg.eigvalsh(block), rtol=1e-9, atol=0.0)
    assert [level.tau for level in levels] == list(range(-J, J + 1))
    assert all(b >= a for a, b in zip(freqs, freqs[1:]))


def test_propanediol_j7_top_doublet_is_unmixed(constants):
    # 40-digit diagonalization of the J = 7 block: |c(+-7)| of tau 6 and 7
    levels = {level.tau: level for level in rotor_levels(constants, 7)}
    for tau, expected in ((6, 0.706754448844), (7, 0.706754448355)):
        c_plus7, c_minus7 = levels[tau].coeffs[[14, 0]]  # K = 7 and K = -7
        assert abs(c_plus7) == abs(c_minus7)
        assert abs(c_plus7) == pytest.approx(expected, abs=1e-9)
