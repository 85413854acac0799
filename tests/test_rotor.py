"""Rotor block construction, eigenpairs against numpy's solver, closed forms,
and the loop-built route as a bit-for-bit oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop.rotor import (
    DEGENERACY_TOL_MHZ,
    AsymTopLevel,
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


def _hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


# ---------------------------------------------------------------------------
# the loop-built route: one element, one eigenvector and one level at a time

def loop_block(constants, J):
    """The (2J+1)x(2J+1) block filled one element at a time in Python scalars."""
    n = 2 * J + 1
    jj = J * (J + 1)
    h = np.zeros((n, n))
    half_sum = 0.5 * (constants.B + constants.C)
    quarter_diff = 0.25 * (constants.B - constants.C)
    for i in range(n):
        K = i - J
        h[i, i] = constants.A * K * K + half_sum * (jj - K * K)
    for i in range(n - 2):
        K = i - J
        off = quarter_diff * np.sqrt(jj - K * (K + 1)) * np.sqrt(jj - (K + 1) * (K + 2))
        h[i, i + 2] = off
        h[i + 2, i] = off
    return h


def _fix_phase(vec):
    """Make the first coefficient above 1e-10 of the largest positive."""
    values = vec.tolist()
    threshold = 1e-10 * max(map(abs, values))
    for x in values:
        if abs(x) > threshold:
            return vec if x > 0 else -vec
    return vec


def loop_levels(constants, J):
    """(freq, coeffs) of the J block's levels and whether it warns, one
    eigenvector at a time: the Wang sub-blocks of loop_block, a written-out
    single state, a Python stable sort on frequency and a per-vector phase.
    Oracle for rotor_levels, which must match it bit for bit."""
    block = loop_block(constants, J)
    n = 2 * J + 1
    root_half = 1.0 / np.sqrt(2.0)
    pairs = []
    for sign, k0 in ((1, 0), (-1, 2), (1, 1), (-1, 1)):
        if k0 > J:
            continue
        d = block.diagonal()[J + k0 :: 2].copy()
        if k0 == 1:
            d[0] += sign * block[J + 1, J - 1]
        if d.size == 1:
            vec = np.zeros(n)
            vec[J - k0] = root_half if k0 else 1.0
            vec[J + k0] = sign * vec[J - k0]
            pairs.append((d[0], vec))
            continue
        e = block.diagonal(2)[J + k0 :: 2].copy()
        if k0 == 0:
            e[0] *= np.sqrt(2.0)
        vals, vecs = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        coeffs = np.zeros((d.size, n))
        coeffs[:, J + k0 :: 2] = vecs.T * root_half
        coeffs[:, J - k0 :: -2] = sign * coeffs[:, J + k0 :: 2]
        if k0 == 0:
            coeffs[:, J] = vecs[0]
        pairs.extend(zip(vals, coeffs))
    pairs.sort(key=lambda p: p[0])
    freqs = [p[0] for p in pairs]
    warns = any(b - a < DEGENERACY_TOL_MHZ for a, b in zip(freqs, freqs[1:]))
    return [(freq, _fix_phase(vec)) for freq, vec in pairs], warns


def assert_levels_match_loop_route(constants, J):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        levels = rotor_levels(constants, J)
    expected, warns = loop_levels(constants, J)
    assert [type(w.message) for w in caught] == [DegenerateLevelsWarning] * warns
    assert [level.tau for level in levels] == list(range(-J, J + 1))
    assert _hexes([level.freq for level in levels]) == _hexes([freq for freq, _ in expected])
    assert _hexes([level.coeffs for level in levels]) == _hexes([vec for _, vec in expected])


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


@settings(max_examples=60, deadline=None)
@given(triple=constants_strategy, J=st.integers(0, 30))
def test_block_matches_loop_route_bit_for_bit(triple, J):
    c, b, a = triple
    constants = RotationalConstants(A=a, B=b, C=c)
    assert _hexes(rotor_hamiltonian_block(constants, J)) == _hexes(loop_block(constants, J))


def test_overflowing_constants_raise_no_runtime_warning():
    """Constants near the float limit overflow the block to inf; that is the
    ValueError of rotor_levels, never a numpy RuntimeWarning."""
    huge = RotationalConstants(A=1e308, B=1e307, C=1e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for J in range(6):
            rotor_hamiltonian_block(huge, J)
        assert [len(rotor_levels(huge, J)) for J in (0, 1)] == [1, 3]
        for J in range(2, 6):
            with pytest.raises(ValueError, match=f"J={J} levels are not finite"):
                rotor_levels(huge, J)


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


@settings(max_examples=60, deadline=None)
@given(triple=constants_strategy, J=st.integers(0, 30))
def test_levels_match_loop_route_bit_for_bit(triple, J):
    c, b, a = triple
    assert_levels_match_loop_route(RotationalConstants(A=a, B=b, C=c), J)


@pytest.mark.parametrize(
    "constants",
    [
        RotationalConstants(A=5000.0, B=5000.0, C=3000.0),  # A = B, oblate
        RotationalConstants(A=9000.0, B=3000.0, C=3000.0),  # B = C, prolate
        RotationalConstants(A=4000.0, B=4000.0, C=4000.0),  # A = B = C, spherical
    ],
    ids=["A=B", "B=C", "A=B=C"],
)
def test_degenerate_tops_match_loop_route_bit_for_bit(constants):
    for J in range(31):
        assert_levels_match_loop_route(constants, J)


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


def test_transition_from_nan_level_is_ordering_error(constants):
    ground = rotor_levels(constants, 0)[0]
    broken = AsymTopLevel(J=1, tau=-1, freq=math.nan, coeffs=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(OrderingError):
        transition_frequency(broken, ground)
    with pytest.raises(OrderingError):
        transition_frequency(ground, broken)


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
