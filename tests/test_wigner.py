"""3j symbol tests: frozen values, an independent ladder-operator oracle,
the rational-arithmetic Racah sum as a bit-for-bit oracle, and the
symmetry/orthogonality properties."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop.wigner import w_coupling, wigner3j

# ---------------------------------------------------------------------------
# independent oracle: Clebsch-Gordan coefficients from ladder operators

def _lower(j, m):
    return math.sqrt(j * (j + 1) - m * (m - 1))


def cg_ladder_table(j1, j2):
    """<j1 m1 j2 m2 | J M> built by lowering from stretched states.

    Highest-weight states for each J are fixed by Gram-Schmidt in the M = J
    subspace with the convention <j1, j1; j2, J-j1 | J, J> > 0; everything
    below follows from J- = J-(1) + J-(2).  Independent of any closed-form
    3j formula.
    """
    m1s = list(range(j1, -j1 - 1, -1))
    m2s = list(range(j2, -j2 - 1, -1))
    index = {}
    states = []
    for m1 in m1s:
        for m2 in m2s:
            index[(m1, m2)] = len(states)
            states.append((m1, m2))
    dim = len(states)

    table = {}
    tops = []  # highest-weight vectors discovered so far, by descending J
    for J in range(j1 + j2, abs(j1 - j2) - 1, -1):
        members = [s for s in states if s[0] + s[1] == J]
        if J == j1 + j2:
            top = np.zeros(dim)
            top[index[(j1, j2)]] = 1.0
        else:
            # orthogonal complement of the higher |J', J> within the subspace
            top = None
            for seed_state in members:
                seed = np.zeros(dim)
                seed[index[seed_state]] = 1.0
                for _, vecs in tops:
                    higher = vecs[J]
                    seed = seed - (higher @ seed) * higher
                if np.linalg.norm(seed) > 1e-8:
                    top = seed / np.linalg.norm(seed)
                    break
            assert top is not None
            if top[index[(j1, J - j1)]] < 0:
                top = -top
        vecs = {J: top}
        current = top
        for M in range(J, -J, -1):
            lowered = np.zeros(dim)
            for (m1, m2), i in index.items():
                if abs(current[i]) < 1e-300:
                    continue
                if m1 > -j1:
                    lowered[index[(m1 - 1, m2)]] += current[i] * _lower(j1, m1)
                if m2 > -j2:
                    lowered[index[(m1, m2 - 1)]] += current[i] * _lower(j2, m2)
            current = lowered / _lower(J, M)
            vecs[M - 1] = current
        tops.append((J, vecs))
        for M, vec in vecs.items():
            for (m1, m2), i in index.items():
                table[(m1, m2, J, M)] = vec[i]
    return table


def threej_from_ladder(table, j1, j2, j3, m1, m2, m3):
    cg = table.get((m1, m2, j3, -m3), 0.0)
    sign = -1.0 if (j1 - j2 - m3) % 2 else 1.0
    return sign * cg / math.sqrt(2 * j3 + 1)


@pytest.mark.parametrize("j1,j2", [(j1, j2) for j1 in range(4) for j2 in range(4)])
def test_matches_ladder_oracle(j1, j2):
    table = cg_ladder_table(j1, j2)
    for j3 in range(abs(j1 - j2), j1 + j2 + 1):
        for m1 in range(-j1, j1 + 1):
            for m2 in range(-j2, j2 + 1):
                m3 = -m1 - m2
                if abs(m3) > j3:
                    continue
                expected = threej_from_ladder(table, j1, j2, j3, m1, m2, m3)
                assert wigner3j(j1, j2, j3, m1, m2, m3) == pytest.approx(
                    expected, abs=1e-12
                )


def test_matches_ladder_oracle_large_j():
    table = cg_ladder_table(20, 1)
    for j3 in (19, 20, 21):
        for m1 in (-20, -7, 0, 5, 20):
            for m2 in (-1, 0, 1):
                m3 = -m1 - m2
                if abs(m3) > j3:
                    continue
                expected = threej_from_ladder(table, 20, 1, j3, m1, m2, m3)
                assert wigner3j(20, 1, j3, m1, m2, m3) == pytest.approx(
                    expected, abs=1e-12
                )


# ---------------------------------------------------------------------------
# the Racah sum in rational arithmetic, rounded once

def racah_fraction_3j(j1, j2, j3, m1, m2, m3):
    """The Racah single sum as an exact Fraction; |3j|^2 is rounded to a float
    once, before one square root.  Oracle for wigner3j, which must match it
    bit for bit."""
    if m1 + m2 + m3 != 0 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    f = math.factorial
    total = Fraction(0)
    for t in range(max(0, j2 - j3 - m1, j1 - j3 + m2), min(j1 + j2 - j3, j1 - m1, j2 + m2) + 1):
        den = (
            f(t) * f(j1 + j2 - j3 - t) * f(j1 - m1 - t) * f(j2 + m2 - t)
            * f(j3 - j2 + m1 + t) * f(j3 - j1 - m2 + t)
        )
        total += Fraction(-1 if t % 2 else 1, den)
    if total == 0:
        return 0.0
    ratio = Fraction(f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3), f(j1 + j2 + j3 + 1))
    ratio *= f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    sign = 1 if total > 0 else -1
    if (j1 - j2 - m3) % 2:
        sign = -sign
    return sign * math.sqrt(float(ratio * total * total))


def _symbols(j1_max, j2_max):
    return [
        (j1, j2, j3, m1, m2, -m1 - m2)
        for j1 in range(j1_max + 1)
        for j2 in range(j2_max + 1)
        for j3 in range(abs(j1 - j2), j1 + j2 + 1)
        for m1 in range(-j1, j1 + 1)
        for m2 in range(-j2, j2 + 1)
        if abs(m1 + m2) <= j3
    ]


def test_matches_fraction_route_bit_for_bit_dipole_range():
    """Every symbol with j1 <= 20 and j2 <= 2, the range dipole couplings use."""
    symbols = _symbols(20, 2)
    assert len(symbols) == 14_451
    for args in symbols:
        assert wigner3j(*args).hex() == racah_fraction_3j(*args).hex(), args


@settings(max_examples=300, deadline=None)
@given(j1=st.integers(0, 40), j2=st.integers(0, 40), data=st.data())
def test_matches_fraction_route_bit_for_bit_property(j1, j2, data):
    j3 = data.draw(st.integers(abs(j1 - j2), min(j1 + j2, 40)))
    m1 = data.draw(st.integers(-j1, j1))
    m2 = data.draw(st.integers(max(-j2, -j3 - m1), min(j2, j3 - m1)))
    args = (j1, j2, j3, m1, m2, -m1 - m2)
    assert wigner3j(*args).hex() == racah_fraction_3j(*args).hex()


# ---------------------------------------------------------------------------
# frozen values

def test_frozen_examples():
    assert wigner3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-14)
    assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0
    assert wigner3j(1, 1, 1, 1, -1, 0) == pytest.approx(1 / math.sqrt(6), abs=1e-14)
    assert wigner3j(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2 / 15), abs=1e-14)


@pytest.mark.parametrize("j", range(1, 6))
def test_closed_form_j_j_zero(j):
    for m in range(-j, j + 1):
        expected = (-1) ** (j - m) / math.sqrt(2 * j + 1)
        assert wigner3j(j, j, 0, m, -m, 0) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("j", [1, 2, 5, 20])
def test_closed_form_j_1_j(j):
    # (j 1 j; m 0 -m) = (-1)^(j-m+1) m / sqrt(j(j+1)(2j+1))
    for m in range(-j, j + 1):
        expected = (-1) ** (j - m + 1) * m / math.sqrt(j * (j + 1) * (2 * j + 1))
        assert wigner3j(j, 1, j, m, 0, -m) == pytest.approx(expected, abs=1e-13)


def test_odd_sum_all_zero_projections_vanish():
    assert wigner3j(2, 2, 1, 0, 0, 0) == 0.0
    assert wigner3j(3, 2, 2, 0, 0, 0) == 0.0


# ---------------------------------------------------------------------------
# structural zeros and domain errors

def test_selection_rule_violations_are_exact_zero():
    assert wigner3j(1, 1, 1, 1, 0, 0) == 0.0  # m1+m2+m3 != 0
    assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0  # triangle violated
    assert wigner3j(2, 0, 1, 0, 0, 0) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        wigner3j(1, 1, 1, 2, -2, 0)
    with pytest.raises(ValueError):
        wigner3j(-1, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        wigner3j(1, 1, 1, 0, -2, 2)


# ---------------------------------------------------------------------------
# symmetry properties

def _valid_symbols(max_j=3):
    out = []
    for j1 in range(max_j + 1):
        for j2 in range(max_j + 1):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        if abs(m1 + m2) <= j3:
                            out.append((j1, j2, j3, m1, m2, -m1 - m2))
    return out


ALL_SYMBOLS = _valid_symbols()


def test_column_permutations():
    for j1, j2, j3, m1, m2, m3 in ALL_SYMBOLS:
        value = wigner3j(j1, j2, j3, m1, m2, m3)
        odd_sign = (-1) ** (j1 + j2 + j3)
        # even (cyclic) permutations
        assert wigner3j(j2, j3, j1, m2, m3, m1) == pytest.approx(value, abs=1e-13)
        assert wigner3j(j3, j1, j2, m3, m1, m2) == pytest.approx(value, abs=1e-13)
        # odd (pair swap) permutations
        assert wigner3j(j2, j1, j3, m2, m1, m3) == pytest.approx(
            odd_sign * value, abs=1e-13
        )
        assert wigner3j(j1, j3, j2, m1, m3, m2) == pytest.approx(
            odd_sign * value, abs=1e-13
        )


def test_projection_sign_flip():
    for j1, j2, j3, m1, m2, m3 in ALL_SYMBOLS:
        value = wigner3j(j1, j2, j3, m1, m2, m3)
        flipped = wigner3j(j1, j2, j3, -m1, -m2, -m3)
        assert flipped == pytest.approx((-1) ** (j1 + j2 + j3) * value, abs=1e-13)


def test_orthogonality():
    for j1 in range(4):
        for j2 in range(4):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                for j3p in range(abs(j1 - j2), j1 + j2 + 1):
                    for m3 in range(-j3, j3 + 1):
                        for m3p in range(-j3p, j3p + 1):
                            total = 0.0
                            for m1 in range(-j1, j1 + 1):
                                m2 = -m1 - m3
                                if abs(m2) > j2:
                                    continue
                                total += (
                                    (2 * j3 + 1)
                                    * wigner3j(j1, j2, j3, m1, m2, m3)
                                    * wigner3j(j1, j2, j3p, m1, m2, m3p)
                                )
                            expected = 1.0 if (j3, m3) == (j3p, m3p) else 0.0
                            assert abs(total - expected) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    j1=st.integers(0, 5),
    j2=st.integers(0, 5),
    data=st.data(),
)
def test_sign_flip_property(j1, j2, data):
    j3 = data.draw(st.integers(abs(j1 - j2), j1 + j2))
    m1 = data.draw(st.integers(-j1, j1))
    m2 = data.draw(st.integers(-j2, j2))
    m3 = -m1 - m2
    if abs(m3) > j3:
        return
    value = wigner3j(j1, j2, j3, m1, m2, m3)
    flipped = wigner3j(j1, j2, j3, -m1, -m2, -m3)
    assert flipped == pytest.approx((-1) ** (j1 + j2 + j3) * value, abs=1e-12)


# ---------------------------------------------------------------------------
# the coupling wrapper

def test_w_coupling_matches_3j():
    for J in range(3):
        for Jp in range(3):
            for M in range(-J, J + 1):
                for Mp in range(-Jp, Jp + 1):
                    for sigma in (-1, 0, 1):
                        assert w_coupling(J, M, Jp, Mp, sigma) == wigner3j(
                            J, 1, Jp, M, -sigma, -Mp
                        )


def test_w_coupling_frozen_values():
    assert w_coupling(1, 0, 0, 0, 0) == pytest.approx(-1 / math.sqrt(3), abs=1e-14)
    assert w_coupling(1, 0, 1, 0, 0) == 0.0
    assert w_coupling(1, 1, 1, 0, 1) == pytest.approx(1 / math.sqrt(6), abs=1e-14)


def test_w_coupling_delta_m_rule_exact():
    for M in (-1, 0, 1):
        for Mp in (-1, 0, 1):
            for sigma in (-1, 0, 1):
                if M - Mp != sigma:
                    assert w_coupling(1, M, 1, Mp, sigma) == 0.0
