"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import functools
import math

import numpy as np
import pytest

from chiraloop import dynamics, loop
from chiraloop.dipole import DEBYE_VCM_TO_MHZ, reduced_matrix_element
from chiraloop.rotor import RotationalConstants, rotor_hamiltonian_block, rotor_levels
from chiraloop.wigner import wigner3j

from conftest import (
    PROPANEDIOL,
    PROPANEDIOL_DIPOLE,
    X,
    Y,
    Z,
    linear_loop_spec,
    pure_loop_spec,
    random_loop_spec,
    reference_closed_form,
)

GROUND = rotor_levels(PROPANEDIOL, 0)[0]
J1 = {level.tau: level for level in rotor_levels(PROPANEDIOL, 1)}
TRIADS = {
    "a": (GROUND, J1[-1], J1[1]),
    "b": (GROUND, J1[-1], J1[0]),
    "c": (GROUND, J1[0], J1[1]),
}
TRIAD_A = TRIADS["a"]


def criterion(number, text):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL  {text}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS  {text}")

        return wrapper

    return decorate


@criterion(1, "J=1 level frequencies (6431.06, 11363.01, 12212.15) MHz +- 0.01")
def test_criterion_01_level_frequencies():
    levels = rotor_levels(PROPANEDIOL, 1)
    assert levels[0].freq == pytest.approx(6431.06, abs=0.01)
    assert levels[1].freq == pytest.approx(11363.01, abs=0.01)
    assert levels[2].freq == pytest.approx(12212.15, abs=0.01)
    assert [level.tau for level in levels] == [-1, 0, 1]


@criterion(2, "triad transitions nu1=6431.06, nu2=5781.09, nu3=12212.15 MHz +- 0.01")
def test_criterion_02_transition_frequencies():
    a, b, c = TRIAD_A
    assert b.freq - a.freq == pytest.approx(6431.06, abs=0.01)
    assert c.freq - b.freq == pytest.approx(5781.09, abs=0.01)
    assert c.freq - a.freq == pytest.approx(12212.15, abs=0.01)


@criterion(3, "transition dipoles 0.693, 0.958, 0.211 Debye +- 0.001")
def test_criterion_03_transition_dipoles():
    a, b, c = TRIAD_A
    g1 = abs(reduced_matrix_element(b, a, PROPANEDIOL_DIPOLE).value)
    g2 = abs(reduced_matrix_element(c, b, PROPANEDIOL_DIPOLE).value)
    g3 = abs(reduced_matrix_element(c, a, PROPANEDIOL_DIPOLE).value)
    assert g1 / math.sqrt(3) == pytest.approx(0.693, abs=0.001)
    assert g2 / math.sqrt(6) == pytest.approx(0.958, abs=0.001)
    assert g3 / math.sqrt(3) == pytest.approx(0.211, abs=0.001)


@criterion(4, "amplitudes 1:0.75:2.75 give |O1|:|O2|:|O3| = 1:1.04:0.84 +- 0.01")
def test_criterion_04_rabi_ratios():
    for spec in (
        pure_loop_spec(TRIAD_A, PROPANEDIOL_DIPOLE, (1, -1, 0), (1.0, 0.75, 2.75)),
        linear_loop_spec(TRIAD_A, PROPANEDIOL_DIPOLE, (Z, X, Y), (1.0, 0.75, 2.75)),
    ):
        h = loop.build_single_loop(spec)
        o1, o2, o3 = abs(h.omega1), abs(h.omega2), abs(h.omega3)
        assert o1 / o1 == pytest.approx(1.0, abs=0.01)
        assert o2 / o1 == pytest.approx(1.04, abs=0.01)
        assert o3 / o1 == pytest.approx(0.84, abs=0.01)


@criterion(5, "pure-polarization enumeration reproduces the six-row table, all triads")
def test_criterion_05_table_reproduction():
    triads = [loop.Triad(*levels, PROPANEDIOL_DIPOLE) for levels in TRIADS.values()]
    for triad in triads:
        rows = loop.enumerate_pure_polarizations(triad)
        assert len(rows) == 27
        closed = [
            (r.sigma1, r.sigma2, r.sigma3, r.m_b, r.m_c) for r in rows if r.closed
        ]
        assert closed == list(loop.TABLE_ROWS)


@criterion(6, "Z,Z,Z rejected with ZeroRabi; middle coupling is an exact zero")
def test_criterion_06_zzz_structural_zero():
    spec = pure_loop_spec(TRIAD_A, PROPANEDIOL_DIPOLE, (0, 0, 0))
    with pytest.raises(loop.ZeroRabiError) as info:
        loop.build_single_loop(spec)
    assert info.value.omegas[1] == 0j
    # the root cause: the M=0 -> M=0 coupling coefficient vanishes identically
    assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0


@criterion(7, "10^4-sample check: linear triads close iff mutually orthogonal")
def test_criterion_07_orthogonality_theorem():
    rng = np.random.default_rng(20240814)
    triad = loop.Triad(*TRIAD_A, PROPANEDIOL_DIPOLE)
    # closed => orthogonal on random triads
    for _ in range(10_000):
        dirs = rng.normal(size=(3, 3))
        closed, _ = loop.verify_linear_orthogonality(*dirs, triad)
        if closed:
            units = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            dots = [abs(units[i] @ units[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
            assert max(dots) < 1e-8
    # orthogonal => closed on random rotations of (Z, X, Y)
    for _ in range(500):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        closed, residual = loop.verify_linear_orthogonality(q[:, 0], q[:, 1], q[:, 2], triad)
        assert closed, f"orthogonal triad not closed (residual {residual:.3e})"


@criterion(8, "closed-form cross couplings match Hamiltonian elements to 1e-12")
def test_criterion_08_closed_form_equivalence():
    rng = np.random.default_rng(8)
    a, b, c = TRIAD_A
    for _ in range(200):
        spec = random_loop_spec(rng, TRIAD_A, PROPANEDIOL_DIPOLE)
        ds = loop.dressed_states(spec)
        block = dynamics.coupling_block(c, b, spec.field2, PROPANEDIOL_DIPOLE)
        from_block = (
            complex(ds.c_prime.conj() @ block @ ds.b),
            complex(ds.c_dprime.conj() @ block @ ds.b),
            complex(ds.c.conj() @ block @ ds.b_prime),
            complex(ds.c.conj() @ block @ ds.b_dprime),
        )
        *closed_form, half_omega2 = reference_closed_form(spec)
        scale = float(np.abs(block).max())
        for x, y in zip(from_block, closed_form):
            assert abs(x - y) <= 1e-12 * scale
        omega2 = 2.0 * complex(ds.c.conj() @ block @ ds.b)
        assert abs(omega2 - 2.0 * half_omega2) <= 1e-12 * scale


@criterion(9, "closed configs: leakage and full-vs-reduced <= 1e-10; 5 deg tilt leaks > 1e-4")
def test_criterion_09_dynamical_closure():
    grid = np.linspace(0.0, 2.0, 101)
    circular = pure_loop_spec(TRIAD_A, PROPANEDIOL_DIPOLE, (1, -1, 0))
    linear = linear_loop_spec(TRIAD_A, PROPANEDIOL_DIPOLE, (Z, X, Y), (1.0, 0.75, 2.75))
    for spec in (circular, linear):
        assert dynamics.leakage(spec, (1, 0, 0), grid) <= 1e-10
        assert dynamics.compare_full_vs_reduced(spec, grid) <= 1e-10
    tilted = (math.cos(math.radians(5.0)), math.sin(math.radians(5.0)), 0.0)
    leaky = linear_loop_spec(
        TRIAD_A, PROPANEDIOL_DIPOLE, (Z, tilted, Y), (1.0, 0.75, 2.75)
    )
    assert dynamics.leakage(leaky, (1, 0, 0), grid) > 1e-4


@criterion(10, "exact R/L loop-product antipodality; population contrast > 0.1")
def test_criterion_10_chirality():
    # every closed configuration: exact sign flip of the loop product
    for sigmas_row in loop.TABLE_ROWS:
        sigmas = sigmas_row[:3]
        for amplitudes in ((1.0, 1.0, 1.0), (0.8, 1.9, 0.4)):
            spec = pure_loop_spec(TRIAD_A, PROPANEDIOL_DIPOLE, sigmas, amplitudes)
            right = loop.loop_product(loop.build_single_loop(spec))
            left = loop.loop_product(loop.build_single_loop(spec.mirrored()))
            assert right == -left
    zxy = linear_loop_spec(TRIAD_A, PROPANEDIOL_DIPOLE, (Z, X, Y), (1.0, 0.75, 2.75))
    assert loop.loop_product(loop.build_single_loop(zxy)) == -loop.loop_product(
        loop.build_single_loop(zxy.mirrored())
    )

    # equal-|Omega| resonant driving, one Rabi period
    a, b, c = TRIAD_A
    omega = 0.5  # MHz
    g1 = abs(reduced_matrix_element(b, a, PROPANEDIOL_DIPOLE).value)
    g2 = abs(reduced_matrix_element(c, b, PROPANEDIOL_DIPOLE).value)
    g3 = abs(reduced_matrix_element(c, a, PROPANEDIOL_DIPOLE).value)
    spec = pure_loop_spec(
        TRIAD_A,
        PROPANEDIOL_DIPOLE,
        (1, -1, 0),
        (
            omega * math.sqrt(3) / (g1 * DEBYE_VCM_TO_MHZ),
            omega * math.sqrt(6) / (g2 * DEBYE_VCM_TO_MHZ),
            omega * math.sqrt(3) / (g3 * DEBYE_VCM_TO_MHZ),
        ),
    )
    h = loop.build_single_loop(spec)
    assert abs(h.omega1) == pytest.approx(omega, rel=1e-12)
    assert abs(h.omega2) == pytest.approx(omega, rel=1e-12)
    assert abs(h.omega3) == pytest.approx(omega, rel=1e-12)
    period = 1.0 / omega
    contrast = 0.0
    for t in np.linspace(0.0, period, 81):
        right, left = dynamics.enantiomer_contrast(spec, float(t))
        contrast = max(contrast, abs(right[2] - left[2]))
    assert contrast > 0.1


@criterion(11, "property suites: 3j symmetries, rotor residuals, prolate limit, unitarity")
def test_criterion_11_property_suites():
    # 3j symmetries and orthogonality at 1e-12
    for j1 in range(3):
        for j2 in range(3):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        m3 = -m1 - m2
                        if abs(m3) > j3:
                            continue
                        value = wigner3j(j1, j2, j3, m1, m2, m3)
                        sign = (-1) ** (j1 + j2 + j3)
                        assert abs(wigner3j(j2, j3, j1, m2, m3, m1) - value) < 1e-12
                        assert abs(wigner3j(j2, j1, j3, m2, m1, m3) - sign * value) < 1e-12
                        assert (
                            abs(wigner3j(j1, j2, j3, -m1, -m2, -m3) - sign * value) < 1e-12
                        )
    for j3 in range(1, 4):
        for j3p in range(1, 4):
            for m3 in range(-j3, j3 + 1):
                for m3p in range(-j3p, j3p + 1):
                    total = sum(
                        (2 * j3 + 1)
                        * wigner3j(2, 1, j3, m1, m2, m3)
                        * wigner3j(2, 1, j3p, m1, m2, m3p)
                        for m1 in range(-2, 3)
                        for m2 in (-1, 0, 1)
                        if m1 + m2 + m3 == 0 and m1 + m2 + m3p == 0
                    )
                    expected = 1.0 if (j3, m3) == (j3p, m3p) else 0.0
                    assert abs(total - expected) < 1e-12

    # rotor eigen-residuals at 1e-9 relative
    rng = np.random.default_rng(31)
    for _ in range(20):
        c0, b0, a0 = sorted(rng.uniform(1.0, 10000.0, size=3))
        constants = RotationalConstants(A=2 * a0 + 2, B=b0 + 1, C=c0)
        for J in (0, 1, 2, 5):
            block = rotor_hamiltonian_block(constants, J)
            norm = max(np.linalg.norm(block), 1.0)
            for level in rotor_levels(constants, J):
                residual = np.linalg.norm(block @ level.coeffs - level.freq * level.coeffs)
                assert residual <= 1e-9 * norm

    # prolate-limit collapse (B -> C)
    import warnings

    from chiraloop.rotor import DegenerateLevelsWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLevelsWarning)
        levels = rotor_levels(RotationalConstants(A=10.0, B=2.0 + 1e-4, C=2.0), 2)
    expected = sorted(10.0 * K**2 + 2.0 * (6.0 - K**2) for K in range(-2, 3))
    assert np.allclose([level.freq for level in levels], expected, atol=1e-3)
    assert abs(levels[0].coeffs[2]) > 1 - 1e-5
    for level, K in ((levels[1], 1), (levels[2], 1), (levels[3], 2), (levels[4], 2)):
        plus = np.zeros(5)
        plus[K + 2] = plus[-K + 2] = 1 / math.sqrt(2)
        minus = np.zeros(5)
        minus[K + 2], minus[-K + 2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        assert max(abs(level.coeffs @ plus), abs(level.coeffs @ minus)) > 1 - 1e-5

    # unitarity of propagation at 1e-12 and the two-level analytic oracle
    spec = linear_loop_spec(TRIAD_A, PROPANEDIOL_DIPOLE, (Z, X, Y), (1.0, 0.75, 2.75))
    h7 = dynamics.assemble_full_hamiltonian(spec)
    psi = np.zeros(7, dtype=complex)
    psi[0] = 1.0
    for t in (0.37, 1.41, 7.3):
        assert abs(np.linalg.norm(dynamics.evolve(h7, psi, [t])[0]) - 1.0) < 1e-12
    h2 = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    start = np.array([1.0, 0.0], dtype=complex)
    for t in (0.1, 0.33, 0.5):
        upper = abs(dynamics.evolve(h2, start, [t])[0][1]) ** 2
        assert upper == pytest.approx(math.sin(math.pi * t) ** 2, abs=1e-10)
    assert abs(dynamics.evolve(h2, start, [0.5])[0][1]) ** 2 == pytest.approx(1.0, abs=1e-10)
