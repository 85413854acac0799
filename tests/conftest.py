"""Shared fixtures: the bundled molecule, its triad levels, spec builders,
the map between a drive and its Cartesian vector, and the written-out per-K
reduced element, Rabi frequency, closed-form closure route and scalar closure
verdict used as oracles."""

import cmath
import math

import numpy as np
import pytest

from chiraloop import dynamics, loop
from chiraloop.dipole import DEBYE_VCM_TO_MHZ, BodyDipole, reduced_matrix_element
from chiraloop.dipole import spherical_components
from chiraloop.fields import SIGMAS, _mul, linear_components
from chiraloop.loop import LoopSpec, Triad
from chiraloop.rotor import RotationalConstants, rotor_levels
from chiraloop.wigner import w_coupling

PROPANEDIOL = RotationalConstants(A=8572.05, B=3640.10, C=2790.96)
PROPANEDIOL_DIPOLE = BodyDipole(mu_x=1.916, mu_y=0.365, mu_z=1.201)

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


@pytest.fixture(scope="session")
def constants():
    return PROPANEDIOL


@pytest.fixture(scope="session")
def dipole():
    return PROPANEDIOL_DIPOLE


@pytest.fixture(scope="session")
def ground(constants):
    return rotor_levels(constants, 0)[0]


@pytest.fixture(scope="session")
def j1_levels(constants):
    return {level.tau: level for level in rotor_levels(constants, 1)}


@pytest.fixture(scope="session")
def triad_a(ground, j1_levels):
    """(a, b, c) = (|0,0>, |1,-1>, |1,1>), the worked-example triad."""
    return ground, j1_levels[-1], j1_levels[1]


def pure_loop_spec(levels, dip, sigmas, amplitudes=(1.0, 1.0, 1.0), phases=(0.0, 0.0, 0.0)):
    comps = [{s: (amp, phase)} for s, amp, phase in zip(sigmas, amplitudes, phases)]
    return LoopSpec(Triad(*levels, dip), comps)


def linear_loop_spec(levels, dip, directions, amplitudes=(1.0, 1.0, 1.0), phases=(0.0, 0.0, 0.0)):
    comps = [
        linear_components(direction, amp, phase)
        for direction, amp, phase in zip(directions, amplitudes, phases)
    ]
    return LoopSpec(Triad(*levels, dip), comps)


def random_loop_spec(rng, levels, dip):
    comps = [
        {sigma: (rng.uniform(0.05, 2.0), rng.uniform(-np.pi, np.pi)) for sigma in (-1, 0, 1)}
        for _ in range(3)
    ]
    return LoopSpec(Triad(*levels, dip), comps)


# eps_+1, eps_0 and eps_-1 of the fields convention, one per row, over (X, Y, Z)
SPHERICAL_BASIS = np.array([[-1.0, -1j, 0.0], [0.0, 0.0, math.sqrt(2.0)], [1.0, -1j, 0.0]])
SPHERICAL_BASIS /= math.sqrt(2.0)


def drive_vector(comps):
    """The complex Cartesian vector sum_s eps_s E_s e^{-i phi_s} of a drive's
    {sigma: (amplitude, phase)}, as the fields module defines its components."""
    parts = [comps.get(sigma, (0.0, 0.0)) for sigma in SIGMAS]
    return np.array([amp * cmath.exp(-1j * phase) for amp, phase in parts]) @ SPHERICAL_BASIS


def drive_components(vector):
    """The {sigma: (amplitude, phase)} of a complex Cartesian drive vector, its
    projections on the eps_s: the inverse of drive_vector."""
    projections = (SPHERICAL_BASIS.conj() @ vector).tolist()
    return {sigma: (abs(a), -cmath.phase(a)) for sigma, a in zip(SIGMAS, projections)}


def reference_reduced_element(upper, lower, d):
    """The reduced element of two levels on the per-K route: one w_coupling
    and two coefficient reads per term, every K_u in ascending order.
    Oracle for reduced_matrix_element, which must match it bit for bit."""
    if abs(upper.J - lower.J) > 1:
        return 0j
    mu_minus, mu_0, mu_plus = spherical_components(d)
    cu, cl = upper.coeffs.tolist(), lower.coeffs.tolist()
    total = 0j
    for sig, mu_s in ((-1, mu_minus), (0, mu_0), (1, mu_plus)):
        if mu_s == 0:
            continue
        acc = 0.0
        for ku in range(-upper.J, upper.J + 1):
            kl = ku - sig  # coupling coefficient vanishes otherwise
            if abs(kl) > lower.J:
                continue
            w = w_coupling(upper.J, ku, lower.J, kl, sig)
            if w == 0.0:
                continue
            sign = -1.0 if (sig - kl) % 2 else 1.0
            acc += sign * cu[ku + upper.J] * cl[kl + lower.J] * w
        total += mu_s * acc
    norm = math.sqrt((2 * upper.J + 1) * (2 * lower.J + 1))
    return norm * total


def reference_rabi(upper, m_upper, lower, m_lower, sigma, amplitude, phase, d):
    """Omega(M_upper <- M_lower) of one sigma component, MHz, in plain complex
    arithmetic: (-1)^(M_lower + sigma) E e^(i phase) W Gamma, or exactly 0
    when the coupling coefficient W vanishes.  Oracle for the entries of
    dynamics.coupling_block, which must be half of it bit for bit."""
    w = w_coupling(upper.J, m_upper, lower.J, m_lower, sigma)
    if w == 0.0:
        return 0j
    sign = -1.0 if (m_lower + sigma) % 2 else 1.0
    gamma = reduced_matrix_element(upper, lower, d).value
    return sign * amplitude * DEBYE_VCM_TO_MHZ * cmath.exp(1j * phase) * w * gamma


def reference_dressed(f):
    """Dressed triple (main, prime, dprime) of one drive as three complex
    vectors over sigma = +1, 0, -1, one amplitude at a time."""
    st, ct, sp, cp = loop._field_trig(f.amplitude(1), f.amplitude(0), f.amplitude(-1), f.total)
    phase_factors = (cmath.exp(1j * f.phase(sigma)) for sigma in (1, 0, -1))
    e_plus, e_zero, e_minus = ((e.real, e.imag) for e in phase_factors)

    def times(x, e_sigma):
        return complex(*_mul((x, 0.0), e_sigma))

    return (
        np.array([times(st * cp, e_plus), times(st * sp, e_zero), times(ct, e_minus)]),
        np.array([times(sp, e_plus), times(-cp, e_zero), 0j]),
        np.array([times(ct * cp, e_plus), times(ct * sp, e_zero), times(-st, e_minus)]),
    )


def reference_closed_form(spec):
    """The four cross couplings <c'|H2|b>, <c''|H2|b>, <c|H2|b'>, <c|H2|b''> and
    <c|H2|b>, half of Omega2, of one spec on the closed-form route, MHz:
    loop._closed_form of the drives' field trigonometry, component phases and
    field-2 prefactor.  Oracle for the matrix route."""
    fields = (spec.field1, spec.field2, spec.field3)
    trig = tuple(loop._field_trig(*(f.amplitude(s) for s in SIGMAS), f.total) for f in fields)
    phases = [[f.phase(s) for s in SIGMAS] for f in fields]
    pref = loop._closed_form_prefactor(spec.triad.gamma_cb, spec.field2.total)
    return tuple(complex(x) for x in loop._closed_form(trig, phases, pref))


def reference_diagnostics(spec):
    """The closure verdict of one spec on the scalar route: complex dressed
    vectors, dynamics.coupling_block, one sandwich per cross coupling and
    one for <c|H2|b>, the closed-form cross-check of all five and the
    verdict rule.  Oracle for both loop_diagnostics and Triad.diagnostics,
    which must match it bit for bit."""
    b, b_prime, b_dprime = reference_dressed(spec.field1)
    c, c_prime, c_dprime = reference_dressed(spec.field3)
    t = spec.triad
    block = dynamics.coupling_block(t.level_c, t.level_b, spec.field2, t.dipole)

    def sandwich(bra, ket):
        return complex(bra.conj() @ block @ ket)

    residuals = (
        sandwich(c_prime, b), sandwich(c_dprime, b), sandwich(c, b_prime), sandwich(c, b_dprime)
    )
    closed_form = reference_closed_form(spec)
    scale = max(np.abs(block).max(), 1e-300)
    checked = (*residuals, sandwich(c, b))
    assert not max(abs(x - y) for x, y in zip(checked, closed_form)) > 1e-12 * scale
    gamma_ba, gamma_ca = (
        reduced_matrix_element(upper, t.level_a, t.dipole).value for upper in (t.level_b, t.level_c)
    )
    omegas = loop._omegas(gamma_ba, gamma_ca, spec.field1.total, spec.field3.total, sandwich(c, b))
    return loop._verdict(residuals, tuple(complex(*omega) for omega in omegas))


def rk4_propagate(h, psi0, t, steps=4000):
    """Fixed-step RK4 for d psi/dt = -2 pi i H psi; independent oracle."""
    h = np.asarray(h, dtype=complex)
    psi = np.asarray(psi0, dtype=complex).copy()
    dt = t / steps
    for _ in range(steps):
        k1 = -2j * np.pi * (h @ psi)
        k2 = -2j * np.pi * (h @ (psi + 0.5 * dt * k1))
        k3 = -2j * np.pi * (h @ (psi + 0.5 * dt * k2))
        k4 = -2j * np.pi * (h @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi
