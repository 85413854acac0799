"""Shared fixtures: the bundled molecule, its triad levels, spec builders."""

import numpy as np
import pytest

from chiraloop.dipole import BodyDipole
from chiraloop.fields import linear_components
from chiraloop.loop import LoopSpec
from chiraloop.rotor import RotationalConstants, rotor_levels

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
    return LoopSpec.resonant(levels, dip, comps)


def linear_loop_spec(levels, dip, directions, amplitudes=(1.0, 1.0, 1.0), phases=(0.0, 0.0, 0.0)):
    comps = [
        linear_components(direction, amp, phase)
        for direction, amp, phase in zip(directions, amplitudes, phases)
    ]
    return LoopSpec.resonant(levels, dip, comps)


def random_loop_spec(rng, levels, dip):
    comps = [
        {sigma: (rng.uniform(0.05, 2.0), rng.uniform(-np.pi, np.pi)) for sigma in (-1, 0, 1)}
        for _ in range(3)
    ]
    return LoopSpec.resonant(levels, dip, comps)


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
