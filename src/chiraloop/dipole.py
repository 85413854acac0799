"""Body-frame electric dipole, reduced matrix elements, and Rabi frequencies.

The reduced element between two asymmetric-top levels contracts the
spherical dipole components with 3j coupling coefficients over both
prolate-basis expansions; it is independent of the lab-frame projection M
and of drive polarization.  Rabi frequencies are returned in MHz for field
amplitudes in V/cm and dipoles in Debye.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .rotor import AsymTopLevel
from .wigner import w_coupling

__all__ = [
    "DEBYE_VCM_TO_MHZ",
    "BodyDipole",
    "ReducedElement",
    "spherical_components",
    "enantiomer",
    "reduced_matrix_element",
    "symtop_reduced_element",
    "rabi_frequency",
]

# mu * E / h for mu = 1 Debye (3.33564e-30 C m) and E = 1 V/cm, in MHz:
# 3.33564e-30 * 1e2 / 6.62607015e-34 Hz = 0.50341136 MHz.
DEBYE_VCM_TO_MHZ = 3.33564e-30 * 1e2 / 6.62607015e-34 / 1e6

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BodyDipole:
    """Signed dipole components (Debye) along the molecular principal axes.

    The sign of the product mu_x*mu_y*mu_z is the axis-independent chirality
    indicator; it is meaningful only when all three components are nonzero.
    """

    mu_x: float
    mu_y: float
    mu_z: float

    def __post_init__(self):
        if not all(math.isfinite(mu) for mu in (self.mu_x, self.mu_y, self.mu_z)):
            raise ValueError("dipole components must be finite")

    @property
    def chirality_product(self) -> float:
        return self.mu_x * self.mu_y * self.mu_z


@dataclass(frozen=True)
class ReducedElement:
    """Polarization- and M-independent dipole factor of a rotational line.

    value is complex Debye (it can be imaginary under real eigenvector
    conventions); its magnitude and products around a loop are the
    convention-free quantities.
    """

    value: complex
    upper: tuple[int, int]
    lower: tuple[int, int]


def spherical_components(d: BodyDipole) -> tuple[complex, complex, complex]:
    """Spherical-basis dipole (mu_minus, mu_0, mu_plus).

    mu_0 = mu_z, mu_+ = (mu_x + i mu_y)/sqrt(2), mu_- = -(mu_x - i mu_y)/sqrt(2).
    """
    mu_plus = complex(d.mu_x, d.mu_y) / _SQRT2
    mu_minus = -complex(d.mu_x, -d.mu_y) / _SQRT2
    return mu_minus, complex(d.mu_z), mu_plus


def enantiomer(d: BodyDipole) -> BodyDipole:
    """Mirror-image molecule: negate mu_z (the canonical mirror here).

    Only the sign of mu_x*mu_y*mu_z is physical; it flips.
    """
    return BodyDipole(d.mu_x, d.mu_y, -d.mu_z)


def reduced_matrix_element(
    upper: AsymTopLevel, lower: AsymTopLevel, d: BodyDipole
) -> ReducedElement:
    """Reduced dipole element between two asymmetric-top levels, complex Debye.

    Exactly zero when |J_upper - J_lower| > 1 (triangle rule).
    """
    tag = ((upper.J, upper.tau), (lower.J, lower.tau))
    if abs(upper.J - lower.J) > 1:
        return ReducedElement(0j, *tag)
    mu_minus, mu_0, mu_plus = spherical_components(d)
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
            acc += sign * upper.coeff(ku) * lower.coeff(kl) * w
        total += mu_s * acc
    norm = math.sqrt((2 * upper.J + 1) * (2 * lower.J + 1))
    return ReducedElement(norm * total, *tag)


def symtop_reduced_element(
    J_a: int, K_a: int, J_b: int, K_b: int, d: BodyDipole
) -> complex:
    """Reduced element between symmetric-top states |J,K); complex Debye.

    The single coupling coefficient here enforces the K selection rule that
    blocks cyclic triads for symmetric tops: with only one nonzero dipole
    component, some leg of any candidate loop vanishes.
    """
    if abs(K_a) > J_a or abs(K_b) > J_b:
        raise ValueError("need |K| <= J on both states")
    if abs(J_a - J_b) > 1:
        return 0j
    mu_minus, mu_0, mu_plus = spherical_components(d)
    total = 0j
    for sig, mu_s in ((-1, mu_minus), (0, mu_0), (1, mu_plus)):
        if mu_s == 0:
            continue
        w = w_coupling(J_a, K_a, J_b, K_b, sig)
        if w == 0.0:
            continue
        sign = -1.0 if (sig - K_b) % 2 else 1.0
        total += sign * mu_s * w
    return math.sqrt((2 * J_a + 1) * (2 * J_b + 1)) * total


def rabi_frequency(
    upper: AsymTopLevel,
    M_upper: int,
    lower: AsymTopLevel,
    M_lower: int,
    sigma: int,
    amplitude_V_per_cm: float,
    phase_rad: float,
    d: BodyDipole,
    gamma: complex | None = None,
) -> complex:
    """Complex Rabi frequency (MHz) of one sigma-polarized drive component.

    Exactly 0 when M_upper - M_lower != sigma or the coupling coefficient
    vanishes; otherwise
    (-1)^(M_lower+sigma) E e^(i phase) W Gamma scaled to MHz.

    `gamma` may carry a precomputed reduced element for the level pair
    (callers looping over M sublevels avoid recomputing it).
    """
    if amplitude_V_per_cm < 0:
        raise ValueError("field amplitude must be >= 0")
    w = w_coupling(upper.J, M_upper, lower.J, M_lower, sigma)
    if w == 0.0:
        return 0j
    if gamma is None:
        gamma = reduced_matrix_element(upper, lower, d).value
    sign = -1.0 if (M_lower + sigma) % 2 else 1.0
    return (
        sign
        * amplitude_V_per_cm
        * DEBYE_VCM_TO_MHZ
        * cmath.exp(1j * phase_rad)
        * w
        * gamma
    )
