"""Body-frame electric dipole, reduced matrix elements, and the Rabi convention.

The reduced element between two asymmetric-top levels contracts the
spherical dipole components with 3j coupling coefficients over both
prolate-basis expansions; it is independent of the lab-frame projection M
and of drive polarization.  The coupling terms that survive the selection
rules depend only on the two J values, so they are tabulated once per
(J_upper, J_lower) pair; each element sums the part at its levels' K parities.
The same table, read over M instead of K, gives the Delta-M = sigma
entries of every lab-frame coupling block (`_stacked_coupling_block`,
which `loop` and `dynamics` call with a drive's amplitudes and e^(i phase)
over sigma = +1, 0, -1, amplitude 0 if absent), and DEBYE_VCM_TO_MHZ turns
field amplitudes in V/cm and dipoles in Debye into Rabi frequencies in MHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import SIGMAS, _complex, _mul
from .rotor import AsymTopLevel
from .wigner import w_coupling

__all__ = [
    "DEBYE_VCM_TO_MHZ",
    "BodyDipole",
    "ReducedElement",
    "spherical_components",
    "enantiomer",
    "reduced_matrix_element",
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
        # Once per dipole: every reduced element of it reads them.
        object.__setattr__(self, "_spherical", spherical_components(self))

    @property
    def chirality_product(self) -> float:
        return self.mu_x * self.mu_y * self.mu_z


class ReducedElement(NamedTuple):
    """Polarization- and M-independent dipole factor of a rotational line.

    value is complex Debye (it can be imaginary under real eigenvector
    conventions); its magnitude and products around a loop are the
    convention-free quantities.
    """

    value: complex


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


@lru_cache(maxsize=None)
def _coupling_terms(J_u: int, J_l: int) -> tuple[float, tuple]:
    """The norm sqrt((2 J_u + 1)(2 J_l + 1)) of the reduced element between
    blocks J_u and J_l, and its terms grouped as [p_u][p_l][sigma + 1] by the
    K parities of K_u and K_l: (K_u index, K_l index, sign * W) in ascending
    K_u, for every K_l = K_u - sigma whose coupling coefficient W is nonzero.

    Indices address a level's coeffs (K + J); sign is (-1)^(sigma - K_l).
    As K_l = K_u - sigma, a group of equal parities holds only sigma = 0
    terms and one of unequal parities only sigma = +-1 terms.
    W = w_coupling(J_u, K_u, J_l, K_l, sigma) is the same function of (M_u,
    M_l) as of (K_u, K_l), and (-1)^(sigma - M_l) is the block's phase
    (-1)^(M_l + sigma), so _stacked_coupling_block reads each coupling
    block's Delta-M = sigma entries from all four groups, while
    reduced_matrix_element reads only its levels' group.  Only
    |J_u - J_l| <= 1 asks for a table, so the cache holds at most 3 per J.
    """
    groups = [[([], [], []), ([], [], [])], [([], [], []), ([], [], [])]]
    for sig in (-1, 0, 1):
        for ku in range(-J_u, J_u + 1):
            if abs(kl := ku - sig) <= J_l and (w := w_coupling(J_u, ku, J_l, kl, sig)) != 0.0:
                term = (ku + J_u, kl + J_l, -w if (sig - kl) % 2 else w)
                groups[ku % 2][kl % 2][sig + 1].append(term)
    frozen = tuple(tuple(tuple(map(tuple, by_sigma)) for by_sigma in row) for row in groups)
    return math.sqrt((2 * J_u + 1) * (2 * J_l + 1)), frozen


def reduced_matrix_element(
    upper: AsymTopLevel, lower: AsymTopLevel, d: BodyDipole
) -> ReducedElement:
    """Reduced dipole element between two asymmetric-top levels, complex Debye.

    Sums c_upper(K_u) * c_lower(K_l) * (sign * W) over the pair's tabulated
    coupling terms per sigma, then contracts with the spherical dipole.
    Terms off the levels' k_parity multiply a coefficient of exactly +-0.0,
    so only the levels' parity group is read and every bit stays.  The
    coefficients come from each level's coeff_tuple, one conversion that
    every element of the level reads.  Exactly zero when |J_upper -
    J_lower| > 1 (triangle rule).
    """
    if abs(upper.J - lower.J) > 1:
        return ReducedElement(0j)
    norm, groups = _coupling_terms(upper.J, lower.J)
    cu, cl = upper.coeff_tuple, lower.coeff_tuple
    total = 0j
    for mu_s, terms in zip(d._spherical, groups[upper.k_parity][lower.k_parity]):
        if mu_s == 0:
            continue
        acc = 0.0
        for iu, il, w in terms:
            acc += cu[iu] * cl[il] * w
        total += mu_s * acc
    return ReducedElement(norm * total)


def _stacked_coupling_block(
    upper: AsymTopLevel, lower: AsymTopLevel, gamma: complex, amps, es
) -> np.ndarray:
    """Half-Rabi coupling block of one drive or a stack, MHz, shape
    (..., 2J_upper+1, 2J_lower+1), rows and columns over M = +J..-J.

    amps[k] and es[k] are the drive's amplitude and e^(i phase) at sigma =
    SIGMAS[k], floats or arrays of a stack's shape, amplitude 0 if absent.
    Entry (M_upper, M_lower) belongs to sigma = M_upper - M_lower alone and is
    half of (-1)^(M_lower+sigma) E e^(i phase) W Gamma, with gamma the reduced
    element and the signed W of the J pair's _coupling_terms, so an absent
    sigma adds only +-0.0 to entries that start at +0.0 (gamma finite).  Complex
    products go through fields._mul: a stack gets its single drives' bits.
    """
    # entry axes first while filling, so one drive's entries are floats
    re, im = np.zeros((2, 2 * upper.J + 1, 2 * lower.J + 1, *np.shape(amps[0])))
    if abs(upper.J - lower.J) <= 1:  # else the triangle rule leaves all zeros
        groups = _coupling_terms(upper.J, lower.J)[1]
        # a table index K + J read as M + J; rows and columns run M = +J..-J
        last_u, last_l = 2 * upper.J, 2 * lower.J
        g = (gamma.real, gamma.imag)
        for sigma, amp, e in zip(SIGMAS, amps, es):
            rabi = _mul((amp * DEBYE_VCM_TO_MHZ, 0.0), (e.real, e.imag))
            for row in groups:
                for group in row:
                    for iu, il, w in group[sigma + 1]:
                        half_re, half_im = _mul((0.5, 0.0), _mul(_mul(rabi, (w, 0.0)), g))
                        re[last_u - iu, last_l - il] += half_re
                        im[last_u - iu, last_l - il] += half_im
    return np.ascontiguousarray(_complex(re, im).transpose(*range(2, re.ndim), 0, 1))
