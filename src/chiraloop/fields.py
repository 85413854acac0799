"""Drive fields in the spherical polarization basis.

A field is a frequency plus (amplitude, phase) per spherical component
sigma in {-1, 0, +1}; the real field is Re{ sum_s eps_s E_s e^{-i(2 pi nu t
+ phi_s)} } with eps_0 = e_Z and eps_+-1 = -+(e_X +- i e_Y)/sqrt(2).
Amplitudes are stored non-negative (signs are folded into phases) and
phases canonicalized to (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ZeroVectorError",
    "DriveField",
    "linear_components",
    "stacked_linear_components",
]

SIGMAS = (1, 0, -1)

_TOTAL_UNDERFLOW = "drive amplitudes underflow: the total amplitude of a drive is 0"


class ZeroVectorError(ValueError):
    """A polarization direction has (numerically) zero length."""


def _real(values, name: str) -> np.ndarray:
    """values as a float array; complex ones are refused, not cut to their real parts."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, got complex values")
    return np.asarray(values, dtype=float)


def _wrap_phase(phi):
    """phi mapped into (-pi, pi]; elementwise on arrays, with the same bits."""
    phi = phi % (2.0 * math.pi)
    return phi - 2.0 * math.pi * (phi > math.pi)


def _sum_of_squares(e_plus, e_zero, e_minus):
    """(E_+1^2 + E_0^2) + E_-1^2 in that order, on floats or arrays.

    An explicit fold, not sum(), whose float rounding varies between Python
    versions; every drive total is the square root of this.
    """
    return (e_plus * e_plus + e_zero * e_zero) + e_minus * e_minus


def _mul(a, b):
    """a * b for (real, imag) pairs of floats or arrays, a real x entering as
    (x, 0.0).  One drive and a stack of drives multiply through it, so they
    agree bit for bit, signed zeros and NaNs included, on every interpreter."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _div_real(a, x):
    """a / x for a (real, imag) pair and a real x, as _mul is for products."""
    ar, ai = a
    return (ar + ai * 0.0) / x, (ai - ar * 0.0) / x


def _complex(re, im) -> np.ndarray:
    """The complex array re + i im, assembled without complex arithmetic."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


@dataclass(frozen=True)
class DriveField:
    """Monochromatic drive: freq in MHz, per-sigma (amplitude V/cm, phase rad), read-only."""

    freq: float
    comps: Mapping[int, tuple[float, float]]

    def __post_init__(self):
        if not math.isfinite(self.freq):
            raise ValueError(f"drive frequency must be finite, got {self.freq}")
        norm: dict[int, tuple[float, float]] = {}
        for sigma, (amp, phase) in self.comps.items():
            if sigma not in SIGMAS:
                raise ValueError(f"polarization component sigma={sigma} not in -1,0,+1")
            if not (math.isfinite(amp) and math.isfinite(phase)):
                raise ValueError(f"sigma={sigma}: amplitude and phase must be finite")
            if amp < 0:
                amp, phase = -amp, phase + math.pi
            if amp > 0:
                norm[sigma] = (amp, _wrap_phase(phase))
        if not norm:
            raise ValueError("drive field needs at least one nonzero amplitude")
        object.__setattr__(self, "comps", MappingProxyType(norm))

    def amplitude(self, sigma: int) -> float:
        return self.comps.get(sigma, (0.0, 0.0))[0]

    def phase(self, sigma: int) -> float:
        return self.comps.get(sigma, (0.0, 0.0))[1]

    @property
    def total(self) -> float:
        """Total amplitude sqrt(sum_sigma E_sigma^2), V/cm.

        Raises ValueError when the squares underflow to a total of 0, which
        every quantity normalized by the total would divide by.
        """
        total = math.sqrt(_sum_of_squares(self.amplitude(1), self.amplitude(0), self.amplitude(-1)))
        if total == 0.0:
            raise ValueError(_TOTAL_UNDERFLOW)
        return total


def _spherical_projections(amplitude: float, phase: float, n0, n1, n2):
    """(real, imag) pairs of the sigma = +1, 0, -1 projections of
    amplitude * e^{-i phase} * (n0, n1, n2), on floats or arrays.

    Each is computed as Python computes c * complex(n0, -n1) / sqrt(2),
    c * n2 and -c * complex(n0, n1) / sqrt(2) for c = amplitude *
    cmath.exp(-1j * phase).
    """
    c = amplitude * cmath.exp(-1j * phase)
    c, neg_c, sqrt2 = (c.real, c.imag), (-c.real, -c.imag), math.sqrt(2.0)
    return (
        _div_real(_mul(c, (n0, -n1)), sqrt2),
        _mul(c, (n2, 0.0)),
        _div_real(_mul(neg_c, (n0, n1)), sqrt2),
    )


def linear_components(
    direction: Iterable[float], amplitude: float, phase: float
) -> dict[int, tuple[float, float]]:
    """{sigma: (amplitude, phase)} of a field linearly polarized along `direction`.

    The direction is normalized internally.  The spherical components are
    the projections of amplitude * e^{-i phase} * direction onto the basis
    vectors, so reconstructing the real field gives amplitude * direction *
    cos(2 pi nu t + phase) exactly.  Raises ValueError for a complex or
    non-finite direction, a negative or non-finite amplitude, or a non-finite phase.
    """
    n = _real(tuple(direction), "direction")
    if n.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if not np.isfinite(n).all():
        raise ValueError("direction must be finite")
    length = float(np.linalg.norm(n))
    if length < 1e-300:
        raise ZeroVectorError("polarization direction has zero length")
    n = n / length
    if not (math.isfinite(phase) and 0 <= amplitude < math.inf):
        raise ValueError("amplitude must be finite and >= 0, phase finite")

    projections = _spherical_projections(amplitude, phase, *n.tolist())
    values = {sigma: complex(*pair) for sigma, pair in zip(SIGMAS, projections)}
    return {sigma: (abs(a), -cmath.phase(a)) for sigma, a in values.items() if a != 0}


def stacked_linear_components(directions) -> tuple[np.ndarray, np.ndarray]:
    """linear_components(direction, 1.0, 0.0) of each row of `directions`,
    shape (N, 3), as amplitudes and phases of shape (N, 3) over sigma =
    (+1, 0, -1).

    An absent component has amplitude 0 and phase 0.  Every value has the
    bits linear_components gives it.  Raises ValueError for a complex or
    non-finite direction.
    """
    n = _real(directions, "directions")
    if n.ndim != 2 or n.shape[1] != 3:
        raise ValueError("directions must be an (N, 3) array")
    if not np.isfinite(n).all():
        raise ValueError("directions must be finite")
    # row by row the dot product np.linalg.norm takes of one vector
    length = np.sqrt(n[:, None, :] @ n[:, :, None])[:, 0, 0]
    if (length < 1e-300).any():
        raise ZeroVectorError("polarization direction has zero length")
    n = n / length[:, None]

    amps, phases = np.empty((2, len(n), 3))
    for k, pair in enumerate(_spherical_projections(1.0, 0.0, *n.T)):
        values = _complex(*pair).tolist()
        amps[:, k] = np.fromiter(map(abs, values), float, len(values))
        phases[:, k] = np.fromiter((-cmath.phase(a) for a in values), float, len(values))
    phases[amps == 0.0] = 0.0
    return amps, phases
