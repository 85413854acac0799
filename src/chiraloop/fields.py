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
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ZeroVectorError",
    "DriveField",
    "PolarizationAngles",
    "linear_components",
    "linear_polarization",
    "polarization_angles",
]

SIGMAS = (1, 0, -1)


class ZeroVectorError(ValueError):
    """A polarization direction has (numerically) zero length."""


def _wrap_phase(phi: float) -> float:
    phi = phi % (2.0 * math.pi)
    if phi > math.pi:
        phi -= 2.0 * math.pi
    return phi


@dataclass(frozen=True)
class DriveField:
    """Monochromatic drive: freq in MHz, per-sigma (amplitude V/cm, phase rad)."""

    freq: float
    comps: dict[int, tuple[float, float]] = field(default_factory=dict)

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
        object.__setattr__(self, "comps", norm)

    @classmethod
    def pure(cls, sigma: int, amplitude: float, freq: float, phase: float = 0.0) -> "DriveField":
        return cls(freq=freq, comps={sigma: (amplitude, phase)})

    def amplitude(self, sigma: int) -> float:
        return self.comps.get(sigma, (0.0, 0.0))[0]

    def phase(self, sigma: int) -> float:
        return self.comps.get(sigma, (0.0, 0.0))[1]

    def complex_amplitude(self, sigma: int) -> complex:
        """E_sigma e^{i phi_sigma} (the factor entering upward couplings)."""
        amp, phase = self.comps.get(sigma, (0.0, 0.0))
        return amp * cmath.exp(1j * phase) if amp else 0j

    @property
    def total(self) -> float:
        """Total amplitude sqrt(sum_sigma E_sigma^2), V/cm."""
        return math.sqrt(sum(a * a for a, _ in self.comps.values()))


class PolarizationAngles(NamedTuple):
    """(theta, phi) parametrization of the amplitude triple, plus phases.

    sin(theta)cos(phi) = E_+1/E, sin(theta)sin(phi) = E_0/E,
    cos(theta) = E_-1/E; both angles lie in [0, pi/2] because amplitudes
    are non-negative.  phases = (phi_+1, phi_0, phi_-1).
    """

    theta: float
    phi: float
    phases: tuple[float, float, float]


def linear_components(
    direction: Iterable[float], amplitude: float, phase: float
) -> dict[int, tuple[float, float]]:
    """{sigma: (amplitude, phase)} of a field linearly polarized along `direction`.

    The direction is normalized internally.  The spherical components are
    the projections of amplitude * e^{-i phase} * direction onto the basis
    vectors, so reconstructing the real field gives amplitude * direction *
    cos(2 pi nu t + phase) exactly.
    """
    n = np.asarray(tuple(direction), dtype=float)
    if n.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    length = float(np.linalg.norm(n))
    if length < 1e-300:
        raise ZeroVectorError("polarization direction has zero length")
    n = n / length
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")

    c = amplitude * cmath.exp(-1j * phase)
    sqrt2 = math.sqrt(2.0)
    projections = {
        1: c * complex(n[0], -n[1]) / sqrt2,
        0: c * n[2],
        -1: -c * complex(n[0], n[1]) / sqrt2,
    }
    return {sigma: (abs(a), -cmath.phase(a)) for sigma, a in projections.items() if a != 0}


def linear_polarization(
    direction: Iterable[float], amplitude: float, phase: float, freq: float
) -> DriveField:
    """Field at `freq` linearly polarized along `direction` (see linear_components)."""
    return DriveField(freq, linear_components(direction, amplitude, phase))


def polarization_angles(f: DriveField) -> PolarizationAngles:
    total = f.total
    ratio = min(1.0, max(-1.0, f.amplitude(-1) / total))
    theta = math.acos(ratio)
    phi = math.atan2(f.amplitude(0), f.amplitude(1))
    return PolarizationAngles(
        theta=theta, phi=phi, phases=(f.phase(1), f.phase(0), f.phase(-1))
    )
