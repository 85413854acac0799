"""Rigid asymmetric-top rotor: per-J Hamiltonian blocks and their eigenpairs.

The Hamiltonian h(A Jz^2 + B Jx^2 + C Jy^2) is built block by block in the
prolate symmetric-top basis |J,K), K = -J..J, and diagonalized in the Wang
sub-blocks of (|K) +- |-K))/sqrt(2) (Wang, Phys. Rev. 34, 243 (1929)).
Energies are stored as frequencies (MHz).  Levels within a J block are
labeled by tau = -J..J in order of increasing energy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RangeError",
    "OrderingError",
    "DegenerateLevelsWarning",
    "RotationalConstants",
    "AsymTopLevel",
    "rotor_hamiltonian_block",
    "rotor_levels",
    "transition_frequency",
]

DEGENERACY_TOL_MHZ = 1e-6


class RangeError(ValueError):
    """Rotational constants do not satisfy A >= B >= C > 0."""


class OrderingError(ValueError):
    """Transition endpoints are not ordered upper above lower."""


class DegenerateLevelsWarning(UserWarning):
    """Two eigenvalues are (nearly) equal; their tau order is not physically defined."""

    def __init__(self, J: int):
        self.J = J
        super().__init__(
            f"degenerate levels in J={J} block; their tau order is not physically defined"
        )


@dataclass(frozen=True)
class RotationalConstants:
    """Rotational constants A >= B >= C in MHz.

    Strict A > B > C is what makes tau labels unambiguous; equalities are
    accepted (prolate/spherical limits) and flagged per level block via
    DegenerateLevelsWarning.
    """

    A: float
    B: float
    C: float

    def __post_init__(self):
        if not (self.A >= self.B >= self.C > 0.0):
            raise RangeError(
                f"require A >= B >= C > 0, got A={self.A}, B={self.B}, C={self.C}"
            )


@dataclass(eq=False)
class AsymTopLevel:
    """One asymmetric-top level |J,tau> with its prolate-basis expansion.

    coeffs[k] is the amplitude on |J, K=k-J); the vector is normalized,
    real, and phase-fixed so its first nonzero entry (scanning K = -J..J)
    is positive.
    """

    J: int
    tau: int
    freq: float
    coeffs: np.ndarray


def rotor_hamiltonian_block(constants: RotationalConstants, J: int) -> np.ndarray:
    """Real symmetric (2J+1)x(2J+1) Hamiltonian block in the |J,K) basis, MHz.

    Nonzero elements: <K|H|K> = A K^2 + (B+C)/2 (J(J+1) - K^2) and the
    K <-> K+-2 couplings (B-C)/4 sqrt(J(J+1)-K(K+-1)) sqrt(J(J+1)-(K+-1)(K+-2)).
    """
    if J < 0:
        raise ValueError(f"J must be >= 0, got {J}")
    K = np.arange(-J, J + 1)
    Kn = K[:-2]  # the K of each K <-> K+2 coupling
    jj = J * (J + 1)
    # Huge constants overflow to inf here; rotor_levels reports that as an error.
    with np.errstate(over="ignore", invalid="ignore"):
        diag = constants.A * K * K + 0.5 * (constants.B + constants.C) * (jj - K * K)
        off = 0.25 * (constants.B - constants.C) * np.sqrt(jj - Kn * (Kn + 1))
        off = off * np.sqrt(jj - (Kn + 1) * (Kn + 2))
    h = np.diag(diag)
    i = np.arange(K.size - 2)
    h[i, i + 2] = h[i + 2, i] = off
    return h


# Wang sub-blocks E+, E-, O+, O- as (sign, smallest K); each holds the
# combinations (|K) + sign |-K))/sqrt(2) for K, K+2, ... <= J.
_WANG_BLOCKS = ((1, 0), (-1, 2), (1, 1), (-1, 1))


def rotor_levels(constants: RotationalConstants, J: int) -> list[AsymTopLevel]:
    """All 2J+1 levels of the J block, sorted ascending in energy.

    tau runs -J..J in that order.  The block splits exactly into the four
    Wang sub-blocks E+, E-, O+, O- of the basis (|K) +- |-K))/sqrt(2), so
    every level has c(K) = +-c(-K) exactly.  Each tridiagonal sub-block is
    diagonalized by numpy.linalg.eigh.  Levels are ordered by a stable
    sort on frequency over the sub-blocks in that fixed order, so exact
    ties keep a deterministic order; near ties (< 1e-6 MHz) emit a
    DegenerateLevelsWarning.  Raises ValueError when a level frequency is
    not finite.
    """
    block = rotor_hamiltonian_block(constants, J)
    n = 2 * J + 1
    root_half = 1.0 / np.sqrt(2.0)
    vals, rows = [], []  # per Wang sub-block: eigenvalues, eigenvectors as rows
    # Huge constants overflow to inf or NaN here; the finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for sign, k0 in _WANG_BLOCKS:
            if k0 > J:
                continue
            d = block.diagonal()[J + k0 :: 2].copy()
            if k0 == 1:
                d[0] += sign * block[J + 1, J - 1]  # <1+-|H|1+-) = <1|H|1) +- <1|H|-1)
            coeffs = np.zeros((d.size, n))
            if d.size == 1:  # a single state is its own eigenvector
                w = d
                coeffs[0, J - k0] = root_half if k0 else 1.0
                coeffs[0, J + k0] = sign * coeffs[0, J - k0]  # the same entry when K = 0
            else:
                e = block.diagonal(2)[J + k0 :: 2].copy()
                if k0 == 0:
                    e[0] *= np.sqrt(2.0)  # <0|H|2+) = sqrt(2) <0|H|2)
                tri = np.diag(d)
                tri.flat[1 :: d.size + 1] = e
                tri.flat[d.size :: d.size + 1] = e
                w, vecs = np.linalg.eigh(tri)
                coeffs[:, J + k0 :: 2] = vecs.T * root_half
                coeffs[:, J - k0 :: -2] = sign * coeffs[:, J + k0 :: 2]
                if k0 == 0:
                    coeffs[:, J] = vecs[0]
            vals.append(w)
            rows.append(coeffs)
    freqs = np.concatenate(vals)
    order = np.argsort(freqs, kind="stable")
    freqs, coeffs = freqs[order], np.concatenate(rows)[order]
    if not np.isfinite(freqs).all():
        raise ValueError(f"J={J} levels are not finite: the rotational constants overflow")
    if (np.diff(freqs) < DEGENERACY_TOL_MHZ).any():
        warnings.warn(DegenerateLevelsWarning(J), stacklevel=2)

    # Phase: the first coefficient (K = -J..J) above 1e-10 of its row's largest is positive.
    size = np.abs(coeffs)
    first = (size > 1e-10 * size.max(axis=1, keepdims=True)).argmax(axis=1)
    flip = coeffs[np.arange(n), first] < 0
    coeffs[flip] = -coeffs[flip]
    return [
        AsymTopLevel(J=J, tau=tau, freq=freq, coeffs=vec)
        for tau, freq, vec in zip(range(-J, J + 1), freqs, coeffs)
    ]


def transition_frequency(upper: AsymTopLevel, lower: AsymTopLevel) -> float:
    """Strictly positive transition frequency upper.freq - lower.freq, MHz;
    OrderingError unless upper.freq > lower.freq (so also on a NaN)."""
    if not upper.freq > lower.freq:
        raise OrderingError(
            f"upper level at {upper.freq} MHz is not above lower at {lower.freq} MHz"
        )
    return upper.freq - lower.freq
