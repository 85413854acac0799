"""Multi-sublevel dynamics on the 7-dimensional {a} + two-J=1 space.

Assembles the full resonant rotating-wave Hamiltonian over the ground
state and all six magnetic sublevels of the two J=1 levels, including the
spectator couplings that a would-be single loop must avoid, and propagates
states by exact eigendecomposition (the Hamiltonian is time independent
under resonant driving).  Energies in MHz, times in microseconds, so the
accumulated phase is 2 pi H t with no hidden constants.  Coupling blocks
come from `dipole`, specs and dressed states from `loop`; neither imports back.
"""

from __future__ import annotations

import cmath
from typing import TYPE_CHECKING

import numpy as np

from .dipole import BodyDipole, _stacked_coupling_block, reduced_matrix_element
from .fields import DriveField
from .loop import RESONANCE_TOL_MHZ, LoopSpec, SingleLoopHamiltonian, dressed_states
from .loop import loop_diagnostics
from .rotor import AsymTopLevel

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "ResonanceAmbiguityError",
    "coupling_block",
    "assemble_full_hamiltonian",
    "require_hermitian",
    "evolve",
    "propagate",
    "loop_frame",
    "loop_populations",
    "leakage",
    "enantiomer_contrast",
    "compare_full_vs_reduced",
]

HERMITICITY_ATOL = 1e-14

# Time-grid rows `evolve` takes at once; bounds its temporaries at any grid length.
EVOLVE_BLOCK_ROWS = 2048


class ResonanceAmbiguityError(ValueError):
    """A drive frequency matches more than one level-pair transition."""


def coupling_block(
    upper: AsymTopLevel,
    lower: AsymTopLevel,
    field: DriveField,
    dipole: BodyDipole,
) -> np.ndarray:
    """Half-Rabi coupling block of one drive between two levels, MHz.

    Rows run over M_upper = +J..-J, columns over M_lower = +J..-J; entry
    (Mu, Ml) is Omega(Mu <- Ml)/2 summed over the field's polarization
    components.  Every Delta-M = sigma branch is included.
    """
    return _field_block(upper, lower, field, reduced_matrix_element(upper, lower, dipole).value)


def _field_block(upper: AsymTopLevel, lower: AsymTopLevel, field: DriveField, gamma: complex):
    """coupling_block of one drive with the reduced element gamma given."""
    components = [(s, amp, cmath.exp(1j * phase)) for s, (amp, phase) in field.comps.items()]
    return _stacked_coupling_block(upper, lower, gamma, components)


def assemble_full_hamiltonian(spec: LoopSpec) -> np.ndarray:
    """Full 7x7 resonant RWA Hamiltonian, MHz, over the kets a, then b and c
    with M = +1, 0, -1 each (indices 0, 1..3, 4..6).

    Drives 1, 2 and 3 address b <- a, c <- b and c <- a, the transitions
    LoopSpec holds them resonant with, each with its leg's reduced element
    from spec.triad; all the polarization components of a drive couple every
    M-allowed sublevel pair of its transition, including branches outside
    the intended loop.  Raises ResonanceAmbiguityError when a drive is also
    resonant, within 1e-3 MHz, with another transition.
    """
    t = spec.triad
    transitions = {("b", "a"): t.f_ba, ("c", "a"): t.f_ca, ("c", "b"): t.f_cb}
    legs = (
        (spec.field1, t.level_b, t.level_a, t.gamma_ba, slice(1, 4), slice(0, 1)),
        (spec.field2, t.level_c, t.level_b, t.gamma_cb, slice(4, 7), slice(1, 4)),
        (spec.field3, t.level_c, t.level_a, t.gamma_ca, slice(4, 7), slice(0, 1)),
    )
    h = np.zeros((7, 7), dtype=complex)
    for field, upper, lower, gamma, rows, cols in legs:
        matches = [k for k, f in transitions.items() if abs(field.freq - f) < RESONANCE_TOL_MHZ]
        if len(matches) > 1:
            raise ResonanceAmbiguityError(
                f"drive at {field.freq} MHz is resonant with transitions {matches}"
            )
        block = _field_block(upper, lower, field, gamma)
        h[rows, cols] += block
        h[cols, rows] += block.conj().T
    return h


def require_hermitian(h: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(h).max()))
    if not np.abs(h - h.conj().T).max() <= HERMITICITY_ATOL * scale:  # NaN fails too
        raise ValueError("operator is not Hermitian")


def evolve(h: np.ndarray, psi0: np.ndarray, times: ArrayLike) -> np.ndarray:
    """psi(t) = exp(-2 pi i H t) psi0 at every t of a 1-D grid, shape (n_t, dim).

    H is Hermitian (MHz), psi0 normalized, times finite, in us.  One
    eigendecomposition serves the whole grid, and t = 0 takes the same
    eigenvector route as every other time.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-8:
        raise ValueError("initial state must be normalized")
    require_hermitian(h)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    evals, evecs = np.linalg.eigh(h)
    coeff0 = evecs.conj().T @ psi0
    out = np.empty((times.size, psi0.size), dtype=complex)
    for start in range(0, times.size, EVOLVE_BLOCK_ROWS):
        block = slice(start, start + EVOLVE_BLOCK_ROWS)
        coeffs = np.exp(-2j * np.pi * evals * times[block, None]) * coeff0
        # a stack of matrix-vector products, equal bit for bit to one
        # `evecs @ v` per time; a single matrix product sums in another order
        out[block] = (evecs @ coeffs[..., None])[..., 0]
    return out


def propagate(h: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """psi(t) = exp(-2 pi i H t) psi0 for Hermitian H (MHz) and t in us.

    At t = 0 this is psi0 exactly, free of eigenvector rounding.
    """
    psi = evolve(h, psi0, [t])[0]
    return np.array(psi0, dtype=complex) if t == 0.0 else psi


def loop_frame(spec: LoopSpec) -> np.ndarray:
    """Rows (a, b, c) of the dressed loop states embedded in 7 dims."""
    ds = dressed_states(spec)
    frame = np.zeros((3, 7), dtype=complex)
    frame[0, 0] = 1.0
    frame[1, 1:4] = ds.b  # the ket order of assemble_full_hamiltonian
    frame[2, 4:7] = ds.c
    return frame


def _initial_state(psi0_in_loop) -> np.ndarray:
    """Normalized loop amplitudes over (a, b, c)."""
    psi3 = np.asarray(psi0_in_loop, dtype=complex)
    norm = np.linalg.norm(psi3)
    if norm == 0:
        raise ValueError("initial loop-state amplitudes are all zero")
    return psi3 / norm


def _loop_amplitudes(spec: LoopSpec, times: ArrayLike, psi0_in_loop) -> np.ndarray:
    """The loop-frame state evolved under the full Hamiltonian, over (a, b, c): (n_t, 3)."""
    frame = loop_frame(spec)
    psi = evolve(assemble_full_hamiltonian(spec), _initial_state(psi0_in_loop) @ frame, times)
    return (frame.conj() @ psi[..., None])[..., 0]  # stacked, as in evolve


def loop_populations(spec: LoopSpec, times: ArrayLike, psi0_in_loop) -> np.ndarray:
    """Populations (P_a, P_b, P_c) of the dressed loop states, shape (n_t, 3).

    The loop-frame initial state evolves under the full 7-level
    Hamiltonian; whatever a row's sum lacks of 1 has leaked out of the loop.
    """
    return np.abs(_loop_amplitudes(spec, times, psi0_in_loop)) ** 2


def leakage(spec: LoopSpec, psi0_in_loop, t_grid: ArrayLike) -> float:
    """Worst population outside span{a, b, c} over the time grid.

    Essentially zero (< 1e-10) for closed configurations; order one for
    leaky ones with comparable Rabi frequencies.
    """
    pops = loop_populations(spec, t_grid, psi0_in_loop)
    return float(np.max(1.0 - pops.sum(axis=1), initial=0.0))


def enantiomer_contrast(
    spec: LoopSpec, t: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Loop-state populations (P_a, P_b, P_c) at time t for both enantiomers.

    Starts from the ground state |a> and evolves under the full 7-level
    Hamiltonian built with the given dipole and with its mirror image; the
    same drives act on both.
    """
    result = []
    for s in (spec, spec.mirrored()):
        frame = loop_frame(s)
        h = assemble_full_hamiltonian(s)
        psi = propagate(h, frame[0], t)
        pops = np.abs(frame.conj() @ psi) ** 2
        result.append(tuple(float(p) for p in pops))
    return result[0], result[1]


def compare_full_vs_reduced(spec: LoopSpec, t_grid: ArrayLike,
                            psi0_in_loop=(1.0, 0.0, 0.0)) -> float:
    """Max difference between 7-level and 3-level loop propagation.

    Evolves the same loop-frame initial state under the full Hamiltonian
    (projected back onto the dressed frame) and under the 3x3 loop
    Hamiltonian built from the loop's Rabi frequencies.  For closed
    configurations the two agree to ~1e-10; for leaky ones the reduced
    model is a best-effort truncation and the difference is large.
    """
    projected = _loop_amplitudes(spec, t_grid, psi0_in_loop)
    h_loop = SingleLoopHamiltonian(*loop_diagnostics(spec).omegas).matrix()
    reduced = evolve(h_loop, _initial_state(psi0_in_loop), t_grid)
    return float(np.max(np.linalg.norm(projected - reduced, axis=1), initial=0.0))
