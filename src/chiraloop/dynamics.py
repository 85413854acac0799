"""Multi-sublevel dynamics on the 7-dimensional {a} + two-J=1 space.

Assembles the full resonant rotating-wave Hamiltonian over the ground
state and all six magnetic sublevels of the two J=1 levels, including the
spectator couplings that a would-be single loop must avoid, and evolves
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
from .fields import SIGMAS, DriveField
from .loop import LoopSpec, SingleLoopHamiltonian, dressed_states, loop_diagnostics
from .rotor import AsymTopLevel

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "coupling_block",
    "assemble_full_hamiltonian",
    "evolve",
    "loop_frame",
    "loop_populations",
    "leakage",
    "enantiomer_contrast",
    "compare_full_vs_reduced",
]

HERMITICITY_ATOL = 1e-14

# Time-grid rows `evolve` takes at once; bounds its temporaries at any grid length.
EVOLVE_BLOCK_ROWS = 2048


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
    """coupling_block of one drive with the reduced element gamma given, its
    amplitudes and e^(i phase) read over SIGMAS (amplitude 0 if absent)."""
    es = [cmath.exp(1j * field.phase(s)) for s in SIGMAS]
    return _stacked_coupling_block(upper, lower, gamma, [field.amplitude(s) for s in SIGMAS], es)


def assemble_full_hamiltonian(spec: LoopSpec) -> np.ndarray:
    """Full 7x7 resonant RWA Hamiltonian, MHz, over the kets a, then b and c
    with M = +1, 0, -1 each (indices 0, 1..3, 4..6).

    Drives 1, 2 and 3 address b <- a, c <- b and c <- a, the transitions
    LoopSpec tunes them to exactly (and, as Triad ensures, to no other),
    each with its leg's reduced element from spec.triad; all the
    polarization components of a drive couple every M-allowed sublevel pair
    of its transition, including branches outside the intended loop.
    """
    t = spec.triad
    legs = (
        (spec.field1, t.level_b, t.level_a, t.gamma_ba, slice(1, 4), slice(0, 1)),
        (spec.field2, t.level_c, t.level_b, t.gamma_cb, slice(4, 7), slice(1, 4)),
        (spec.field3, t.level_c, t.level_a, t.gamma_ca, slice(4, 7), slice(0, 1)),
    )
    h = np.zeros((7, 7), dtype=complex)
    for field, upper, lower, gamma, rows, cols in legs:
        block = _field_block(upper, lower, field, gamma)
        h[rows, cols] += block
        h[cols, rows] += block.conj().T
    return h


def evolve(h: np.ndarray, psi0: np.ndarray, times: ArrayLike) -> np.ndarray:
    """psi(t) = exp(-2 pi i H t) psi0 at every t of a 1-D grid, shape (n_t, dim).

    H is Hermitian (MHz), psi0 normalized, times finite, in us, and the
    largest phase, 2 pi max|E| max|t| over H's eigenvalues E, finite.  One
    eigendecomposition serves the whole grid, and t = 0 takes the same
    eigenvector route as every other time.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-8:
        raise ValueError("initial state must be normalized")
    scale = max(1.0, float(np.abs(h).max()))
    if not np.abs(h - h.conj().T).max() <= HERMITICITY_ATOL * scale:  # NaN fails too
        raise ValueError("operator is not Hermitian")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    evals, evecs = np.linalg.eigh(h)
    e_max, t_max = np.abs(evals).max(initial=0.0), np.abs(times).max(initial=0.0)
    with np.errstate(over="ignore"):  # an overflow is refused, not warned about
        finite = np.isfinite(2 * np.pi * e_max * t_max)
    if not finite:
        raise ValueError(f"phase 2 pi E t overflows: max |E| {e_max:.3e} MHz, max |t| {t_max:.3e} us")
    coeff0 = evecs.conj().T @ psi0
    out = np.empty((times.size, psi0.size), dtype=complex)
    for start in range(0, times.size, EVOLVE_BLOCK_ROWS):
        block = slice(start, start + EVOLVE_BLOCK_ROWS)
        coeffs = np.exp(-2j * np.pi * evals * times[block, None]) * coeff0
        # a stack of matrix-vector products, equal bit for bit to one
        # `evecs @ v` per time; a single matrix product sums in another order
        out[block] = (evecs @ coeffs[..., None])[..., 0]
    return out


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


def _loop_amplitudes(spec: LoopSpec, times: ArrayLike, psi0_in_loop) -> tuple:
    """The loop-frame state evolved under the full Hamiltonian, over (a, b, c), (n_t, 3), and
    the drives' loop_diagnostics.  A non_finite verdict is refused, for every caller."""
    if (verdict := loop_diagnostics(spec)).failure == "non_finite":
        raise ValueError("the drives' closure residuals or Rabi frequencies are not finite")
    frame = loop_frame(spec)
    psi = evolve(assemble_full_hamiltonian(spec), _initial_state(psi0_in_loop) @ frame, times)
    return (frame.conj() @ psi[..., None])[..., 0], verdict  # stacked, as in evolve


def loop_populations(spec: LoopSpec, times: ArrayLike, psi0_in_loop) -> np.ndarray:
    """Populations (P_a, P_b, P_c) of the dressed loop states, shape (n_t, 3).

    The loop-frame initial state evolves under the full 7-level
    Hamiltonian; whatever a row's sum lacks of 1 has leaked out of the loop.
    """
    return np.abs(_loop_amplitudes(spec, times, psi0_in_loop)[0]) ** 2


def _leakage_rows(pops: np.ndarray) -> np.ndarray:
    """1 - (P_a + P_b + P_c) per row of loop_populations; fmax, like max(0.0, x), maps NaN to 0."""
    return np.fmax(0.0, 1.0 - ((pops[:, 0] + pops[:, 1]) + pops[:, 2]))


def leakage(spec: LoopSpec, psi0_in_loop, t_grid: ArrayLike) -> float:
    """Worst population outside span{a, b, c} over the time grid.

    Essentially zero (< 1e-10) for closed configurations; order one for
    leaky ones with comparable Rabi frequencies.
    """
    return float(np.max(_leakage_rows(loop_populations(spec, t_grid, psi0_in_loop)), initial=0.0))


def enantiomer_contrast(
    spec: LoopSpec, t: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Loop-state populations (P_a, P_b, P_c) at time t for both enantiomers.

    Row 0 of loop_populations from the ground state |a>, for the spec and
    for its mirror image (the same drives act on both); at t = 0 exactly
    (1, 0, 0) for both, free of eigenvector rounding.
    """
    right, left = (loop_populations(s, [t], (1.0, 0.0, 0.0))[0] for s in (spec, spec.mirrored()))
    if t == 0.0:
        return (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    return tuple(map(float, right)), tuple(map(float, left))


def compare_full_vs_reduced(spec: LoopSpec, t_grid: ArrayLike,
                            psi0_in_loop=(1.0, 0.0, 0.0)) -> float:
    """Max difference between 7-level and 3-level loop propagation.

    Evolves the same loop-frame initial state under the full Hamiltonian
    (projected back onto the dressed frame) and under the 3x3 loop
    Hamiltonian built from the loop's Rabi frequencies.  For closed
    configurations the two agree to ~1e-10; for leaky ones the reduced
    model is a best-effort truncation and the difference is large.
    """
    projected, verdict = _loop_amplitudes(spec, t_grid, psi0_in_loop)
    h_loop = SingleLoopHamiltonian(*verdict.omegas).matrix()
    reduced = evolve(h_loop, _initial_state(psi0_in_loop), t_grid)
    return float(np.max(np.linalg.norm(projected - reduced, axis=1), initial=0.0))
