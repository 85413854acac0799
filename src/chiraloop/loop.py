"""Single-loop cyclic three-level configurations on a (J=0, J=1, J=1) triad.

Fields 1 and 3 single out one superposition each of the three magnetic
sublevels of the two J=1 levels (the dressed states b and c).  The loop
a -> b -> c -> a is "single" (no couplings leave its span) exactly when the
four cross matrix elements of the middle drive between the dressed states
and their orthogonal partners vanish.  This module builds dressed states,
evaluates those closure conditions two independent ways, assembles the
3-level loop Hamiltonian, enumerates the pure-polarization loop table, and
verifies the linear-polarization orthogonality criterion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .dipole import DEBYE_VCM_TO_MHZ, BodyDipole, enantiomer, reduced_matrix_element
from .fields import DriveField, linear_components
from .rotor import AsymTopLevel

__all__ = [
    "DEFAULT_CLOSURE_TOL_MHZ",
    "RESONANCE_TOL_MHZ",
    "NotClosedError",
    "ZeroRabiError",
    "LoopSpec",
    "DressedStates",
    "SingleLoopHamiltonian",
    "LoopDiagnostics",
    "LoopCandidate",
    "TABLE_ROWS",
    "dressed_states",
    "closure_conditions",
    "closure_conditions_closed_form",
    "build_single_loop",
    "loop_diagnostics",
    "loop_product",
    "enumerate_pure_polarizations",
    "verify_linear_orthogonality",
]

# Residuals below this are treated as algebraically closed; genuine
# selection-rule zeros evaluate to exactly 0.0, so this only has to beat
# floating-point noise in trigonometric cancellations.
DEFAULT_CLOSURE_TOL_MHZ = 1e-9

RESONANCE_TOL_MHZ = dynamics.RESONANCE_TOL_MHZ

_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)


class NotClosedError(ValueError):
    """Some closure residual exceeds tolerance: the configuration leaks."""

    def __init__(self, max_residual: float, tol: float):
        self.max_residual = max_residual
        self.tol = tol
        super().__init__(
            f"configuration is not a single loop: max closure residual "
            f"{max_residual:.3e} MHz >= {tol:.1e} MHz"
        )


class ZeroRabiError(ValueError):
    """Some loop Rabi frequency vanishes: the loop is open, not cyclic."""

    def __init__(self, omegas: tuple[complex, complex, complex], tol: float):
        self.omegas = omegas
        self.tol = tol
        mags = ", ".join(f"{abs(o):.3e}" for o in omegas)
        super().__init__(f"loop is open: |Omega| = ({mags}) MHz with tol {tol:.1e}")


@dataclass(frozen=True)
class LoopSpec:
    """Three levels, three resonant drives, one molecule-frame dipole.

    level_a must be the J=0 ground level; level_b and level_c are J=1 with
    f_c > f_b.  Each field must be resonant with its transition (1 <-> b-a,
    2 <-> c-b, 3 <-> c-a) within RESONANCE_TOL_MHZ.
    """

    level_a: AsymTopLevel
    level_b: AsymTopLevel
    level_c: AsymTopLevel
    field1: DriveField
    field2: DriveField
    field3: DriveField
    dipole: BodyDipole

    def __post_init__(self):
        if self.level_a.J != 0:
            raise ValueError("level_a must have J = 0")
        if self.level_b.J != 1 or self.level_c.J != 1:
            raise ValueError("level_b and level_c must have J = 1")
        if not (self.level_c.freq > self.level_b.freq > self.level_a.freq):
            raise ValueError("levels must be ordered f_c > f_b > f_a")
        for name, f, target in (
            ("field1", self.field1, self.f_ba),
            ("field2", self.field2, self.f_cb),
            ("field3", self.field3, self.f_ca),
        ):
            if abs(f.freq - target) >= RESONANCE_TOL_MHZ:
                raise ValueError(
                    f"{name} at {f.freq} MHz is not resonant with its "
                    f"transition at {target} MHz"
                )

    @classmethod
    def resonant(
        cls, levels: tuple[AsymTopLevel, AsymTopLevel, AsymTopLevel], dipole: BodyDipole, comps
    ) -> "LoopSpec":
        """The triad (a, b, c) under three drives tuned to b-a, c-b and c-a.

        comps holds one {sigma: (amplitude, phase)} dict per drive, in that
        order (DriveField's own component format).
        """
        a, b, c = levels
        freqs = (b.freq - a.freq, c.freq - b.freq, c.freq - a.freq)
        f1, f2, f3 = (DriveField(freq, comp) for freq, comp in zip(freqs, comps))
        return cls(a, b, c, f1, f2, f3, dipole)

    @property
    def f_ba(self) -> float:
        return self.level_b.freq - self.level_a.freq

    @property
    def f_cb(self) -> float:
        return self.level_c.freq - self.level_b.freq

    @property
    def f_ca(self) -> float:
        return self.level_c.freq - self.level_a.freq

    def mirrored(self) -> "LoopSpec":
        """Same fields and levels, opposite enantiomer."""
        return replace(self, dipole=enantiomer(self.dipole))


@dataclass(frozen=True)
class DressedStates:
    """Field-selected sublevel superpositions, amplitudes over M = (+1, 0, -1).

    {b, b_prime, b_dprime} and {c, c_prime, c_dprime} are orthonormal bases
    of the two J=1 sublevel triples; only b and c join the loop.
    """

    b: np.ndarray
    b_prime: np.ndarray
    b_dprime: np.ndarray
    c: np.ndarray
    c_prime: np.ndarray
    c_dprime: np.ndarray


@dataclass(frozen=True)
class SingleLoopHamiltonian:
    """The three complex Rabi frequencies (MHz) of a verified single loop."""

    omega1: complex
    omega2: complex
    omega3: complex

    def matrix(self) -> np.ndarray:
        """3x3 loop Hamiltonian over (a, b, c), MHz."""
        o1, o2, o3 = self.omega1, self.omega2, self.omega3
        return 0.5 * np.array(
            [
                [0.0, o1.conjugate(), o3.conjugate()],
                [o1, 0.0, o2.conjugate()],
                [o3, o2, 0.0],
            ],
            dtype=complex,
        )


def _field_trig(f: DriveField) -> tuple[float, float, float, float]:
    """(sin theta, cos theta, sin phi, cos phi) as exact amplitude ratios.

    Computed directly from the component amplitudes rather than through
    acos/cos round trips, so absent components give exact structural zeros.
    """
    total = f.total
    e_plus, e_zero, e_minus = f.amplitude(1), f.amplitude(0), f.amplitude(-1)
    ct = e_minus / total
    perp = math.hypot(e_plus, e_zero)
    st = perp / total
    if perp > 0.0:
        cp, sp = e_plus / perp, e_zero / perp
    else:
        cp, sp = 1.0, 0.0
    return st, ct, sp, cp


def _dressed_triple(f: DriveField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    st, ct, sp, cp = _field_trig(f)
    e_plus = cmath.exp(1j * f.phase(1))
    e_zero = cmath.exp(1j * f.phase(0))
    e_minus = cmath.exp(1j * f.phase(-1))
    main = np.array([st * cp * e_plus, st * sp * e_zero, ct * e_minus])
    prime = np.array([sp * e_plus, -cp * e_zero, 0.0j])
    dprime = np.array([ct * cp * e_plus, ct * sp * e_zero, -st * e_minus])
    return main, prime, dprime


def dressed_states(spec: LoopSpec) -> DressedStates:
    """Dressed states of the two J=1 levels, defined by fields 1 and 3.

    b is the superposition field 1 actually drives from the ground state
    (amplitudes E_sigma e^{i phi_sigma} / E); b', b'' complete it to an
    orthonormal triple, and likewise c, c', c'' from field 3.
    """
    b, bp, bpp = _dressed_triple(spec.field1)
    c, cp, cpp = _dressed_triple(spec.field3)
    return DressedStates(b=b, b_prime=bp, b_dprime=bpp, c=c, c_prime=cp, c_dprime=cpp)


def closure_conditions(spec: LoopSpec) -> tuple[complex, complex, complex, complex]:
    """The four cross couplings (<c'|H|b>, <c''|H|b>, <c|H|b'>, <c|H|b''>), MHz.

    All four must vanish for the dressed loop to decouple from the other
    sublevels.  These are the residuals of loop_diagnostics, which checks
    them against the closed-form route.
    """
    return loop_diagnostics(spec).residuals


def _sandwich(bra: np.ndarray, block: np.ndarray, ket: np.ndarray) -> complex:
    return complex(bra.conj() @ block @ ket)


def _ph(x: float) -> complex:
    return cmath.exp(1j * x)


def _closed_form_inputs(spec: LoopSpec):
    """Field trig, phases (phi_+1, phi_0, phi_-1) and the field-2 prefactor."""
    fields = (spec.field1, spec.field2, spec.field3)
    trig = tuple(_field_trig(f) for f in fields)
    phases = tuple((f.phase(1), f.phase(0), f.phase(-1)) for f in fields)
    gamma = reduced_matrix_element(spec.level_c, spec.level_b, spec.dipole).value
    pref = gamma * spec.field2.total * DEBYE_VCM_TO_MHZ / (2.0 * _SQRT6)
    return trig, phases, pref


def closure_conditions_closed_form(spec: LoopSpec) -> tuple[complex, complex, complex, complex]:
    """Closed-form route to the four cross couplings (MHz).

    Written out in the (theta, phi) field angles; independent of the
    matrix assembly path and used as its oracle.
    """
    trig, phases, pref = _closed_form_inputs(spec)
    (st1, ct1, sf1, cf1), (st2, ct2, sf2, cf2), (st3, ct3, sf3, cf3) = trig
    (a1, z1, m1), (a2, z2, m2), (a3, z3, m3) = phases
    c_prime_b = pref * (
        ct1 * st2 * cf2 * cf3 * _ph(m1 + a2 - z3)
        - st1 * sf1 * st2 * cf2 * sf3 * _ph(z1 + a2 - a3)
        + st1 * cf1 * st2 * sf2 * sf3 * _ph(a1 + z2 - a3)
        - st1 * cf1 * ct2 * cf3 * _ph(a1 + m2 - z3)
    )
    c_dprime_b = pref * (
        -ct1 * st2 * cf2 * ct3 * sf3 * _ph(m1 + a2 - z3)
        + ct1 * st2 * sf2 * st3 * _ph(m1 + z2 - m3)
        - st1 * sf1 * st2 * cf2 * ct3 * cf3 * _ph(z1 + a2 - a3)
        - st1 * sf1 * ct2 * st3 * _ph(z1 + m2 - m3)
        + st1 * cf1 * st2 * sf2 * ct3 * cf3 * _ph(a1 + z2 - a3)
        + st1 * cf1 * ct2 * ct3 * sf3 * _ph(a1 + m2 - z3)
    )
    c_b_prime = pref * (
        cf1 * st2 * cf2 * st3 * cf3 * _ph(z1 + a2 - a3)
        - cf1 * ct2 * ct3 * _ph(z1 + m2 - m3)
        + sf1 * st2 * sf2 * st3 * cf3 * _ph(a1 + z2 - a3)
        + sf1 * ct2 * st3 * sf3 * _ph(a1 + m2 - z3)
    )
    c_b_dprime = pref * (
        st1 * st2 * cf2 * st3 * sf3 * _ph(m1 + a2 - z3)
        + st1 * st2 * sf2 * ct3 * _ph(m1 + z2 - m3)
        - ct1 * sf1 * st2 * cf2 * st3 * cf3 * _ph(z1 + a2 - a3)
        + ct1 * sf1 * ct2 * ct3 * _ph(z1 + m2 - m3)
        + ct1 * cf1 * st2 * sf2 * st3 * cf3 * _ph(a1 + z2 - a3)
        + ct1 * cf1 * ct2 * st3 * sf3 * _ph(a1 + m2 - z3)
    )
    return c_prime_b, c_dprime_b, c_b_prime, c_b_dprime


def omega2_closed_form(spec: LoopSpec) -> complex:
    """Closed-form middle Rabi frequency 2 <c|H2|b>, MHz."""
    trig, phases, pref = _closed_form_inputs(spec)
    (st1, ct1, sf1, cf1), (st2, ct2, sf2, cf2), (st3, ct3, sf3, cf3) = trig
    (a1, z1, m1), (a2, z2, m2), (a3, z3, m3) = phases
    half_omega2 = pref * (
        -ct1 * st2 * cf2 * st3 * sf3 * _ph(m1 + a2 - z3)
        - ct1 * st2 * sf2 * ct3 * _ph(m1 + z2 - m3)
        - st1 * sf1 * st2 * cf2 * st3 * cf3 * _ph(z1 + a2 - a3)
        + st1 * sf1 * ct2 * ct3 * _ph(z1 + m2 - m3)
        + st1 * cf1 * st2 * sf2 * st3 * cf3 * _ph(a1 + z2 - a3)
        + st1 * cf1 * ct2 * st3 * sf3 * _ph(a1 + m2 - z3)
    )
    return 2.0 * half_omega2


@dataclass(frozen=True)
class LoopDiagnostics:
    """Everything a closure verdict rests on, for reporting and tables."""

    omegas: tuple[complex, complex, complex]
    residuals: tuple[complex, complex, complex, complex]
    max_residual: float
    closed: bool
    failure: str | None  # None, "non_finite", "not_closed", or "zero_rabi"


def loop_diagnostics(spec: LoopSpec, tol: float = DEFAULT_CLOSURE_TOL_MHZ) -> LoopDiagnostics:
    """Residuals, Rabi frequencies, and the closure verdict for a candidate.

    The residuals and Omega2 are sandwiches of one field-2 coupling block
    between the dressed states; the residuals are cross-checked against
    the closed-form route, which must agree to 1e-12 relative.  The verdict
    fails closed: a NaN or infinite residual or Rabi frequency (say, from
    an overflowing amplitude) is never closed.
    """
    ds = dressed_states(spec)
    block = dynamics.coupling_block(spec.level_c, spec.level_b, spec.field2, spec.dipole)
    residuals = (
        _sandwich(ds.c_prime, block, ds.b),
        _sandwich(ds.c_dprime, block, ds.b),
        _sandwich(ds.c, block, ds.b_prime),
        _sandwich(ds.c, block, ds.b_dprime),
    )
    closed_form = closure_conditions_closed_form(spec)
    scale = max(np.abs(block).max(), 1e-300)
    worst = max(abs(x - y) for x, y in zip(residuals, closed_form))
    if worst > 1e-12 * scale:
        raise RuntimeError(f"internal inconsistency: closure routes differ by {worst:.3e} MHz")
    max_residual = max(abs(r) for r in residuals)

    gamma_ba = reduced_matrix_element(spec.level_b, spec.level_a, spec.dipole).value
    gamma_ca = reduced_matrix_element(spec.level_c, spec.level_a, spec.dipole).value
    omega1 = -gamma_ba * spec.field1.total * DEBYE_VCM_TO_MHZ / _SQRT3
    omega3 = -gamma_ca * spec.field3.total * DEBYE_VCM_TO_MHZ / _SQRT3
    omega2 = 2.0 * _sandwich(ds.c, block, ds.b)
    omegas = (omega1, omega2, omega3)

    if not all(cmath.isfinite(x) for x in (*residuals, *omegas)):
        failure = "non_finite"
    elif max_residual >= tol:
        failure = "not_closed"
    elif min(abs(o) for o in omegas) <= tol:
        failure = "zero_rabi"
    else:
        failure = None
    return LoopDiagnostics(
        omegas=omegas,
        residuals=residuals,
        max_residual=max_residual,
        closed=failure is None,
        failure=failure,
    )


def build_single_loop(
    spec: LoopSpec, tol: float = DEFAULT_CLOSURE_TOL_MHZ
) -> SingleLoopHamiltonian:
    """Verify closure and return the loop's three Rabi frequencies.

    Raises NotClosedError when a residual reaches tol (the configuration
    is multi-loop / leaky) and ZeroRabiError when some |Omega| <= tol (the
    cycle is broken, e.g. three parallel Z drives); ValueError when a
    residual or Rabi frequency is not finite.
    """
    diag = loop_diagnostics(spec, tol)
    if diag.failure == "non_finite":
        raise ValueError("closure residuals or Rabi frequencies are not finite")
    if diag.failure == "not_closed":
        raise NotClosedError(diag.max_residual, tol)
    if diag.failure == "zero_rabi":
        raise ZeroRabiError(diag.omegas, tol)
    return SingleLoopHamiltonian(*diag.omegas)


def loop_product(h: SingleLoopHamiltonian) -> complex:
    """Gauge-invariant loop quantity Omega1 * Omega2 * conj(Omega3), MHz^3.

    Invariant under independent phase redefinitions of the three loop
    states; its sign (phase) flips between enantiomers.
    """
    return h.omega1 * h.omega2 * h.omega3.conjugate()


@dataclass(frozen=True)
class LoopCandidate:
    """One pure-polarization candidate row of the loop table."""

    sigma1: int
    sigma2: int
    sigma3: int
    m_b: int
    m_c: int
    closed: bool
    omega_abs: tuple[float, float, float]
    max_residual: float


# The six pure-polarization loops, in presentation order:
# (sigma1, sigma2, sigma3, M_b, M_c)
TABLE_ROWS = (
    (1, -1, 0, 1, 0),
    (-1, 1, 0, -1, 0),
    (0, 1, 1, 0, 1),
    (0, -1, -1, 0, -1),
    (-1, 0, -1, -1, -1),
    (1, 0, 1, 1, 1),
)


def enumerate_pure_polarizations(
    levels: tuple[AsymTopLevel, AsymTopLevel, AsymTopLevel],
    dipole: BodyDipole,
    tol: float = DEFAULT_CLOSURE_TOL_MHZ,
) -> list[LoopCandidate]:
    """Try all 27 single-component polarization triples on the triad.

    With unit amplitudes, exactly the six TABLE_ROWS close (for a dipole
    with all components nonzero); the dressed states are then single
    sublevels with M_b = sigma1 and M_c = sigma3.  Closed rows come first,
    in TABLE_ROWS order, then the rejected rows lexicographically.
    """
    rows = []
    for s1 in (-1, 0, 1):
        for s2 in (-1, 0, 1):
            for s3 in (-1, 0, 1):
                comps = [{s: (1.0, 0.0)} for s in (s1, s2, s3)]
                spec = LoopSpec.resonant(levels, dipole, comps)
                diag = loop_diagnostics(spec, tol)
                rows.append(
                    LoopCandidate(
                        sigma1=s1,
                        sigma2=s2,
                        sigma3=s3,
                        m_b=s1,
                        m_c=s3,
                        closed=diag.closed,
                        omega_abs=tuple(abs(o) for o in diag.omegas),
                        max_residual=diag.max_residual,
                    )
                )

    def order(row: LoopCandidate):
        key = (row.sigma1, row.sigma2, row.sigma3, row.m_b, row.m_c)
        for i, table_key in enumerate(TABLE_ROWS):
            if key == table_key:
                return (0, i)
        return (1, key)

    rows.sort(key=order)
    return rows


def verify_linear_orthogonality(
    dir1,
    dir2,
    dir3,
    levels: tuple[AsymTopLevel, AsymTopLevel, AsymTopLevel],
    dipole: BodyDipole,
    amplitude: float = 1.0,
    tol: float = DEFAULT_CLOSURE_TOL_MHZ,
) -> tuple[bool, float]:
    """Closure verdict for three linearly polarized drives along dir1..3.

    Returns (closed, max closure residual in MHz).  Closed requires both
    vanishing residuals and three nonzero Rabi frequencies; it holds
    exactly when the three directions are mutually orthogonal.
    """
    comps = [linear_components(d, amplitude, 0.0) for d in (dir1, dir2, dir3)]
    diag = loop_diagnostics(LoopSpec.resonant(levels, dipole, comps), tol)
    return diag.closed, diag.max_residual
