"""Single-loop cyclic three-level configurations on a (J=0, J=1, J=1) triad.

Fields 1 and 3 single out one superposition each of the three magnetic
sublevels of the two J=1 levels (the dressed states b and c).  The loop
a -> b -> c -> a is "single" (no couplings leave its span) exactly when the
four cross matrix elements of the middle drive between the dressed states
and their orthogonal partners vanish.  This module builds dressed states,
evaluates those closure conditions two independent ways, assembles the
3-level loop Hamiltonian, enumerates the pure-polarization loop table, and
verifies the linear-polarization orthogonality criterion.  One verdict goes
through `loop_diagnostics(spec)`; many drives on one triad go through
`Triad.diagnostics`, which stacks them.  Both run the one verdict body,
`Triad._verdicts`, and so give the same verdicts bit for bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dipole import DEBYE_VCM_TO_MHZ, BodyDipole, _stacked_coupling_block, enantiomer
from .dipole import reduced_matrix_element
from .fields import SIGMAS, _TOTAL_UNDERFLOW, DriveField, _div_real, _mul, _real, _wrap_phase
from .fields import _sum_of_squares, linear_components
from .rotor import AsymTopLevel, transition_frequency

__all__ = [
    "DEFAULT_CLOSURE_TOL_MHZ",
    "LOOP_BATCH_ROWS",
    "RESONANCE_TOL_MHZ",
    "NotClosedError",
    "ZeroRabiError",
    "ResonanceAmbiguityError",
    "LoopSpec",
    "Triad",
    "DressedStates",
    "SingleLoopHamiltonian",
    "LoopDiagnostics",
    "LoopCandidate",
    "TABLE_ROWS",
    "dressed_states",
    "build_single_loop",
    "loop_diagnostics",
    "loop_product",
    "loop_phase",
    "enumerate_pure_polarizations",
    "verify_linear_orthogonality",
]

# Residuals below this are treated as algebraically closed; genuine
# selection-rule zeros evaluate to exactly 0.0, so this only has to beat
# floating-point noise in trigonometric cancellations.
DEFAULT_CLOSURE_TOL_MHZ = 1e-9

# Triad refuses two transitions closer than twice this: one drive could address both.
RESONANCE_TOL_MHZ = 1e-3

# Drive rows `Triad.diagnostics` evaluates at once; bounds its temporaries
# at any batch size.
LOOP_BATCH_ROWS = 512

_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

# (i, j) of <c'|H2|b>, <c''|H2|b>, <c|H2|b'>, <c|H2|b''> and <c|H2|b> among the
# <c_i|H2|b_j>: the four residuals, then half of Omega2
_CHECKED_SANDWICHES = (np.array([1, 2, 0, 0, 0]), np.array([0, 0, 1, 2, 0]))


class NotClosedError(ValueError):
    """Some closure residual reaches DEFAULT_CLOSURE_TOL_MHZ (in MHz or of min |Omega|): it leaks."""

    def __init__(self, max_residual: float):
        self.max_residual = max_residual
        super().__init__(
            f"configuration is not a single loop: max closure residual {max_residual:.3e} MHz is "
            f"not below both {DEFAULT_CLOSURE_TOL_MHZ:.1e} MHz and that times the smallest |Omega|"
        )


class ZeroRabiError(ValueError):
    """Some loop Rabi frequency vanishes: the loop is open, not cyclic."""

    def __init__(self, omegas: tuple[complex, complex, complex]):
        self.omegas = omegas
        mags = ", ".join(f"{abs(o):.3e}" for o in omegas)
        super().__init__(
            f"loop is open: |Omega| = ({mags}) MHz with tol {DEFAULT_CLOSURE_TOL_MHZ:.1e}"
        )


class ResonanceAmbiguityError(ValueError):
    """Two transitions of a triad lie so close that one drive can be resonant with both."""


def _per_drive(func, *iterables) -> list:
    """list(map(func, *iterables)) over drives 1, 2, 3, in that order; a
    ValueError it raises names its drive ("drive 2: ...")."""
    out = []
    for n, args in enumerate(zip(*iterables), 1):
        try:
            out.append(func(*args))
        except ValueError as exc:
            raise ValueError(f"drive {n}: {exc}") from exc
    return out


@dataclass(frozen=True)
class LoopSpec:
    """A triad (its levels and dipole) under three resonant drives.

    comps, given only to the constructor, holds one {sigma: (amplitude, phase)}
    dict per drive (DriveField's own component format); the spec keeps only
    field1, field2 and field3, its validated drives at exactly f_ba, f_cb and
    f_ca, and so, as Triad ensures, resonant with no other transition.
    """

    triad: Triad
    comps: InitVar[tuple]
    field1: DriveField = field(init=False)
    field2: DriveField = field(init=False)
    field3: DriveField = field(init=False)

    def __post_init__(self, comps):
        comps = tuple(comps)
        if len(comps) != 3:
            raise ValueError(f"a LoopSpec takes three drives' components, got {len(comps)}")
        t = self.triad
        drives = _per_drive(DriveField, (t.f_ba, t.f_cb, t.f_ca), comps)
        for name, drive in zip(("field1", "field2", "field3"), drives):
            object.__setattr__(self, name, drive)

    def mirrored(self) -> "LoopSpec":
        """The same drives and levels on the mirror triad: the opposite enantiomer."""
        mirror = replace(self.triad, dipole=enantiomer(self.triad.dipole))
        return LoopSpec(mirror, [f.comps for f in (self.field1, self.field2, self.field3)])


class DressedStates(NamedTuple):
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


class SingleLoopHamiltonian(NamedTuple):
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


def _field_trig(e_plus, e_zero, e_minus, total):
    """(sin theta, cos theta, sin phi, cos phi) as exact amplitude ratios,
    of one drive (floats) or a stack (arrays) with component amplitudes
    E_+1, E_0, E_-1 and total amplitude `total`.

    Computed directly from the component amplitudes rather than through
    acos/cos round trips, so absent components give exact structural zeros.
    """
    ct = e_minus / total
    perp = _hypot(e_plus, e_zero)
    st = perp / total
    no_perp = perp == 0.0  # then E_+1 = E_0 = 0, and cos phi is 1
    perp = perp + no_perp
    return st, ct, e_zero / perp, e_plus / perp + no_perp


def _hypot(x, y):
    """math.hypot of floats, or of arrays elementwise (np.hypot can differ in the last bit)."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(math.hypot, x.tolist(), y.tolist())), dtype=float)
    return math.hypot(x, y)


def _drive_arrays(spec: LoopSpec):
    """A spec's drives as [drive][sigma] amplitudes and phases, and totals[drive],
    over drives 1, 2, 3 and sigma = +1, 0, -1, as each DriveField reads them."""
    fields = (spec.field1, spec.field2, spec.field3)
    amps = [[f.amplitude(sigma) for sigma in SIGMAS] for f in fields]
    phis = [[f.phase(sigma) for sigma in SIGMAS] for f in fields]
    return amps, phis, _per_drive(lambda f: f.total, fields)


def _dressed(trig1, trig3, e1, e3) -> np.ndarray:
    """The dressed triples (main, prime, dprime) of drives 1 and 3 (b and c),
    of one drive triple or a stack, shape (2, 3, ..., 3): triple, state, the
    stack's shape, amplitudes over sigma = +1, 0, -1.

    trig1, trig3 are _field_trig's of the two drives and e1[k], e3[k] their
    e^{i phi} at sigma = SIGMAS[k], floats or arrays.  Each amplitude is numpy's
    complex product (x + 0i) e[k] of a real coefficient x, _mul's formula.
    """

    def coeffs(st, ct, sp, cp):
        # the prime state's sigma = -1 entry is a placeholder: its amplitude
        # is set to an exact 0 below, not a signed 0 * e^{i phi_-1}
        return st * cp, st * sp, ct, sp, -cp, sp, ct * cp, ct * sp, -st

    flat = np.array((*coeffs(*trig1), *coeffs(*trig3)))  # faster than nested tuples
    states = flat.reshape(2, 3, 3, *flat.shape[1:]) * np.array((e1, e3))[:, None]
    states[:, 1, 2] = 0.0
    return np.ascontiguousarray(states.transpose(0, 1, *range(3, states.ndim), 2))


def dressed_states(spec: LoopSpec) -> DressedStates:
    """Dressed states of the two J=1 levels, defined by fields 1 and 3.

    b is the superposition field 1 actually drives from the ground state
    (amplitudes E_sigma e^{i phi_sigma} / E); b', b'' complete it to an
    orthonormal triple, and likewise c, c', c'' from field 3.
    """
    amps, phis, totals = _drive_arrays(spec)
    e = np.exp(1j * np.array(phis))
    b, c = _dressed(*(_field_trig(*amps[d], totals[d]) for d in (0, 2)), e[0], e[2])
    return DressedStates(*b, *c)


def _closed_form_prefactor(gamma_cb: complex, total2):
    """Gamma_cb E_2 / (2 sqrt 6) in MHz, of one drive or a stack."""
    return gamma_cb * total2 * DEBYE_VCM_TO_MHZ / (2.0 * _SQRT6)


def _closed_form(trig, phases, pref):
    """The four cross couplings and <c|H2|b>, half of Omega2, in closed form, MHz.

    Written out in the (theta, phi) field angles and component phases,
    independent of the matrix assembly path and used as its oracle.  Every
    operation is a numpy one, so one body serves a single spec (floats)
    and a stack of drives (arrays).
    """
    (st1, ct1, sf1, cf1), (st2, ct2, sf2, cf2), (st3, ct3, sf3, cf3) = trig
    (a1, z1, m1), (a2, z2, m2), (a3, z3, m3) = phases
    # the six phase combinations that occur
    ph_maz = np.exp(1j * (m1 + a2 - z3))
    ph_zaa = np.exp(1j * (z1 + a2 - a3))
    ph_aza = np.exp(1j * (a1 + z2 - a3))
    ph_amz = np.exp(1j * (a1 + m2 - z3))
    ph_mzm = np.exp(1j * (m1 + z2 - m3))
    ph_zmm = np.exp(1j * (z1 + m2 - m3))
    c_prime_b = pref * (
        ct1 * st2 * cf2 * cf3 * ph_maz
        - st1 * sf1 * st2 * cf2 * sf3 * ph_zaa
        + st1 * cf1 * st2 * sf2 * sf3 * ph_aza
        - st1 * cf1 * ct2 * cf3 * ph_amz
    )
    c_dprime_b = pref * (
        -ct1 * st2 * cf2 * ct3 * sf3 * ph_maz
        + ct1 * st2 * sf2 * st3 * ph_mzm
        - st1 * sf1 * st2 * cf2 * ct3 * cf3 * ph_zaa
        - st1 * sf1 * ct2 * st3 * ph_zmm
        + st1 * cf1 * st2 * sf2 * ct3 * cf3 * ph_aza
        + st1 * cf1 * ct2 * ct3 * sf3 * ph_amz
    )
    c_b_prime = pref * (
        cf1 * st2 * cf2 * st3 * cf3 * ph_zaa
        - cf1 * ct2 * ct3 * ph_zmm
        + sf1 * st2 * sf2 * st3 * cf3 * ph_aza
        + sf1 * ct2 * st3 * sf3 * ph_amz
    )
    c_b_dprime = pref * (
        st1 * st2 * cf2 * st3 * sf3 * ph_maz
        + st1 * st2 * sf2 * ct3 * ph_mzm
        - ct1 * sf1 * st2 * cf2 * st3 * cf3 * ph_zaa
        + ct1 * sf1 * ct2 * ct3 * ph_zmm
        + ct1 * cf1 * st2 * sf2 * st3 * cf3 * ph_aza
        + ct1 * cf1 * ct2 * st3 * sf3 * ph_amz
    )
    half_omega2 = pref * (
        -ct1 * st2 * cf2 * st3 * sf3 * ph_maz
        - ct1 * st2 * sf2 * ct3 * ph_mzm
        - st1 * sf1 * st2 * cf2 * st3 * cf3 * ph_zaa
        + st1 * sf1 * ct2 * ct3 * ph_zmm
        + st1 * cf1 * st2 * sf2 * st3 * cf3 * ph_aza
        + st1 * cf1 * ct2 * st3 * sf3 * ph_amz
    )
    return c_prime_b, c_dprime_b, c_b_prime, c_b_dprime, half_omega2


class LoopDiagnostics(NamedTuple):
    """Everything a closure verdict rests on, for reporting and tables."""

    omegas: tuple[complex, complex, complex]
    residuals: tuple[complex, complex, complex, complex]  # <c'|H|b>, <c''|H|b>, <c|H|b'>, <c|H|b''>
    max_residual: float
    closed: bool
    failure: str | None  # None, "non_finite", "not_closed", or "zero_rabi"


def loop_diagnostics(spec: LoopSpec) -> LoopDiagnostics:
    """Residuals, Rabi frequencies, and the closure verdict for a candidate.

    The residuals and Omega2 are sandwiches of one field-2 coupling block
    between the dressed states, cross-checked against the closed-form route
    (spec.triad._verdicts).  The verdict fails closed: a NaN or infinite
    residual or Rabi frequency (say, from an overflowing amplitude) is never
    closed.
    """
    return spec.triad._verdicts(*_drive_arrays(spec))[0]


def _omegas(gamma_ba: complex, gamma_ca: complex, total1, total3, c_block_b):
    """(Omega1, Omega2, Omega3) as (real, imag) pairs, of one drive triple or a
    stack: -Gamma E / sqrt 3 on the outer legs, twice <c|H2|b> in the middle."""

    def outer(gamma, total):
        rabi = _mul(_mul((-gamma.real, -gamma.imag), (total, 0.0)), (DEBYE_VCM_TO_MHZ, 0.0))
        return _div_real(rabi, _SQRT3)

    omega2 = _mul((2.0, 0.0), (c_block_b.real, c_block_b.imag))
    return outer(gamma_ba, total1), omega2, outer(gamma_ca, total3)


def _verdict(residuals, omegas) -> LoopDiagnostics:
    """The verdict on one set of residuals and Rabi frequencies, failing closed: residuals are
    judged in MHz and against the smallest |Omega|, as both scale with the drives."""
    max_residual = max(map(abs, residuals))
    if not all(map(cmath.isfinite, (*residuals, *omegas))):
        failure = "non_finite"
    elif max_residual >= DEFAULT_CLOSURE_TOL_MHZ:
        failure = "not_closed"
    elif (min_omega := min(map(abs, omegas))) <= DEFAULT_CLOSURE_TOL_MHZ:
        failure = "zero_rabi"
    elif max_residual > DEFAULT_CLOSURE_TOL_MHZ * min_omega:
        failure = "not_closed"
    else:
        failure = None
    return LoopDiagnostics(  # positional: this runs once per row of every stack
        omegas,
        residuals,
        max_residual,
        failure is None,  # closed
        failure,
    )


def _refuse_first(bad: np.ndarray, message: str) -> None:
    """Refuse a stack where bad, shape (N, 3), holds: name the first such row (from 0) and drive."""
    if bad.any():
        row, drive = np.argwhere(bad)[0].tolist()
        raise ValueError(f"row {row}, drive {drive + 1}: {message}")


@dataclass(frozen=True)
class Triad:
    """The fixed half of a closure verdict: levels a, b, c, the dipole, and
    the reduced elements Gamma_ba, Gamma_cb and Gamma_ca and transition
    frequencies f_ba, f_cb and f_ca, checked and computed once.

    level_a must be the J=0 ground level; level_b and level_c are J=1 with
    f_c > f_b, and no two transitions lie within 2 * RESONANCE_TOL_MHZ.
    Every LoopSpec holds one.  `diagnostics` judges a stack of drives at
    once, through the `_verdicts` that `loop_diagnostics` runs on one triple.
    """

    level_a: AsymTopLevel
    level_b: AsymTopLevel
    level_c: AsymTopLevel
    dipole: BodyDipole
    gamma_ba: complex = field(init=False)
    gamma_cb: complex = field(init=False)
    gamma_ca: complex = field(init=False)
    f_ba: float = field(init=False)
    f_cb: float = field(init=False)
    f_ca: float = field(init=False)

    def __post_init__(self):
        a, b, c = self.level_a, self.level_b, self.level_c
        if a.J != 0:
            raise ValueError("level_a must have J = 0")
        if b.J != 1 or c.J != 1:
            raise ValueError("level_b and level_c must have J = 1")
        legs = (("ba", b, a), ("cb", c, b), ("ca", c, a))
        # every order check, then the resonance check, before any element
        freqs = {leg: transition_frequency(upper, lower) for leg, upper, lower in legs}
        for (x, fx), (y, fy) in itertools.combinations(freqs.items(), 2):
            if abs(fx - fy) < 2 * RESONANCE_TOL_MHZ:
                raise ResonanceAmbiguityError(
                    f"transitions f_{x} = {fx} MHz and f_{y} = {fy} MHz are closer than "
                    f"{2 * RESONANCE_TOL_MHZ} MHz, so one drive can be resonant with both"
                )
        for leg, upper, lower in legs:
            object.__setattr__(self, "f_" + leg, freqs[leg])
            gamma = reduced_matrix_element(upper, lower, self.dipole).value
            object.__setattr__(self, "gamma_" + leg, gamma)

    def diagnostics(self, amplitudes, phases) -> Iterator[LoopDiagnostics]:
        """loop_diagnostics of every row of a stack of drives, bit for bit.

        amplitudes (V/cm, >= 0) and phases (rad) have shape (N, 3, 3): drives
        1, 2, 3 (at f_ba, f_cb, f_ca) over sigma = (+1, 0, -1), amplitude 0
        for an absent component.  Row n's verdict is loop_diagnostics of
        LoopSpec(self, comps) with row n's components as comps, and like it
        is cross-checked against the closed form.  The arrays are validated
        at once, a refusal naming the first bad row (from 0) and its drive;
        the verdicts are computed LOOP_BATCH_ROWS rows at a time as the
        iteration reaches them, so memory stays bounded.
        """
        amps, phis = _real(amplitudes, "amplitudes"), _real(phases, "phases")
        if amps.ndim != 3 or amps.shape[1:] != (3, 3) or phis.shape != amps.shape:
            raise ValueError(
                f"drive arrays must have shape (N, 3, 3), got {amps.shape} and {phis.shape}"
            )
        valid = np.isfinite(amps) & (amps >= 0) & np.isfinite(phis)
        _refuse_first(~valid.all(axis=2), "amplitudes must be finite and >= 0, phases finite")
        # [drive][sigma] first, as _verdicts takes them
        amps, phis = (np.ascontiguousarray(x.transpose(1, 2, 0)) for x in (amps, phis))
        phis = np.where(amps > 0, _wrap_phase(phis), 0.0)  # as DriveField stores them
        with np.errstate(over="ignore"):  # an infinite total fails its verdict, below
            total = np.sqrt(_sum_of_squares(*amps.swapaxes(0, 1)))  # DriveField.total
        _refuse_first(total.T == 0.0, _TOTAL_UNDERFLOW)
        chunks = (slice(i, i + LOOP_BATCH_ROWS) for i in range(0, amps.shape[-1], LOOP_BATCH_ROWS))
        return itertools.chain.from_iterable(
            self._verdicts(amps[..., c], phis[..., c], total[..., c]) for c in chunks
        )

    # an overflowing amplitude fails its verdict as non_finite, silently
    @np.errstate(all="ignore")
    def _verdicts(self, amps, phis, totals) -> list[LoopDiagnostics]:
        """The verdict on one drive triple, or on each triple of a stack.

        amps[d][k] is drive d's amplitude and phis[d][k] its stored phase
        (wrapped, 0 if absent) at sigma = SIGMAS[k], and totals[d] its
        total: floats for one triple, arrays of the stack's shape for a
        stack.  The matrix route gives the residuals and Omega2; the
        residuals and <c|H2|b> must agree with the closed-form route, on the
        same field trig, to 1e-12 of the block's largest entry before they
        are judged.
        """
        e = np.exp(np.multiply(1j, phis))
        if e.ndim == 2:  # one triple: Python scalars from here on
            e = e.tolist()
        trig = tuple(_field_trig(*amps[d], totals[d]) for d in range(3))
        b, c = _dressed(trig[0], trig[2], e[0], e[2])
        block = _stacked_coupling_block(self.level_c, self.level_b, self.gamma_cb, amps[1], e[1])
        # <c_i|H2|b_j> over the two triples, shape (3, 3, ...)
        bras = c.conj()[:, None, ..., None, :] @ block
        checked = (bras @ b[None, ..., None])[..., 0, 0][_CHECKED_SANDWICHES]
        residuals = checked[:4]
        omegas = _omegas(self.gamma_ba, self.gamma_ca, totals[0], totals[2], checked[4])

        closed_form = _closed_form(trig, phis, _closed_form_prefactor(self.gamma_cb, totals[1]))
        deviation = np.abs(checked - closed_form)
        bound = 1e-12 * np.abs(block).max(axis=(-2, -1), initial=1e-300)
        differ = deviation > bound
        if differ.any():
            raise RuntimeError(
                f"internal inconsistency: closure routes differ by {deviation[differ].max():.3e} MHz"
            )
        parts = np.array((*omegas[0], *omegas[1], *omegas[2]))  # re1, im1, re2, im2, re3, im3
        rows = zip(residuals.T.reshape(-1, 4).tolist(), parts.T.reshape(-1, 6).tolist())
        return [
            _verdict(tuple(r), (complex(o[0], o[1]), complex(o[2], o[3]), complex(o[4], o[5])))
            for r, o in rows
        ]


def build_single_loop(spec: LoopSpec) -> SingleLoopHamiltonian:
    """Verify closure and return the loop's three Rabi frequencies.

    Raises NotClosedError when a residual reaches DEFAULT_CLOSURE_TOL_MHZ, in
    MHz or relative to the smallest |Omega| (the configuration is multi-loop
    / leaky), and ZeroRabiError when some |Omega| is at most that (the cycle
    is broken, e.g. three parallel Z drives); ValueError when a residual or
    Rabi frequency is not finite.
    """
    diag = loop_diagnostics(spec)
    if diag.failure == "non_finite":
        raise ValueError("closure residuals or Rabi frequencies are not finite")
    if diag.failure == "not_closed":
        raise NotClosedError(diag.max_residual)
    if diag.failure == "zero_rabi":
        raise ZeroRabiError(diag.omegas)
    return SingleLoopHamiltonian(*diag.omegas)


def loop_product(h: SingleLoopHamiltonian) -> complex:
    """Gauge-invariant loop quantity Omega1 * Omega2 * conj(Omega3), MHz^3.

    Invariant under independent phase redefinitions of the three loop
    states; its sign (phase) flips between enantiomers.
    """
    return h.omega1 * h.omega2 * h.omega3.conjugate()


def loop_phase(h: SingleLoopHamiltonian) -> float:
    """The phase of loop_product(h) in (-pi, pi], rad, or NaN where a non-finite Omega leaves
    the product none, at any drive scale: finite Omegas are first brought near 1 by their own
    powers of two, exactly, so the product stays in range."""
    finite = all(map(cmath.isfinite, h))
    exps = [math.frexp(max(abs(o.real), abs(o.imag)))[1] if finite else 0 for o in h]
    scaled = (complex(math.ldexp(o.real, -e), math.ldexp(o.imag, -e)) for o, e in zip(h, exps))
    return float(_wrap_phase(np.angle(loop_product(SingleLoopHamiltonian(*scaled)))))


class LoopCandidate(NamedTuple):
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


def enumerate_pure_polarizations(triad: Triad) -> list[LoopCandidate]:
    """Try all 27 single-component polarization triples on the triad.

    With unit amplitudes, exactly the six TABLE_ROWS close (for a dipole
    with all components nonzero); the dressed states are then single
    sublevels with M_b = sigma1 and M_c = sigma3.  The six TABLE_ROWS come
    first, in that order, whether or not they close (with mu_x = 0 or
    mu_z = 0 none does); the other 21 follow lexicographically.
    """
    # (sigma1, sigma2, sigma3, M_b, M_c) of every triple: the TABLE_ROWS, then the rest in order
    keys = [(s1, s2, s3, s1, s3) for s1, s2, s3 in itertools.product((-1, 0, 1), repeat=3)]
    keys = [*TABLE_ROWS, *(k for k in keys if k not in TABLE_ROWS)]
    # unit amplitude on the one component of each drive
    amps = np.array([[[float(s == t) for t in SIGMAS] for s in key[:3]] for key in keys])
    diags = triad.diagnostics(amps, np.zeros_like(amps))
    return [
        LoopCandidate(
            *key,
            closed=diag.closed,
            omega_abs=tuple(abs(o) for o in diag.omegas),
            max_residual=diag.max_residual,
        )
        for key, diag in zip(keys, diags)
    ]


def verify_linear_orthogonality(dir1, dir2, dir3, triad: Triad) -> tuple[bool, float]:
    """Closure verdict for three unit linearly polarized drives along dir1..3.

    Returns (closed, max closure residual in MHz).  Closed requires both
    vanishing residuals and three nonzero Rabi frequencies; it holds
    exactly when the three directions are mutually orthogonal.
    """
    comps = [linear_components(d, 1.0, 0.0) for d in (dir1, dir2, dir3)]
    diag = loop_diagnostics(LoopSpec(triad, comps))
    return diag.closed, diag.max_residual
