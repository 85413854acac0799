"""Dressed states, closure conditions (two routes), loop synthesis, the
pure-polarization table, and the linear-polarization orthogonality rule."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chiraloop import dipole as dipole_module
from chiraloop import dynamics, loop
from chiraloop.dipole import BodyDipole
from chiraloop.fields import DriveField, stacked_linear_components
from chiraloop.loop import (
    LOOP_BATCH_ROWS,
    TABLE_ROWS,
    LoopSpec,
    NotClosedError,
    ResonanceAmbiguityError,
    SingleLoopHamiltonian,
    Triad,
    ZeroRabiError,
    build_single_loop,
    dressed_states,
    enumerate_pure_polarizations,
    loop_diagnostics,
    loop_product,
    verify_linear_orthogonality,
)
from chiraloop.rotor import OrderingError, RotationalConstants, rotor_levels

from conftest import X, Y, Z, drive_components, drive_vector, linear_loop_spec, pure_loop_spec
from conftest import random_loop_spec
from conftest import reference_closed_form, reference_diagnostics, reference_dressed


# ---------------------------------------------------------------------------
# spec validation

def test_resonant_tunes_each_drive_to_its_transition(triad_a, dipole):
    a, b, c = triad_a
    comps = [{1: (1.0, 0.5)}, {-1: (2.0, -4.0), 0: (0.5, 0.0)}, {0: (-1.0, 0.0)}]
    triad = Triad(*triad_a, dipole)
    spec = LoopSpec(triad, comps)
    assert spec.triad is triad
    assert (triad.level_a, triad.level_b, triad.level_c, triad.dipole) == (a, b, c, dipole)
    fields = (spec.field1, spec.field2, spec.field3)
    assert [f.freq for f in fields] == [b.freq - a.freq, c.freq - b.freq, c.freq - a.freq]
    assert [f.comps for f in fields] == [DriveField(1.0, comp).comps for comp in comps]


def test_loopspec_rejects_wrong_j(triad_a, dipole):
    """A LoopSpec's levels are its Triad's, which checks them once."""
    a, b, c = triad_a
    with pytest.raises(ValueError, match="J = 0"):
        Triad(b, b, c, dipole)  # J=1 in the ground slot
    with pytest.raises(ValueError, match="J = 1"):
        Triad(a, a, c, dipole)
    with pytest.raises(OrderingError, match="is not above"):
        Triad(a, c, b, dipole)
    with pytest.raises(OrderingError, match="nan MHz"):
        Triad(a, dataclasses.replace(b, freq=math.nan), c, dipole)


@pytest.mark.parametrize("gap, refused", [(1.5e-3, True), (2.5e-3, False)])
def test_triad_refuses_transitions_closer_than_twice_the_resonance_tol(triad_a, dipole, gap, refused):
    """f_ba and f_cb, or f_cb and f_ca, set `gap` MHz apart by hand: within
    2 * RESONANCE_TOL_MHZ one drive could be resonant with both."""
    a, b, c = triad_a
    for b_freq, c_freq in ((3.0, 6.0 + gap), (gap, 3.0)):  # f_cb near f_ba, then near f_ca
        levels = (dataclasses.replace(a, freq=0.0), dataclasses.replace(b, freq=b_freq),
                  dataclasses.replace(c, freq=c_freq))
        if refused:
            with pytest.raises(ResonanceAmbiguityError, match=r"f_c[ab] = .* MHz are closer than 0\.002 MHz"):
                Triad(*levels, dipole)
        else:
            assert Triad(*levels, dipole).f_cb == c_freq - b_freq


def test_every_route_refuses_an_ambiguous_triad(dipole):
    """A = B + 2C puts f_ba = f_cb on triad a: a verdict and the table stop
    at the same Triad check as a spec (and so the Hamiltonian) does."""
    ambiguous = RotationalConstants(A=4.0, B=2.0, C=1.0)
    (ground,), j1 = rotor_levels(ambiguous, 0), rotor_levels(ambiguous, 1)
    levels = (ground, j1[0], j1[2])
    messages = set()
    for route in (
        lambda: Triad(*levels, dipole),
        lambda: enumerate_pure_polarizations(Triad(*levels, dipole)),
        lambda: verify_linear_orthogonality(X, Y, Z, Triad(*levels, dipole)),
    ):
        with pytest.raises(ResonanceAmbiguityError) as info:
            route()
        messages.add(str(info.value))
    assert messages == {
        "transitions f_ba = 3.0 MHz and f_cb = 3.0 MHz are closer than 0.002 MHz, "
        "so one drive can be resonant with both"
    }


@pytest.mark.parametrize("count", [2, 4])
def test_loopspec_needs_three_drives(triad_a, dipole, count):
    """Two or four drives' components are refused, not cut to three or left short."""
    comps = [{0: (1.0, 0.0)}] * count
    with pytest.raises(ValueError, match=f"three drives' components, got {count}"):
        LoopSpec(Triad(*triad_a, dipole), comps)


def _field_hexes(spec):
    """The drives of a spec as exact bits: (freq, {sigma: (amplitude, phase)}) per drive."""
    return [
        (f.freq.hex(), {s: (a.hex(), p.hex()) for s, (a, p) in f.comps.items()})
        for f in (spec.field1, spec.field2, spec.field3)
    ]


drive_strategy = st.dictionaries(
    st.sampled_from((1, 0, -1)),
    st.tuples(
        st.floats(0.05, 3.0).flatmap(lambda a: st.sampled_from((a, -a))),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
    min_size=1,
)


@settings(max_examples=60, deadline=None)
@given(comps=st.lists(drive_strategy, min_size=3, max_size=3), extra=drive_strategy)
def test_loopspec_holds_no_reference_to_the_callers_drives(triad_a, dipole, comps, extra):
    """A spec, and the mirror built from it, keep the drives as validated at
    construction, whatever the caller then does to its dicts and list."""
    spec = LoopSpec(Triad(*triad_a, dipole), comps)
    fields, verdict = _field_hexes(spec), repr(loop_diagnostics(spec))
    comps[0].update(extra)
    comps[1].clear()
    comps[2] = extra
    comps.append(extra)
    assert _field_hexes(spec) == fields
    assert repr(loop_diagnostics(spec)) == verdict
    assert _field_hexes(spec.mirrored()) == fields
    assert spec.mirrored().mirrored() == spec
    assert not hasattr(spec, "comps")  # the drives as given are not kept


@pytest.mark.parametrize("sigma", [0, 5])
def test_a_specs_drive_components_cannot_be_changed(triad_a, dipole, sigma):
    """A sigma added to a validated drive would open a closed loop (0) or
    index past the coupling block (5): the components are read-only."""
    spec = LoopSpec(Triad(*triad_a, dipole), [{1: (1.0, 0.0)}, {-1: (1.0, 0.0)}, {0: (1.0, 0.0)}])
    verdict = loop_diagnostics(spec)
    assert verdict.closed
    with pytest.raises(TypeError):
        spec.field2.comps[sigma] = (1.0, 0.0)
    assert spec.field2.comps == {-1: (1.0, 0.0)}
    assert loop_diagnostics(spec) == verdict
    dynamics.assemble_full_hamiltonian(spec)


# ---------------------------------------------------------------------------
# dressed states

def test_dressed_pure_sigma_plus_selects_m_plus1(triad_a, dipole):
    spec = pure_loop_spec(triad_a, dipole, (1, -1, 0))
    ds = dressed_states(spec)
    assert np.array_equal(ds.b, np.array([1.0 + 0j, 0j, 0j]))


def test_dressed_linear_z_selects_m_zero(triad_a, dipole):
    spec = linear_loop_spec(triad_a, dipole, (Z, X, Y))
    ds = dressed_states(spec)
    assert np.array_equal(ds.b, np.array([0j, 1.0 + 0j, 0j]))


def test_dressed_linear_y_gives_balanced_superposition(triad_a, dipole):
    spec = linear_loop_spec(triad_a, dipole, (Z, X, Y))
    c_state = dressed_states(spec).c
    # (|M=+1> + |M=-1>)/sqrt(2) up to a global phase
    assert abs(c_state[1]) == 0.0
    assert abs(c_state[0]) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert c_state[0] == pytest.approx(c_state[2], rel=1e-12)


def test_dressed_triples_orthonormal_random_fields(triad_a, dipole):
    rng = np.random.default_rng(5)
    for _ in range(40):
        spec = random_loop_spec(rng, triad_a, dipole)
        ds = dressed_states(spec)
        for triple in ((ds.b, ds.b_prime, ds.b_dprime), (ds.c, ds.c_prime, ds.c_dprime)):
            basis = np.array(triple)
            assert np.allclose(basis @ basis.conj().T, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# closure conditions: structural zeros and the two independent routes

def test_closure_table_row_is_exactly_zero(triad_a, dipole):
    spec = pure_loop_spec(triad_a, dipole, (1, -1, 0))
    residuals = loop_diagnostics(spec).residuals
    assert residuals == (0j, 0j, 0j, 0j)


def test_closure_zxy_vanishes(triad_a, dipole):
    spec = linear_loop_spec(triad_a, dipole, (Z, X, Y))
    residuals = loop_diagnostics(spec).residuals
    assert max(abs(r) for r in residuals) < 1e-12


def test_closure_zxx_fails(triad_a, dipole):
    spec = linear_loop_spec(triad_a, dipole, (Z, X, X))
    residuals = loop_diagnostics(spec).residuals
    assert max(abs(r) for r in residuals) > 1e-3


def test_closed_form_route_matches_block_route(triad_a, dipole):
    rng = np.random.default_rng(11)
    a, b, c = triad_a
    for _ in range(200):
        spec = random_loop_spec(rng, triad_a, dipole)
        ds = dressed_states(spec)
        block = dynamics.coupling_block(c, b, spec.field2, dipole)
        from_block = (
            complex(ds.c_prime.conj() @ block @ ds.b),
            complex(ds.c_dprime.conj() @ block @ ds.b),
            complex(ds.c.conj() @ block @ ds.b_prime),
            complex(ds.c.conj() @ block @ ds.b_dprime),
        )
        *closed_form, half_omega2 = reference_closed_form(spec)
        scale = float(np.abs(block).max())
        for x, y in zip(from_block, closed_form):
            assert abs(x - y) <= 1e-12 * scale
        omega2_block = 2.0 * complex(ds.c.conj() @ block @ ds.b)
        assert abs(omega2_block - 2.0 * half_omega2) <= 1e-12 * scale


def test_verdict_checks_closed_form_once(triad_a, dipole, monkeypatch):
    real = loop._closed_form
    prefactors = []

    def counted(trig, phases, pref):
        prefactors.append(pref)
        return real(trig, phases, pref)

    monkeypatch.setattr(loop, "_closed_form", counted)
    spec = linear_loop_spec(triad_a, dipole, (Z, X, Y), amplitudes=(1.0, 0.75, 2.75))
    loop_diagnostics(spec)
    gamma_cb = Triad(*triad_a, dipole).gamma_cb
    assert prefactors == [loop._closed_form_prefactor(gamma_cb, spec.field2.total)]

    def off_by_a_kilohertz(trig, phases, pref):
        return tuple(v + 1e-3 for v in real(trig, phases, pref))

    monkeypatch.setattr(loop, "_closed_form", off_by_a_kilohertz)
    with pytest.raises(RuntimeError, match="closure routes differ"):
        loop_diagnostics(spec)


def test_verdict_checks_closed_form_omega2(triad_a, dipole, monkeypatch):
    """<c|H2|b>, half of Omega2, is checked against the closed form too."""
    real = loop._closed_form

    def omega2_off_by_a_kilohertz(trig, phases, pref):
        *residuals, half_omega2 = real(trig, phases, pref)
        return (*residuals, half_omega2 + 1e-3)

    monkeypatch.setattr(loop, "_closed_form", omega2_off_by_a_kilohertz)
    spec = linear_loop_spec(triad_a, dipole, (Z, X, Y), amplitudes=(1.0, 0.75, 2.75))
    with pytest.raises(RuntimeError, match="closure routes differ"):
        loop_diagnostics(spec)


def test_single_verdict_computes_three_reduced_elements(triad_a, dipole, monkeypatch):
    """Building the spec's triad computes the three; its verdict and its
    Hamiltonian take them from spec.triad and compute none."""
    real = loop.reduced_matrix_element
    calls = []

    def counted(upper, lower, d):
        calls.append((upper, lower))
        return real(upper, lower, d)

    for module in (loop, dynamics):
        monkeypatch.setattr(module, "reduced_matrix_element", counted)
    spec = linear_loop_spec(triad_a, dipole, (Z, X, Y))
    a, b, c = triad_a
    assert calls == [(b, a), (c, b), (c, a)]
    loop_diagnostics(spec)
    dynamics.assemble_full_hamiltonian(spec)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# single-loop construction

def test_build_single_loop_rabi_ratio(triad_a, dipole):
    spec = pure_loop_spec(triad_a, dipole, (1, -1, 0), amplitudes=(1.0, 0.75, 2.75))
    h = build_single_loop(spec)
    o1, o2, o3 = abs(h.omega1), abs(h.omega2), abs(h.omega3)
    assert o2 / o1 == pytest.approx(1.04, abs=0.01)
    assert o3 / o1 == pytest.approx(0.84, abs=0.01)


def test_build_single_loop_linear_matches_pure_magnitudes(triad_a, dipole):
    amplitudes = (1.0, 0.75, 2.75)
    pure = build_single_loop(pure_loop_spec(triad_a, dipole, (1, -1, 0), amplitudes))
    linear = build_single_loop(linear_loop_spec(triad_a, dipole, (Z, X, Y), amplitudes))
    for p, l in zip(
        (pure.omega1, pure.omega2, pure.omega3),
        (linear.omega1, linear.omega2, linear.omega3),
    ):
        assert abs(p) == pytest.approx(abs(l), rel=1e-12)


def test_zzz_rejected_with_exact_zero_rabi(triad_a, dipole):
    spec = pure_loop_spec(triad_a, dipole, (0, 0, 0))
    with pytest.raises(ZeroRabiError) as info:
        build_single_loop(spec)
    assert info.value.omegas[1] == 0j


def test_zxx_rejected_as_not_closed(triad_a, dipole):
    spec = linear_loop_spec(triad_a, dipole, (Z, X, X))
    with pytest.raises(NotClosedError) as info:
        build_single_loop(spec)
    assert info.value.max_residual > 1e-3


def test_single_loop_matrix_is_hermitian(triad_a, dipole):
    h = build_single_loop(pure_loop_spec(triad_a, dipole, (1, -1, 0))).matrix()
    assert np.array_equal(h, h.conj().T)
    assert h[1, 0] == build_single_loop(pure_loop_spec(triad_a, dipole, (1, -1, 0))).omega1 / 2


# ---------------------------------------------------------------------------
# loop product

def test_loop_product_enantiomer_antipodal_exact(triad_a, dipole):
    for sigmas in [(1, -1, 0), (0, 1, 1), (-1, 0, -1)]:
        spec = pure_loop_spec(triad_a, dipole, sigmas, amplitudes=(1.0, 0.6, 1.7))
        left = build_single_loop(spec.mirrored())
        right = build_single_loop(spec)
        assert loop_product(right) == -loop_product(left)


def test_loop_product_field1_phase_shift(triad_a, dipole):
    base = pure_loop_spec(triad_a, dipole, (1, -1, 0))
    shifted = pure_loop_spec(triad_a, dipole, (1, -1, 0), phases=(0.9, 0.0, 0.0))
    p0 = loop_product(build_single_loop(base))
    p1 = loop_product(build_single_loop(shifted))
    assert abs(p1) == pytest.approx(abs(p0), rel=1e-12)
    assert cmath.phase(p1 / p0) == pytest.approx(0.9, abs=1e-12)
    # the mirrored pair stays antipodal after the phase shift
    assert loop_product(build_single_loop(shifted.mirrored())) == -p1


def test_loop_product_zero_when_any_rabi_zero():
    h = SingleLoopHamiltonian(omega1=0.3 + 0.1j, omega2=0j, omega3=1.0 + 0j)
    assert loop_product(h) == 0j


def test_loop_product_gauge_invariant_magnitude_across_rows(triad_a, dipole):
    values = []
    for s1, s2, s3, _, _ in TABLE_ROWS:
        spec = pure_loop_spec(triad_a, dipole, (s1, s2, s3))
        values.append(abs(loop_product(build_single_loop(spec))))
    assert np.allclose(values, values[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# pure-polarization enumeration (the six-row table)

def test_enumeration_matches_table_for_all_triads(constants, dipole, ground, j1_levels):
    for tau_b, tau_c in [(-1, 1), (-1, 0), (0, 1)]:
        levels = (ground, j1_levels[tau_b], j1_levels[tau_c])
        rows = enumerate_pure_polarizations(Triad(*levels, dipole))
        assert len(rows) == 27
        closed = [r for r in rows if r.closed]
        assert [
            (r.sigma1, r.sigma2, r.sigma3, r.m_b, r.m_c) for r in closed
        ] == list(TABLE_ROWS)


def test_enumeration_closed_rows_lead_in_table_order(triad_a, dipole):
    rows = enumerate_pure_polarizations(Triad(*triad_a, dipole))
    leading = [(r.sigma1, r.sigma2, r.sigma3, r.m_b, r.m_c) for r in rows[:6]]
    assert leading == list(TABLE_ROWS)
    assert all(not r.closed for r in rows[6:])
    rest = [(r.sigma1, r.sigma2, r.sigma3) for r in rows[6:]]
    assert rest == sorted(rest)


@pytest.mark.parametrize("mu", [(0.0, 0.365, 1.201), (1.916, 0.365, 0.0)])
def test_enumeration_table_rows_lead_even_when_open(triad_a, mu):
    """With mu_x = 0 or mu_z = 0 no row closes, and the six TABLE_ROWS still
    come first, in table order, then the other 21 lexicographically."""
    rows = enumerate_pure_polarizations(Triad(*triad_a, BodyDipole(*mu)))
    keys = [(r.sigma1, r.sigma2, r.sigma3, r.m_b, r.m_c) for r in rows]
    assert keys[:6] == list(TABLE_ROWS)
    assert keys[6:] == sorted(keys[6:])
    assert not any(r.closed for r in rows)


def test_enumeration_zero_mu_y_closes_nothing(triad_a):
    no_y = BodyDipole(1.916, 0.0, 1.201)
    rows = enumerate_pure_polarizations(Triad(*triad_a, no_y))
    assert not any(r.closed for r in rows)


def test_enumeration_deterministic(triad_a, dipole):
    first = enumerate_pure_polarizations(Triad(*triad_a, dipole))
    second = enumerate_pure_polarizations(Triad(*triad_a, dipole))
    assert first == second


# ---------------------------------------------------------------------------
# linear-polarization orthogonality rule

def test_orthogonality_zxy_closed(triad_a, dipole):
    closed, residual = verify_linear_orthogonality(Z, X, Y, Triad(*triad_a, dipole))
    assert closed
    assert residual < 1e-12


def test_orthogonality_tilted_third_axis_fails(triad_a, dipole):
    tilted = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    closed, residual = verify_linear_orthogonality(Z, X, tilted, Triad(*triad_a, dipole))
    assert not closed
    assert residual > 1e-3


def test_orthogonality_rotated_triads_closed(triad_a, dipole):
    rng = np.random.default_rng(17)
    triad = Triad(*triad_a, dipole)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        closed, residual = verify_linear_orthogonality(q[:, 0], q[:, 1], q[:, 2], triad)
        assert closed, f"rotated orthogonal triad not closed, residual={residual}"


def test_orthogonality_random_triads_never_close(triad_a, dipole):
    rng = np.random.default_rng(23)
    triad = Triad(*triad_a, dipole)
    for _ in range(300):
        dirs = rng.normal(size=(3, 3))
        closed, _ = verify_linear_orthogonality(*dirs, triad)
        units = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        dots = [abs(units[i] @ units[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert closed == (max(dots) < 1e-8)


def test_orthogonality_zero_direction_raises(triad_a, dipole):
    from chiraloop.fields import ZeroVectorError

    with pytest.raises(ZeroVectorError):
        verify_linear_orthogonality((0, 0, 0), X, Y, Triad(*triad_a, dipole))


# ---------------------------------------------------------------------------
# diagnostics record

def test_diagnostics_closed_flag_consistency(triad_a, dipole):
    good = loop_diagnostics(pure_loop_spec(triad_a, dipole, (1, -1, 0)))
    assert good.closed and good.failure is None
    leaky = loop_diagnostics(linear_loop_spec(triad_a, dipole, (Z, X, X)))
    assert not leaky.closed and leaky.failure == "not_closed"
    open_loop = loop_diagnostics(pure_loop_spec(triad_a, dipole, (0, 0, 0)))
    assert not open_loop.closed and open_loop.failure == "zero_rabi"


def test_non_finite_verdict_fails_closed(triad_a, dipole):
    """An amplitude whose square overflows makes |Omega1| infinite and
    field 1's dressed state vanish, so every residual is zero; the verdict
    must still not be closed."""
    diag = loop_diagnostics(pure_loop_spec(triad_a, dipole, (1, -1, 0), amplitudes=(1e200, 1, 1)))
    assert not diag.closed and diag.failure == "non_finite"
    with pytest.raises(ValueError, match="not finite"):
        build_single_loop(pure_loop_spec(triad_a, dipole, (1, -1, 0), amplitudes=(1e200, 1, 1)))


# ---------------------------------------------------------------------------
# batched verdicts on a Triad

TRIAD_TAUS = {"a": (-1, 1), "b": (-1, 0), "c": (0, 1)}


def stack_drives(specs):
    """The (N, 3, 3) amplitudes and phases of the specs' drives, sigma = +1, 0, -1."""
    amps, phases = np.zeros((2, len(specs), 3, 3))
    for n, spec in enumerate(specs):
        for d, f in enumerate((spec.field1, spec.field2, spec.field3)):
            for k, sigma in enumerate((1, 0, -1)):
                amps[n, d, k], phases[n, d, k] = f.amplitude(sigma), f.phase(sigma)
    return amps, phases


def random_drives(kind, rng, levels, dip, count):
    """Specs and their stacked drives: general drives, linear drives (random
    or orthogonal frames), pure drives, or raw arrays with absent components
    and unwrapped phases."""
    specs, raw_amps, raw_phases = [], [], []
    for _ in range(count):
        amplitudes, phases = rng.uniform(0.05, 3.0, 3), rng.uniform(-4.0, 4.0, 3)
        if kind == "general":
            specs.append(random_loop_spec(rng, levels, dip))
        elif kind == "linear":
            frame = rng.normal(size=(3, 3))
            if rng.random() < 0.5:  # closed: residuals at rounding level
                frame = np.linalg.qr(frame)[0].T
            specs.append(linear_loop_spec(levels, dip, frame, amplitudes, phases))
        elif kind == "pure":
            sigmas = rng.integers(-1, 2, size=3).tolist()
            specs.append(pure_loop_spec(levels, dip, sigmas, amplitudes, phases))
        else:
            amps = rng.uniform(0.05, 3.0, (3, 3)) * (rng.random((3, 3)) < 0.7)
            amps[:, 0] += amps.sum(axis=1) == 0  # every drive keeps a component
            phis = rng.uniform(-10.0, 10.0, (3, 3))
            comps = [
                {s: (a, p) for s, a, p in zip((1, 0, -1), row_amps, row_phis) if a > 0}
                for row_amps, row_phis in zip(amps, phis)
            ]
            specs.append(LoopSpec(Triad(*levels, dip), comps))
            raw_amps.append(amps)
            raw_phases.append(phis)
    if kind == "raw":
        return specs, (np.reshape(raw_amps, (count, 3, 3)), np.reshape(raw_phases, (count, 3, 3)))
    return specs, stack_drives(specs)


@settings(max_examples=30, deadline=None)
@given(
    which=st.sampled_from("abc"),
    kind=st.sampled_from(["general", "linear", "pure", "raw"]),
    count=st.sampled_from([0, 1, 7, LOOP_BATCH_ROWS + 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_equals_scalar_bit_for_bit(which, kind, count, seed, ground, j1_levels, dipole):
    tau_b, tau_c = TRIAD_TAUS[which]
    levels = (ground, j1_levels[tau_b], j1_levels[tau_c])
    specs, drives = random_drives(kind, np.random.default_rng(seed), levels, dipole, count)
    batch = list(Triad(*levels, dipole).diagnostics(*drives))
    # LoopDiagnostics compares residuals, omegas, max_residual, closed and failure with ==
    assert batch == [loop_diagnostics(spec) for spec in specs]
    assert batch == [reference_diagnostics(spec) for spec in specs]


@settings(max_examples=20, deadline=None)
@given(
    which=st.sampled_from("abc"),
    kind=st.sampled_from(["general", "linear", "pure", "raw"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dressed_states_equal_reference_bit_for_bit(which, kind, seed, ground, j1_levels, dipole):
    tau_b, tau_c = TRIAD_TAUS[which]
    levels = (ground, j1_levels[tau_b], j1_levels[tau_c])
    specs, _ = random_drives(kind, np.random.default_rng(seed), levels, dipole, 20)
    for spec in specs:
        ds = dressed_states(spec)
        got = (ds.b, ds.b_prime, ds.b_dprime, ds.c, ds.c_prime, ds.c_dprime)
        want = (*reference_dressed(spec.field1), *reference_dressed(spec.field3))
        for x, y in zip(got, want):  # bits, signed zeros included
            assert x.tobytes() == y.tobytes()


def test_verdicts_read_the_coupling_term_table(triad_a, dipole, monkeypatch):
    """After one warm-up verdict, single and stacked verdicts look up no 3j
    symbol: their field-2 blocks read dipole._coupling_terms."""
    rng = np.random.default_rng(41)
    specs = [random_loop_spec(rng, triad_a, dipole) for _ in range(LOOP_BATCH_ROWS)]
    loop_diagnostics(specs[0])
    calls = 0
    w_coupling = dipole_module.w_coupling

    def counting(*args):
        nonlocal calls
        calls += 1
        return w_coupling(*args)

    monkeypatch.setattr(dipole_module, "w_coupling", counting)
    for spec in specs[:100]:
        loop_diagnostics(spec)
    list(Triad(*triad_a, dipole).diagnostics(*stack_drives(specs)))
    assert calls == 0


def test_batch_checks_every_chunk_against_closed_form(triad_a, dipole, monkeypatch):
    specs = [linear_loop_spec(triad_a, dipole, (Z, X, Y))] * (LOOP_BATCH_ROWS + 1)
    amps, phases = stack_drives(specs)
    real = loop._closed_form
    chunks = []

    def off_by_a_kilohertz_in_second_chunk(trig, phases, pref):
        chunks.append(len(pref))
        values = real(trig, phases, pref)
        return tuple(v + 1e-3 for v in values) if len(chunks) == 2 else values

    monkeypatch.setattr(loop, "_closed_form", off_by_a_kilohertz_in_second_chunk)
    with pytest.raises(RuntimeError, match="closure routes differ"):
        list(Triad(*triad_a, dipole).diagnostics(amps, phases))
    assert chunks == [LOOP_BATCH_ROWS, 1]


def test_batch_overflow_is_non_finite_without_warning(triad_a, dipole):
    specs = [
        pure_loop_spec(triad_a, dipole, (1, -1, 0), amplitudes=(1e200, 1, 1)),
        linear_loop_spec(triad_a, dipole, (Z, X, Y), amplitudes=(1e200, 1e200, 1e200)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = list(Triad(*triad_a, dipole).diagnostics(*stack_drives(specs)))
    for got, spec in zip(batch, specs):
        want = loop_diagnostics(spec)
        assert not got.closed and got.failure == want.failure == "non_finite"
        for field in ("omegas", "residuals", "max_residual"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)


def test_triad_computes_each_reduced_element_once(triad_a, dipole, monkeypatch):
    real = loop.reduced_matrix_element
    calls = []

    def counted(upper, lower, d):
        calls.append((upper, lower))
        return real(upper, lower, d)

    monkeypatch.setattr(loop, "reduced_matrix_element", counted)
    triad = Triad(*triad_a, dipole)
    a, b, c = triad_a
    assert calls == [(b, a), (c, b), (c, a)]
    assert (triad.gamma_ba, triad.gamma_cb, triad.gamma_ca) == tuple(
        real(upper, lower, dipole).value for upper, lower in calls
    )
    enumerate_pure_polarizations(triad)  # adds none: the triad holds them
    assert len(calls) == 3


@pytest.mark.parametrize(
    "amps, phases, message",
    [
        (np.ones((2, 3)), np.zeros((2, 3)), "shape"),
        (np.ones((2, 3, 3)), np.zeros((3, 3, 3)), "shape"),
        (-np.ones((1, 3, 3)), np.zeros((1, 3, 3)), ">= 0"),
        (np.full((1, 3, 3), np.inf), np.zeros((1, 3, 3)), "finite"),
        (np.ones((1, 3, 3)), np.full((1, 3, 3), np.nan), "finite"),
        (np.eye(3)[None] * 1e-200, np.zeros((1, 3, 3)), "underflow"),
    ],
)
def test_triad_rejects_malformed_drives(triad_a, dipole, amps, phases, message):
    with pytest.raises(ValueError, match=message):  # before any row is evaluated
        Triad(*triad_a, dipole).diagnostics(amps, phases)


def test_stacked_underflow_names_its_row_and_drive(triad_a, dipole):
    """As a single spec names its drive, a stack names the first row, counted
    from 0, and the drive in it whose total amplitude underflows to 0."""
    amps = np.ones((2, 3, 3))
    amps[1, 2] = (1e-200, 0.0, 0.0)
    with pytest.raises(ValueError) as info:
        Triad(*triad_a, dipole).diagnostics(amps, np.zeros((2, 3, 3)))
    assert str(info.value) == (
        "row 1, drive 3: drive amplitudes underflow: the total amplitude of a drive is 0"
    )


# ---------------------------------------------------------------------------
# rotation symmetry

CLOSING_ROWS = ((1, -1, 0), (0, 1, 1), (-1, 0, -1))


def _leak_norms(diag):
    """sqrt(|<c'|H|b>|^2 + |<c''|H|b>|^2) and sqrt(|<c|H|b'>|^2 + |<c|H|b''>|^2)."""
    r = np.abs(diag.residuals)
    return math.hypot(r[0], r[1]), math.hypot(r[2], r[3])


@settings(max_examples=200, deadline=None)
@given(
    which=st.sampled_from("abc"),
    sigmas=st.sampled_from([*CLOSING_ROWS, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotating_all_drives_changes_no_observable(which, sigmas, seed, ground, j1_levels, dipole):
    """The ground level has J = 0 and is isotropic, so one proper rotation of
    the three drives' Cartesian vectors moves no verdict, |Omega|, loop phase,
    leak norm or loop population.  The drives are closing pure-sigma rows
    (sigmas) or general drives (None) whose residuals lie far above the
    closure tolerance, so rounding cannot flip a verdict."""
    tau_b, tau_c = TRIAD_TAUS[which]
    levels = (ground, j1_levels[tau_b], j1_levels[tau_c])
    rng = np.random.default_rng(seed)
    if sigmas is None:
        spec = random_loop_spec(rng, levels, dipole)
    else:
        amps, phases = rng.uniform(0.5, 2.0, 3), rng.uniform(-np.pi, np.pi, 3)
        spec = pure_loop_spec(levels, dipole, sigmas, amps, phases)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation = q * np.linalg.det(q)  # det +1
    fields = (spec.field1, spec.field2, spec.field3)
    rotated = LoopSpec(
        spec.triad, [drive_components(rotation @ drive_vector(f.comps)) for f in fields]
    )
    before, after = loop_diagnostics(spec), loop_diagnostics(rotated)

    verdict = (True, None) if sigmas else (False, "not_closed")
    assert (before.closed, before.failure) == (after.closed, after.failure) == verdict
    assert sigmas or before.max_residual >= 1e-6
    assert np.abs(np.abs(after.omegas) - np.abs(before.omegas)).max() <= 1e-12
    products = [loop_product(SingleLoopHamiltonian(*d.omegas)) for d in (before, after)]
    assert abs(cmath.phase(products[1] / products[0])) <= 1e-12
    assert np.abs(np.subtract(_leak_norms(after), _leak_norms(before))).max() <= 1e-12
    times = np.linspace(0.0, 5.0, 101)
    pops = [dynamics.loop_populations(s, times, (1.0, 0.0, 0.0)) for s in (spec, rotated)]
    assert np.abs(pops[1] - pops[0]).max() <= 1e-12


# ---------------------------------------------------------------------------
# drive scale: residuals and Rabi frequencies both scale with the amplitudes

def _scaled(exponents, amps, phases):
    """Drive arrays (N, 3, 3) of amps and phases (3, 3), amps times 10**u for each u."""
    scales = 10.0 ** np.asarray(exponents, dtype=float)[:, None, None]
    return amps * scales, np.broadcast_to(phases, scales.shape[:1] + (3, 3))


@settings(max_examples=200, deadline=None)
@given(
    which=st.sampled_from("abc"),
    kind=st.sampled_from(["general", "linear", "pure", "raw"]),
    u=st.floats(-12.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_leak_is_closed_at_no_drive_scale(which, kind, u, seed, ground, j1_levels, dipole):
    """A drive whose largest residual is at least 1e-6 of its smallest |Omega|
    is not closed at any common amplitude scale 10^u, u in [-12, 12]: the
    integers and a drawn u.  Scaled down, its residuals fall below
    DEFAULT_CLOSURE_TOL_MHZ, but their ratio to |Omega| stays."""
    tau_b, tau_c = TRIAD_TAUS[which]
    levels = (ground, j1_levels[tau_b], j1_levels[tau_c])
    _, (amps, phases) = random_drives(kind, np.random.default_rng(seed), levels, dipole, 1)
    triad = Triad(*levels, dipole)
    diag = next(triad.diagnostics(amps, phases))
    assume(diag.max_residual >= 1e-6 * min(map(abs, diag.omegas)))
    exponents = [*range(-12, 13), u]
    verdicts = triad.diagnostics(*_scaled(exponents, amps[0], phases[0]))
    assert [u for u, d in zip(exponents, verdicts) if d.closed] == []


@settings(max_examples=100, deadline=None)
@given(
    which=st.sampled_from("abc"),
    row=st.sampled_from(TABLE_ROWS),
    u=st.floats(-6.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_rows_and_orthogonal_frames_close_at_small_drive_scales(
    which, row, u, seed, ground, j1_levels, dipole
):
    """A table row and an orthogonal linear frame, each with drawn drive
    amplitudes and phases, stay closed at every common amplitude scale 10^u,
    u in [-6, 0]: the integers and a drawn u."""
    tau_b, tau_c = TRIAD_TAUS[which]
    triad = Triad(ground, j1_levels[tau_b], j1_levels[tau_c], dipole)
    rng = np.random.default_rng(seed)
    pure = np.array([[float(s == t) for t in (1, 0, -1)] for s in row[:3]])
    frame_amps, frame_phases = stacked_linear_components(np.linalg.qr(rng.normal(size=(3, 3)))[0].T)
    for unit, unit_phases in ((pure, np.zeros((3, 3))), (frame_amps, frame_phases)):
        amps = unit * rng.uniform(0.5, 2.0, (3, 1))
        phases = unit_phases + rng.uniform(-np.pi, np.pi, (3, 1))
        verdicts = triad.diagnostics(*_scaled([*range(-6, 1), u], amps, phases))
        assert [d.failure for d in verdicts] == [None] * 8


# ---------------------------------------------------------------------------
# leg types and chirality over random asymmetric tops

# The body axis whose dipole component drives legs ba, cb and ca of each triad.
LEG_AXES = {"a": "zxy", "b": "zyx", "c": "xzy"}

signed_mu = st.tuples(st.floats(0.01, 5.0), st.sampled_from((-1.0, 1.0))).map(lambda m: m[0] * m[1])


def _kept(d: BodyDipole, axis: str) -> BodyDipole:
    """d with only its component along axis; the other two are 0."""
    return BodyDipole(*(getattr(d, "mu_" + a) if a == axis else 0.0 for a in "xyz"))


@settings(max_examples=200, deadline=None)
@given(
    c_mhz=st.floats(100.0, 20000.0),
    gaps=st.tuples(st.floats(1.0, 20000.0), st.floats(1.0, 20000.0)),
    mu=st.tuples(signed_mu, signed_mu, signed_mu),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_leg_is_one_dipole_component_and_the_mirror_flips_every_loop(c_mhz, gaps, mu, seed):
    """On a random top with A > B > C, each gap at least 1 MHz, and a signed
    dipole, each leg of triads a, b and c is driven by one body-frame
    component (LEG_AXES): its reduced element equals the one of that
    component alone, and the other two components alone give exactly 0.  So
    each table row's loop product, at drawn amplitudes and phases, is exactly
    minus the mirror molecule's."""
    top = RotationalConstants(A=c_mhz + gaps[1] + gaps[0], B=c_mhz + gaps[1], C=c_mhz)
    dip = BodyDipole(*mu)
    ground, j1 = rotor_levels(top, 0)[0], {level.tau: level for level in rotor_levels(top, 1)}
    try:
        triads = {which: Triad(ground, j1[b], j1[c], dip) for which, (b, c) in TRIAD_TAUS.items()}
    except ResonanceAmbiguityError:
        assume(False)
    rng = np.random.default_rng(seed)
    for which, t in triads.items():
        legs = ((t.level_b, t.level_a, t.gamma_ba), (t.level_c, t.level_b, t.gamma_cb),
                (t.level_c, t.level_a, t.gamma_ca))
        for (upper, lower, gamma), axis in zip(legs, LEG_AXES[which]):
            alone = {a: dipole_module.reduced_matrix_element(upper, lower, _kept(dip, a)).value
                     for a in "xyz"}
            assert alone.pop(axis) == gamma
            assert list(alone.values()) == [0j, 0j]
        for row in TABLE_ROWS:
            amps, phases = rng.uniform(0.1, 10.0, 3).tolist(), rng.uniform(-math.pi, math.pi, 3).tolist()
            spec = LoopSpec(t, [{s: (amp, phase)} for s, amp, phase in zip(row[:3], amps, phases)])
            product = loop_product(build_single_loop(spec))
            assert product != 0 and loop_product(build_single_loop(spec.mirrored())) == -product
