"""Dressed states, closure conditions (two routes), loop synthesis, the
pure-polarization table, and the linear-polarization orthogonality rule."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop import dynamics, loop, wigner
from chiraloop.dipole import BodyDipole
from chiraloop.fields import DriveField
from chiraloop.loop import (
    LOOP_BATCH_ROWS,
    TABLE_ROWS,
    LoopSpec,
    NotClosedError,
    SingleLoopHamiltonian,
    Triad,
    ZeroRabiError,
    build_single_loop,
    closure_conditions_closed_form,
    dressed_states,
    enumerate_pure_polarizations,
    loop_diagnostics,
    loop_product,
    omega2_closed_form,
    verify_linear_orthogonality,
)
from chiraloop.rotor import OrderingError

from conftest import X, Y, Z, linear_loop_spec, pure_loop_spec, random_loop_spec
from conftest import reference_diagnostics, reference_dressed


# ---------------------------------------------------------------------------
# spec validation

def test_resonant_tunes_each_drive_to_its_transition(triad_a, dipole):
    a, b, c = triad_a
    comps = [{1: (1.0, 0.5)}, {-1: (2.0, -4.0), 0: (0.5, 0.0)}, {0: (-1.0, 0.0)}]
    triad = Triad(*triad_a, dipole)
    spec = LoopSpec.resonant(triad, comps)
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


def test_loopspec_rejects_off_resonant_field(triad_a, dipole):
    a, b, c = triad_a
    with pytest.raises(ValueError, match="field1 .* not resonant"):
        LoopSpec(
            triad=Triad(a, b, c, dipole),
            field1=DriveField.pure(0, 1.0, b.freq - a.freq + 0.5),
            field2=DriveField.pure(0, 1.0, c.freq - b.freq),
            field3=DriveField.pure(0, 1.0, c.freq - a.freq),
        )


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
        closed_form = closure_conditions_closed_form(spec)
        scale = float(np.abs(block).max())
        for x, y in zip(from_block, closed_form):
            assert abs(x - y) <= 1e-12 * scale
        omega2_block = 2.0 * complex(ds.c.conj() @ block @ ds.b)
        assert abs(omega2_block - omega2_closed_form(spec)) <= 1e-12 * scale


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
        rows = enumerate_pure_polarizations(levels, dipole)
        assert len(rows) == 27
        closed = [r for r in rows if r.closed]
        assert [
            (r.sigma1, r.sigma2, r.sigma3, r.m_b, r.m_c) for r in closed
        ] == list(TABLE_ROWS)


def test_enumeration_closed_rows_lead_in_table_order(triad_a, dipole):
    rows = enumerate_pure_polarizations(triad_a, dipole)
    leading = [(r.sigma1, r.sigma2, r.sigma3, r.m_b, r.m_c) for r in rows[:6]]
    assert leading == list(TABLE_ROWS)
    assert all(not r.closed for r in rows[6:])
    rest = [(r.sigma1, r.sigma2, r.sigma3) for r in rows[6:]]
    assert rest == sorted(rest)


@pytest.mark.parametrize("mu", [(0.0, 0.365, 1.201), (1.916, 0.365, 0.0)])
def test_enumeration_table_rows_lead_even_when_open(triad_a, mu):
    """With mu_x = 0 or mu_z = 0 no row closes, and the six TABLE_ROWS still
    come first, in table order, then the other 21 lexicographically."""
    rows = enumerate_pure_polarizations(triad_a, BodyDipole(*mu))
    keys = [(r.sigma1, r.sigma2, r.sigma3, r.m_b, r.m_c) for r in rows]
    assert keys[:6] == list(TABLE_ROWS)
    assert keys[6:] == sorted(keys[6:])
    assert not any(r.closed for r in rows)


def test_enumeration_zero_mu_y_closes_nothing(triad_a):
    no_y = BodyDipole(1.916, 0.0, 1.201)
    rows = enumerate_pure_polarizations(triad_a, no_y)
    assert not any(r.closed for r in rows)


def test_enumeration_deterministic(triad_a, dipole):
    first = enumerate_pure_polarizations(triad_a, dipole)
    second = enumerate_pure_polarizations(triad_a, dipole)
    assert first == second


# ---------------------------------------------------------------------------
# linear-polarization orthogonality rule

def test_orthogonality_zxy_closed(triad_a, dipole):
    closed, residual = verify_linear_orthogonality(Z, X, Y, triad_a, dipole)
    assert closed
    assert residual < 1e-12


def test_orthogonality_tilted_third_axis_fails(triad_a, dipole):
    tilted = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    closed, residual = verify_linear_orthogonality(Z, X, tilted, triad_a, dipole)
    assert not closed
    assert residual > 1e-3


def test_orthogonality_rotated_triads_closed(triad_a, dipole):
    rng = np.random.default_rng(17)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        closed, residual = verify_linear_orthogonality(
            q[:, 0], q[:, 1], q[:, 2], triad_a, dipole
        )
        assert closed, f"rotated orthogonal triad not closed, residual={residual}"


def test_orthogonality_random_triads_never_close(triad_a, dipole):
    rng = np.random.default_rng(23)
    for _ in range(300):
        dirs = rng.normal(size=(3, 3))
        closed, _ = verify_linear_orthogonality(*dirs, triad_a, dipole)
        units = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        dots = [abs(units[i] @ units[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert closed == (max(dots) < 1e-8)


def test_orthogonality_zero_direction_raises(triad_a, dipole):
    from chiraloop.fields import ZeroVectorError

    with pytest.raises(ZeroVectorError):
        verify_linear_orthogonality((0, 0, 0), X, Y, triad_a, dipole)


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
            specs.append(LoopSpec.resonant(Triad(*levels, dip), comps))
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


def test_verdicts_read_the_coupling_term_table(triad_a, dipole):
    """After one warm-up verdict, single and stacked verdicts look up no 3j
    symbol: their field-2 blocks read dipole._coupling_terms."""
    rng = np.random.default_rng(41)
    specs = [random_loop_spec(rng, triad_a, dipole) for _ in range(LOOP_BATCH_ROWS)]
    loop_diagnostics(specs[0])
    before = wigner._wigner3j.cache_info()
    for spec in specs[:100]:
        loop_diagnostics(spec)
    list(Triad(*triad_a, dipole).diagnostics(*stack_drives(specs)))
    assert wigner._wigner3j.cache_info() == before


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
    enumerate_pure_polarizations(triad_a, dipole)
    assert len(calls) == 6


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
