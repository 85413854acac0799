"""Dressed states, closure conditions (two routes), loop synthesis, the
pure-polarization table, and the linear-polarization orthogonality rule."""

import cmath
import math

import numpy as np
import pytest

from chiraloop import dynamics, loop
from chiraloop.dipole import BodyDipole, enantiomer
from chiraloop.fields import DriveField
from chiraloop.loop import (
    TABLE_ROWS,
    LoopSpec,
    NotClosedError,
    SingleLoopHamiltonian,
    ZeroRabiError,
    build_single_loop,
    closure_conditions,
    closure_conditions_closed_form,
    dressed_states,
    enumerate_pure_polarizations,
    loop_diagnostics,
    loop_product,
    omega2_closed_form,
    verify_linear_orthogonality,
)

from conftest import X, Y, Z, linear_loop_spec, pure_loop_spec, random_loop_spec


# ---------------------------------------------------------------------------
# spec validation

def test_resonant_tunes_each_drive_to_its_transition(triad_a, dipole):
    a, b, c = triad_a
    comps = [{1: (1.0, 0.5)}, {-1: (2.0, -4.0), 0: (0.5, 0.0)}, {0: (-1.0, 0.0)}]
    spec = LoopSpec.resonant(triad_a, dipole, comps)
    assert (spec.level_a, spec.level_b, spec.level_c, spec.dipole) == (a, b, c, dipole)
    fields = (spec.field1, spec.field2, spec.field3)
    assert [f.freq for f in fields] == [b.freq - a.freq, c.freq - b.freq, c.freq - a.freq]
    assert [f.comps for f in fields] == [DriveField(1.0, comp).comps for comp in comps]


def test_loopspec_rejects_wrong_j(triad_a, dipole):
    a, b, c = triad_a
    with pytest.raises(ValueError):
        LoopSpec(
            level_a=b,  # J=1 in the ground slot
            level_b=b,
            level_c=c,
            field1=DriveField.pure(0, 1.0, b.freq - a.freq),
            field2=DriveField.pure(0, 1.0, c.freq - b.freq),
            field3=DriveField.pure(0, 1.0, c.freq - a.freq),
            dipole=dipole,
        )


def test_loopspec_rejects_off_resonant_field(triad_a, dipole):
    a, b, c = triad_a
    with pytest.raises(ValueError):
        LoopSpec(
            level_a=a,
            level_b=b,
            level_c=c,
            field1=DriveField.pure(0, 1.0, b.freq - a.freq + 0.5),
            field2=DriveField.pure(0, 1.0, c.freq - b.freq),
            field3=DriveField.pure(0, 1.0, c.freq - a.freq),
            dipole=dipole,
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
    residuals = closure_conditions(spec)
    assert residuals == (0j, 0j, 0j, 0j)


def test_closure_zxy_vanishes(triad_a, dipole):
    spec = linear_loop_spec(triad_a, dipole, (Z, X, Y))
    residuals = closure_conditions(spec)
    assert max(abs(r) for r in residuals) < 1e-12


def test_closure_zxx_fails(triad_a, dipole):
    spec = linear_loop_spec(triad_a, dipole, (Z, X, X))
    residuals = closure_conditions(spec)
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
    real = loop.closure_conditions_closed_form
    calls = []

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(loop, "closure_conditions_closed_form", counted)
    spec = linear_loop_spec(triad_a, dipole, (Z, X, Y), amplitudes=(1.0, 0.75, 2.75))
    diag = loop_diagnostics(spec)
    assert calls == [spec]
    assert closure_conditions(spec) == diag.residuals

    def off_by_a_kilohertz(spec):
        return tuple(r + 1e-3 for r in real(spec))

    monkeypatch.setattr(loop, "closure_conditions_closed_form", off_by_a_kilohertz)
    with pytest.raises(RuntimeError, match="closure routes differ"):
        loop_diagnostics(spec)


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
