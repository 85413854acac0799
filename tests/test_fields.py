"""Polarization decomposition and the real-field reconstruction oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraloop.fields import (
    DriveField,
    ZeroVectorError,
    linear_components,
    linear_polarization,
    polarization_angles,
)

ROOT2 = math.sqrt(2.0)

# spherical basis vectors in the lab frame
EPS = {
    0: np.array([0.0, 0.0, 1.0], dtype=complex),
    1: np.array([1.0, 1.0j, 0.0]) / ROOT2,
    -1: -np.array([1.0, -1.0j, 0.0]) / ROOT2,
}


def reconstruct_real_field(field: DriveField, t_us: float) -> np.ndarray:
    """Re{ sum_s eps_s E_s e^{-i(2 pi nu t + phi_s)} }; the oracle that pins
    down what the stored components mean physically."""
    total = np.zeros(3, dtype=complex)
    for sigma in (-1, 0, 1):
        amp, phase = field.amplitude(sigma), field.phase(sigma)
        total += EPS[sigma] * amp * cmath.exp(-1j * (2 * np.pi * field.freq * t_us + phase))
    return total.real


unit_direction = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < math.hypot(*v))


# ---------------------------------------------------------------------------
# axis decompositions

def test_z_polarization_is_pure_sigma0():
    f = linear_polarization((0, 0, 1), 1.0, 0.0, 100.0)
    assert f.comps == {0: (1.0, 0.0)}


def test_x_polarization_components():
    f = linear_polarization((1, 0, 0), ROOT2, 0.0, 100.0)
    assert f.amplitude(1) == pytest.approx(1.0, rel=1e-15)
    assert f.amplitude(-1) == pytest.approx(1.0, rel=1e-15)
    assert f.amplitude(0) == 0.0
    assert f.phase(1) == pytest.approx(0.0, abs=1e-15)
    assert f.phase(-1) == pytest.approx(math.pi, abs=1e-15)
    # opposite complex amplitudes characterize a linear X field
    assert f.complex_amplitude(1) == pytest.approx(-f.complex_amplitude(-1), rel=1e-14)


def test_y_polarization_components():
    f = linear_polarization((0, 1, 0), ROOT2, 0.0, 100.0)
    assert f.amplitude(1) == pytest.approx(1.0, rel=1e-15)
    assert f.amplitude(-1) == pytest.approx(1.0, rel=1e-15)
    # equal complex amplitudes characterize a linear Y field
    assert f.complex_amplitude(-1) == pytest.approx(f.complex_amplitude(1), rel=1e-14)


def test_zero_direction_rejected():
    with pytest.raises(ZeroVectorError):
        linear_polarization((0.0, 0.0, 0.0), 1.0, 0.0, 100.0)


def test_linear_components_are_the_drive_components():
    assert linear_components((0.0, 0.0, 2.0), 1.5, 0.4) == {0: (1.5, 0.4)}
    direction, amplitude, phase = (0.3, -1.0, 0.7), 2.0, -1.1
    comps = linear_components(direction, amplitude, phase)
    f = linear_polarization(direction, amplitude, phase, 10.0)
    assert sorted(comps) == sorted(f.comps) == [-1, 0, 1]
    for sigma, (amp, ph) in comps.items():
        assert amp * cmath.exp(1j * ph) == pytest.approx(f.complex_amplitude(sigma), abs=1e-15)


# ---------------------------------------------------------------------------
# reconstruction oracle

@settings(max_examples=80, deadline=None)
@given(direction=unit_direction, phase=st.floats(-3.0, 3.0))
def test_reconstruction_stays_on_axis(direction, phase):
    amplitude = 1.7
    freq = 50.0
    f = linear_polarization(direction, amplitude, phase, freq)
    n = np.asarray(direction) / np.linalg.norm(direction)
    for t in np.linspace(0.0, 0.04, 9):
        e_t = reconstruct_real_field(f, float(t))
        # field is parallel to the input axis with a cosine envelope
        assert np.linalg.norm(e_t - (e_t @ n) * n) < 1e-10 * amplitude
        assert e_t @ n == pytest.approx(
            amplitude * math.cos(2 * np.pi * freq * t + phase), abs=1e-10
        )


@settings(max_examples=60, deadline=None)
@given(direction=unit_direction, phase=st.floats(-3.0, 3.0))
def test_component_energy_sums_to_amplitude(direction, phase):
    amplitude = 2.3
    f = linear_polarization(direction, amplitude, phase, 10.0)
    total_sq = sum(f.amplitude(s) ** 2 for s in (-1, 0, 1))
    assert total_sq == pytest.approx(amplitude**2, rel=1e-12)
    assert f.total == pytest.approx(amplitude, rel=1e-12)


def test_orthogonal_directions_reconstruct_orthogonal_axes():
    rng = np.random.default_rng(3)
    for _ in range(25):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        fields = [linear_polarization(q[:, i], 1.0, 0.0, 10.0) for i in range(3)]
        # evaluate each at its own phase peak: t=0 has cos(phase)=1 for phase 0
        axes = [reconstruct_real_field(f, 0.0) for f in fields]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(axes[i] @ axes[j]) < 1e-12


# ---------------------------------------------------------------------------
# angle parametrization

def test_angles_pure_components():
    plus = DriveField.pure(1, 2.0, 10.0)
    zero = DriveField.pure(0, 2.0, 10.0)
    minus = DriveField.pure(-1, 2.0, 10.0)
    assert polarization_angles(plus).theta == pytest.approx(math.pi / 2)
    assert polarization_angles(plus).phi == pytest.approx(0.0)
    assert polarization_angles(zero).theta == pytest.approx(math.pi / 2)
    assert polarization_angles(zero).phi == pytest.approx(math.pi / 2)
    assert polarization_angles(minus).theta == pytest.approx(0.0)


def test_angles_roundtrip_z():
    f = linear_polarization((0, 0, 1), 1.0, 0.0, 10.0)
    angles = polarization_angles(f)
    assert math.sin(angles.theta) * math.sin(angles.phi) == pytest.approx(1.0, abs=1e-12)


def test_angles_phases_passed_through():
    f = DriveField(freq=10.0, comps={1: (1.0, 0.25), 0: (0.5, -0.5), -1: (0.2, 1.5)})
    angles = polarization_angles(f)
    assert angles.phases == (0.25, -0.5, 1.5)


@settings(max_examples=60, deadline=None)
@given(
    amps=st.tuples(st.floats(0.01, 3), st.floats(0.01, 3), st.floats(0.01, 3)),
)
def test_angle_components_nonnegative_and_normalized(amps):
    f = DriveField(freq=1.0, comps={1: (amps[0], 0.1), 0: (amps[1], 0.2), -1: (amps[2], 0.3)})
    angles = polarization_angles(f)
    parts = (
        math.sin(angles.theta) * math.cos(angles.phi),
        math.sin(angles.theta) * math.sin(angles.phi),
        math.cos(angles.theta),
    )
    assert all(p >= 0 for p in parts)
    assert sum(p * p for p in parts) == pytest.approx(1.0, rel=1e-12)
    assert parts[0] == pytest.approx(f.amplitude(1) / f.total, rel=1e-9)
    assert parts[1] == pytest.approx(f.amplitude(0) / f.total, rel=1e-9)
    assert parts[2] == pytest.approx(f.amplitude(-1) / f.total, rel=1e-9)


# ---------------------------------------------------------------------------
# representation invariants

def test_negative_amplitude_folds_into_phase():
    f = DriveField(freq=1.0, comps={0: (-1.0, 0.0)})
    assert f.amplitude(0) == 1.0
    assert f.phase(0) == pytest.approx(math.pi)
    assert f.complex_amplitude(0) == pytest.approx(-1.0 + 0j, abs=1e-15)


def test_all_zero_amplitudes_rejected():
    with pytest.raises(ValueError):
        DriveField(freq=1.0, comps={0: (0.0, 0.0), 1: (0.0, 1.0)})


def test_unknown_sigma_rejected():
    with pytest.raises(ValueError):
        DriveField(freq=1.0, comps={2: (1.0, 0.0)})


def test_phase_canonical_range():
    f = DriveField(freq=1.0, comps={0: (1.0, 7.5)})
    assert -math.pi < f.phase(0) <= math.pi
    assert cmath.exp(1j * f.phase(0)) == pytest.approx(cmath.exp(1j * 7.5), rel=1e-12)


@pytest.mark.parametrize(
    "freq, comps",
    [
        (math.nan, {0: (1.0, 0.0)}),
        (math.inf, {0: (1.0, 0.0)}),
        (1.0, {0: (math.inf, 0.0)}),
        (1.0, {0: (math.nan, 0.0)}),
        (1.0, {1: (1.0, math.inf)}),
        (1.0, {1: (1.0, 0.0), -1: (1.0, math.nan)}),
    ],
)
def test_non_finite_values_rejected(freq, comps):
    with pytest.raises(ValueError):
        DriveField(freq=freq, comps=comps)
